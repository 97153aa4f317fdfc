import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import samplernn
from samplernn import autodiff as ad
from samplernn.errors import ContractError, DivergenceError
from samplernn.model import init_params, quantize
from samplernn.training import (
    Adam,
    ChunkDataset,
    MetricsRecord,
    TrainConfig,
    clip_gradients,
    group_chunk_ids,
    tbptt_step,
    train_loop,
    validate,
)

from conftest import make_tone, toy_config


def small_train_config(**overrides):
    base = dict(batch_size=2, tbptt_len=8, lr=1e-3, max_iterations=6,
                checkpoint_every=0, validate_every=0, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


# -- Adam ---------------------------------------------------------------------


def test_adam_first_step_is_sign_like():
    # step 1 with g=1: m_hat = 1, v_hat = 1, update = lr/(1+eps) ~ lr
    store = ad.ParamStore()
    p = store.add("w", np.array([2.0]))
    p.grad[:] = 1.0
    opt = Adam(store, lr=0.1)
    opt.step()
    assert p.data[0] == pytest.approx(2.0 - 0.1, abs=1e-8)
    assert opt.step_count == 1


def test_adam_zero_gradient_keeps_params_decays_moments():
    # with zero moments, a zero-grad step moves nothing; with loaded moments
    # it only decays them
    store = ad.ParamStore()
    p = store.add("w", np.array([1.0]))
    opt = Adam(store, lr=0.1)
    opt.step()  # zero grad, zero moments: exact no-op on the parameter
    assert p.data[0] == 1.0
    assert opt.m["w"][0] == 0.0

    p.grad[:] = 1.0
    opt.step()
    m_before = abs(opt.m["w"][0])
    p.grad[:] = 0.0
    opt.step()
    assert abs(opt.m["w"][0]) < m_before


def test_adam_identical_runs_identical_trajectories(rng):
    grads = rng.normal(size=(5, 3)).astype(np.float32)

    def run():
        store = ad.ParamStore()
        p = store.add("w", np.ones(3, dtype=np.float32))
        opt = Adam(store, lr=0.01)
        traj = []
        for g in grads:
            p.grad[:] = g
            opt.step()
            traj.append(p.data.copy())
        return np.stack(traj)

    assert np.array_equal(run(), run())


def plain_adam_step(store, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam as written in one expression per moment, over whole arrays."""
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    for name, p in store.items():
        m[name] *= b1
        m[name] += (1.0 - b1) * p.grad
        v[name] *= b2
        v[name] += (1.0 - b2) * (p.grad * p.grad)
        p.data -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_is_bitwise_the_plain_formula(rng, dtype):
    shapes = [(3, ad.BLOCK + 5), (1,), (7, 3)]  # the first ends in a partial block
    init = [rng.normal(size=s).astype(dtype) for s in shapes]
    blocked, plain = ad.ParamStore(), ad.ParamStore()
    for i, x in enumerate(init):
        blocked.add(f"p{i}", np.asfortranarray(x))  # the store keeps a C-order copy
        plain.add(f"p{i}", x.copy())
    opt = Adam(blocked, lr=0.01)
    m = {name: np.zeros_like(t.data) for name, t in plain.items()}
    v = {name: np.zeros_like(t.data) for name, t in plain.items()}
    for t in range(1, 4):
        for name, p in blocked.items():
            p.grad[...] = rng.normal(size=p.shape)
            plain[name].grad[...] = p.grad
        opt.step()
        plain_adam_step(plain, m, v, t, lr=0.01)
    for name, p in blocked.items():
        assert p.data.dtype == dtype
        assert np.array_equal(p.data, plain[name].data)
        assert np.array_equal(opt.m[name], m[name])
        assert np.array_equal(opt.v[name], v[name])


def test_adam_step_allocates_no_parameter_sized_temporaries(rng):
    store = ad.ParamStore()
    big = store.add("big", rng.normal(size=(512, 1024)).astype(np.float32))
    store.add("small", np.ones(10, dtype=np.float32))
    for _, p in store.items():
        p.grad[...] = 0.5
    opt = Adam(store)
    opt.step()
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * big.data.nbytes


# -- clipping -------------------------------------------------------------------


def test_clip_scales_by_ratio():
    store = ad.ParamStore()
    a = store.add("a", np.zeros(4))
    b = store.add("b", np.zeros(9))
    a.grad[:] = 4.0  # norm contribution 8
    b.grad[:] = 2.0  # norm 6 -> global norm 10
    norm = clip_gradients(store, clip_norm=1.0)
    assert norm == pytest.approx(10.0)
    assert np.allclose(a.grad, 0.4)
    assert np.allclose(b.grad, 0.2)


def test_clip_noop_below_threshold():
    store = ad.ParamStore()
    a = store.add("a", np.zeros(4))
    a.grad[:] = 0.1
    clip_gradients(store, clip_norm=1.0)
    assert np.allclose(a.grad, 0.1)


# -- tbptt_step -----------------------------------------------------------------


def test_tbptt_uniform_baseline_with_zeroed_output(rng):
    model = init_params(toy_config(q_levels=256, seed=1))
    model.params["samp.out.g"].data[:] = 0.0
    model.params["samp.out.b"].data[:] = 0.0
    opt = Adam(model.params, lr=0.0)  # no movement; just measure the loss
    codes = rng.integers(0, 256, (2, 16))
    bits, _ = tbptt_step(model, opt, codes, model.initial_state(2))
    assert bits == pytest.approx(8.0, abs=1e-5)


def test_tbptt_divergence_error():
    model = init_params(toy_config(seed=1))
    model.params["samp.out.b"].data[:] = np.inf
    opt = Adam(model.params)
    with pytest.raises(DivergenceError) as err:
        tbptt_step(model, opt, np.zeros((1, 16), dtype=np.int64),
                   model.initial_state(1), iteration=17)
    assert err.value.iteration == 17


def test_tbptt_constant_chunk_memorized_quickly():
    # a constant sequence is predictable with certainty
    model = init_params(toy_config(q_levels=16, hidden_dim=16, n_layers=1, seed=7))
    cfg = small_train_config(batch_size=1, tbptt_len=16)
    opt = Adam(model.params, lr=5e-3)
    codes = np.full((1, 16), 11, dtype=np.int64)
    state = model.initial_state(1)
    bits = None
    for it in range(200):
        bits, state = tbptt_step(model, opt, codes, state, cfg.clip_norm, it)
    assert bits < 0.1


def test_tbptt_detaches_state_between_segments(rng):
    # gradients for segment B with carried state must equal gradients from a
    # freshly rebuilt graph that starts at the same state values
    model = init_params(toy_config(seed=13), dtype=np.float64)
    codes = rng.integers(0, 16, (2, 32))
    out_a = model.forward_logits(codes[:, :16], model.initial_state(2))
    carried = out_a.state.detached()

    model.params.zero_grad()
    out_b = model.forward_logits(codes[:, 16:], carried)
    loss, _ = ad.softmax_cross_entropy(out_b.logits, out_b.targets)
    ad.backward(loss)
    grads_carried = {k: v.copy() for k, v in model.params.grads().items()}

    model.params.zero_grad()
    rebuilt = carried.detached()
    out_b2 = model.forward_logits(codes[:, 16:], rebuilt)
    loss2, _ = ad.softmax_cross_entropy(out_b2.logits, out_b2.targets)
    ad.backward(loss2)
    for name, g in model.params.grads().items():
        assert np.array_equal(g, grads_carried[name]), name


# -- validate -------------------------------------------------------------------


def test_validate_empty_split_is_error():
    model = init_params(toy_config())
    with pytest.raises(ContractError):
        validate(model, np.zeros((0, 32), dtype=np.int64))


def test_validate_pure_function(rng):
    model = init_params(toy_config(seed=3))
    chunks = rng.integers(0, 16, (3, 32))
    assert validate(model, chunks) == validate(model, chunks)


def test_validate_equals_whole_forward(rng):
    from samplernn.model import model_forward_nll

    model = init_params(toy_config(seed=4))
    chunks = rng.integers(0, 16, (2, 64))
    via_validate = validate(model, chunks, segment_len=16)
    whole, _ = model_forward_nll(model, chunks, model.initial_state(2))
    assert via_validate == pytest.approx(whole, abs=1e-5)


def test_validate_applies_weight_norm_once_per_map(rng, monkeypatch):
    model = init_params(toy_config(seed=4))
    chunks = rng.integers(0, 16, (2, 64))
    expected = validate(model.folded(), chunks, segment_len=16)
    calls = []
    real = ad.weight_norm_apply
    monkeypatch.setattr(ad, "weight_norm_apply", lambda v, g: calls.append(1) or real(v, g))
    bits = validate(model, chunks, segment_len=16)  # four segments per chunk
    assert len(calls) == sum(name.endswith(".g") for name, _ in model.params.items())
    assert bits == expected


# -- batching -------------------------------------------------------------------


def test_group_ids_cover_epoch_without_replacement():
    n = 7
    seen = []
    for g in range(0, 7):
        seen.extend(group_chunk_ids(seed=5, group=g, batch_size=1, n_chunks=n))
    assert sorted(seen) == list(range(n))  # first epoch is a permutation


def test_group_ids_pure_in_arguments():
    a = group_chunk_ids(3, 12, 4, 10)
    b = group_chunk_ids(3, 12, 4, 10)
    assert np.array_equal(a, b)


# -- train_loop -----------------------------------------------------------------


def sine_codes(n_chunks, chunk_len, q=16):
    wave = make_tone(50.0, n_chunks * chunk_len / 16000.0)
    return quantize(wave, q).reshape(n_chunks, chunk_len)


def test_train_loop_metrics_monotone_and_formats(tmp_path):
    model = init_params(toy_config(seed=21))
    cfg = small_train_config(max_iterations=8, validate_every=2, checkpoint_every=4)
    train = sine_codes(4, 32)
    val = sine_codes(1, 32)
    metrics_path = tmp_path / "metrics.log"
    result = train_loop(model, cfg, train, val, str(tmp_path / "ck"),
                        metrics_path=str(metrics_path), header_lines=["model.seed=3"])
    iters = [m.iteration for m in result.metrics]
    assert iters == sorted(iters) and len(set(iters)) == len(iters)
    lines = metrics_path.read_text().splitlines()
    assert lines[0] == "# model.seed=3"
    data_lines = [l for l in lines if not l.startswith("#")]
    assert len(data_lines) == 4
    first = data_lines[0]
    assert first.startswith("iter=2 train_bits=") and " val_bits=" in first and " secs=" in first
    assert len(result.checkpoint_paths) == 2  # iterations 4 and 8


def test_train_loop_header_records_the_run_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    model = init_params(toy_config(seed=21))
    cfg = small_train_config(max_iterations=4, validate_every=2)
    metrics_path = tmp_path / "metrics.log"
    result = train_loop(model, cfg, sine_codes(4, 32), sine_codes(1, 32), str(tmp_path / "ck"),
                        metrics_path=str(metrics_path))
    lines = metrics_path.read_text().splitlines()
    header = dict(
        field.split("=", 1) for line in lines if line.startswith("# ") for field in line[2:].split()
    )
    assert header["samplernn"] == samplernn.__version__
    assert header["numpy"] == np.__version__
    assert header["OPENBLAS_NUM_THREADS"] == "1"
    assert header["OMP_NUM_THREADS"] == "unset"
    assert header["heap_policy"] == str(ad.HEAP_POLICY_APPLIED)
    if platform.libc_ver()[0] == "glibc":
        assert ad.HEAP_POLICY_APPLIED
    assert [l for l in lines if not l.startswith("#")] == [r.line() for r in result.metrics]
    assert MetricsRecord(2, 1.23456, 7.0, 3.14159, 0.5).line() == (
        "iter=2 train_bits=1.2346 val_bits=7.0000 secs=3.1"
    )


FAULT_PROBE = """
import resource
import numpy as np
from samplernn import config, model, training
run = config.build_run_config("paper", overrides={
    "model.hidden_dim": 256, "model.n_layers": 2, "train.batch_size": 4, "train.tbptt_len": 128})
m = model.init_params(run.model)
opt = training.Adam(m.params)
codes = np.random.default_rng(0).integers(0, 256, (4, 128))
state = m.initial_state(4, rng=np.random.default_rng(1))
for steps in (2, 6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(steps):
        _, state = training.tbptt_step(m, opt, codes, state)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_steady_training_steps_reuse_freed_memory():
    # a fresh process, so no earlier test has already grown the heap
    src = os.path.dirname(os.path.dirname(samplernn.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert int(out.stdout) < 200  # minor page faults over 6 steps after 2 warm-up steps


def test_train_loop_determinism(tmp_path):
    train = sine_codes(4, 32)
    val = sine_codes(1, 32)

    def run(subdir):
        model = init_params(toy_config(seed=21))
        cfg = small_train_config(max_iterations=6, validate_every=3)
        res = train_loop(model, cfg, train, val, str(tmp_path / subdir))
        return [m.train_bits for m in res.metrics], model

    bits_a, model_a = run("a")
    bits_b, model_b = run("b")
    assert bits_a == bits_b
    for name, t in model_a.params.items():
        assert np.array_equal(t.data, model_b.params[name].data)


def test_train_loop_randomized_h0_is_seeded(tmp_path):
    train = sine_codes(4, 32)

    def run(subdir):
        model = init_params(toy_config(seed=21, h0_mode="randomized"))
        cfg = small_train_config(max_iterations=5, validate_every=5)
        res = train_loop(model, cfg, train, train[:1], str(tmp_path / subdir))
        return res.metrics[-1].train_bits

    assert run("a") == run("b")


def test_train_loop_divergence_carries_last_checkpoint(tmp_path):
    model = init_params(toy_config(seed=21))
    cfg = small_train_config(max_iterations=8, checkpoint_every=2, lr=1e-3)
    train = sine_codes(4, 32)

    real_step = Adam.step
    calls = {"n": 0}

    def sabotage(self):
        calls["n"] += 1
        real_step(self)
        if calls["n"] == 5:
            self.params["samp.out.b"].data[:] = np.nan

    Adam.step = sabotage
    try:
        with pytest.raises(DivergenceError) as err:
            train_loop(model, cfg, train, train[:1], str(tmp_path / "ck"))
    finally:
        Adam.step = real_step
    assert err.value.last_checkpoint is not None
    assert "ckpt_00000004" in err.value.last_checkpoint


def test_train_loop_checkpoint_hook_feeds_diagnostics(tmp_path):
    # the hook exposes each fresh checkpoint so the operator can generate a
    # probe clip and act on its diagnostics (the restart-on-noise advice)
    from samplernn.checkpoint import load_checkpoint, model_from_checkpoint
    from samplernn.diagnostics import diagnose_clip
    from samplernn.generate import GenConfig, generate_batch

    model = init_params(toy_config(seed=21))
    cfg = small_train_config(max_iterations=4, checkpoint_every=2)
    seen = []

    def probe(path, iteration):
        clip = generate_batch(
            model_from_checkpoint(load_checkpoint(path)),
            GenConfig(n_seq=1, clip_seconds=0.13, seed=0),
        )[0]
        seen.append((iteration, diagnose_clip(clip, f"probe{iteration}.wav")))

    train_loop(model, cfg, sine_codes(4, 32), sine_codes(1, 32), str(tmp_path / "ck"),
               on_checkpoint=probe)
    assert [it for it, _ in seen] == [2, 4]
    assert all(0.0 <= report.flatness <= 1.0 for _, report in seen)


def test_chunk_dataset_loads_quantized_slices(tmp_path):
    from samplernn import audio

    rate = 16000
    path = tmp_path / "t.wav"
    audio.write_wav(audio.AudioBuffer(make_tone(100.0, 3.0, rate), rate), path)
    _, manifest = audio.chunk_corpus([path], 1.0, rate)
    manifest = audio.split_dataset(manifest, (0.4, 0.3, 0.3), seed=1)
    ds = ChunkDataset(manifest, 256)
    n_total = sum(ds.codes(split).shape[0] for split in ("train", "test", "validation"))
    assert n_total == 3
    for split in ("train", "test", "validation"):
        codes = ds.codes(split)
        if codes.size:
            assert codes.shape[1] == 16000
            assert codes.min() >= 0 and codes.max() < 256


def test_validate_scores_whole_frames_only(rng):
    model = init_params(toy_config(seed=4))  # frame_size 4
    chunks = rng.integers(0, 16, (3, 67)).astype(np.int32)
    for segment_len in (16, 2048):
        assert validate(model, chunks, segment_len=segment_len) == validate(
            model, chunks[:, :64], segment_len=segment_len)
    for length in (0, 5, 7):  # fewer than two whole frames
        with pytest.raises(ContractError, match="shorter than two frames"):
            validate(model, chunks[:, :length])


def test_chunk_dataset_reads_each_source_once_per_call(tmp_path, monkeypatch):
    from samplernn import audio, training

    rate = 16000
    paths = [tmp_path / f"{k}.wav" for k in range(3)]
    for k, path in enumerate(paths):
        audio.write_wav(audio.AudioBuffer(make_tone(100.0 * (k + 1), 2.0, rate), rate), path)
    _, manifest = audio.chunk_corpus(paths, 0.25, rate)
    manifest = audio.split_dataset(manifest, (0.5, 0.25, 0.25), seed=1)
    ds = ChunkDataset(manifest, 256)
    reads = []
    real = training.read_wav
    monkeypatch.setattr(training, "read_wav", lambda p: reads.append(p) or real(p))
    clen = manifest.chunk_length_samples
    for split in ("train", "test", "validation"):
        del reads[:]
        codes = ds.codes(split)
        entries = [e for e in manifest.entries if e.split_tag == split]
        assert sorted(reads) == sorted({e.source_file for e in entries})
        assert codes.shape == (len(entries), clen)
        for row, e in zip(codes, entries):
            samples = real(e.source_file).samples
            assert np.array_equal(row, quantize(samples[e.offset_samples : e.offset_samples + clen]))
