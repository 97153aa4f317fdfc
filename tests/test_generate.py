import os
import tracemalloc

import numpy as np
import pytest

from samplernn import audio, generate
from samplernn.checkpoint import Checkpoint, checkpoint_path, save_checkpoint
from samplernn.cli import main
from samplernn.config import build_run_config
from samplernn.errors import (
    CheckpointError,
    ContractError,
    GenerationMemoryError,
    NumericError,
)
from samplernn.generate import (
    GenConfig,
    checkpoint_generation_schedule,
    generate_batch,
    sample_categorical,
    sequence_stream,
    write_checkpoint_clips,
)
from samplernn.model import init_params
from samplernn.training import Adam, TrainConfig

from conftest import toy_config


def toy_model(seed=3, **overrides):
    return init_params(toy_config(seed=seed, **overrides))


def save_toy_checkpoint(directory, iteration, seed=3):
    model = toy_model(seed=seed)
    opt = Adam(model.params)
    rng = np.random.Generator(np.random.PCG64(0))
    ck = Checkpoint.capture(model, TrainConfig(batch_size=1, tbptt_len=8),
                            iteration, opt, rng, [], None)
    path = checkpoint_path(directory, iteration)
    save_checkpoint(path, ck)
    return path


# -- sampler --------------------------------------------------------------------


def test_uniform_logits_sample_uniformly():
    rng = sequence_stream(7, 0)
    q = 256
    draws = np.array([sample_categorical(np.zeros(q), 1.0, rng) for _ in range(100_000)])
    counts = np.bincount(draws, minlength=q)
    expected = draws.size / q
    # 3 sigma on a binomial bin count
    sigma = np.sqrt(draws.size * (1 / q) * (1 - 1 / q))
    assert np.all(np.abs(counts - expected) < 5 * sigma)
    # and a chi-square across all bins
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 256 + 6 * np.sqrt(2 * 255)


def test_low_temperature_concentrates_on_argmax():
    rng = sequence_stream(11, 0)
    logits = np.array([0.0, 1.0, 0.3, -0.2])
    draws = {sample_categorical(logits, 1e-3, rng) for _ in range(10_000)}
    assert draws == {1}


def test_argmax_tie_breaks_to_first():
    rng = sequence_stream(0, 0)
    assert sample_categorical(np.array([1.0, 3.0, 3.0]), 1.0, rng, argmax=True) == 1


def test_argmax_invariant_under_shift_and_scale(rng):
    logits = rng.normal(size=32)
    base = sample_categorical(logits, 1.0, sequence_stream(0, 0), argmax=True)
    for t in (0.1, 1.0, 17.0):
        shifted = logits * (1.0 / t) + 5.0
        assert sample_categorical(shifted, 1.0, sequence_stream(0, 0), argmax=True) == base


def test_sampler_rejects_nonfinite():
    with pytest.raises(NumericError):
        sample_categorical(np.array([1.0, np.nan]), 1.0, sequence_stream(0, 0))


def per_row_draw(logits, temperature, rng):
    """The sampler's arithmetic for one row, written out as a reference."""
    z = np.asarray(logits, dtype=np.float64) / temperature
    z -= z.max()
    cdf = np.cumsum(np.exp(z))
    u = rng.random() * cdf[-1]
    return min(int(np.searchsorted(cdf, u, side="right")), logits.size - 1)


@pytest.mark.parametrize("temperature", [1.0, 0.37])
def test_batched_sampler_equals_per_row_draws(rng, temperature):
    batch, single, ref = ([sequence_stream(3, k) for k in range(6)] for _ in range(3))
    for _ in range(20):
        logits = rng.normal(0.0, 3.0, (6, 255)).astype(np.float32)
        codes = sample_categorical(logits, temperature, batch)
        assert codes.shape == (6,)
        assert codes.tolist() == [per_row_draw(l, temperature, g) for l, g in zip(logits, ref)]
        one = [sample_categorical(l, temperature, g) for l, g in zip(logits, single)]
        assert all(type(c) is int for c in one) and one == codes.tolist()


def test_batched_argmax_draws_nothing(rng):
    logits = rng.normal(size=(4, 32))
    logits[1, 9] = logits[1, 5] = logits.max() + 1.0  # a tie breaks to the first index
    streams = [sequence_stream(2, k) for k in range(4)]
    codes = sample_categorical(logits, 0.5, streams, argmax=True)
    assert codes.tolist() == [int(np.argmax(l)) for l in logits] and codes[1] == 5
    assert [g.random() for g in streams] == [sequence_stream(2, k).random() for k in range(4)]


def test_sampler_deterministic_per_stream():
    a = [sample_categorical(np.zeros(16), 1.0, sequence_stream(5, 2)) for _ in range(20)]
    b = [sample_categorical(np.zeros(16), 1.0, sequence_stream(5, 2)) for _ in range(20)]
    assert a == b


# -- generate_batch ---------------------------------------------------------------


def test_generated_clip_shape_and_range():
    model = toy_model()
    clips = generate_batch(model, GenConfig(n_seq=2, clip_seconds=0.01, seed=1))
    assert len(clips) == 2
    for clip in clips:
        assert len(clip) == 160  # 0.01 s at 16 kHz
        assert clip.sample_rate == 16000
        assert np.all(clip.samples >= -1.0) and np.all(clip.samples <= 1.0)


def test_batch_independence_across_sizes():
    # toy widths; learned h0, and randomized h0 drawn per stream over 2 LSTM layers
    for h0_mode in ("learned", "randomized"):
        model = toy_model(seed=15, h0_mode=h0_mode)
        assert model.config.n_layers == 2
        outs = {}
        for n_seq in (1, 3, 10):
            clips = generate_batch(model, GenConfig(n_seq=n_seq, clip_seconds=0.005, seed=9))
            outs[n_seq] = [c.samples for c in clips]
        for n_seq in (3, 10):
            assert np.array_equal(outs[1][0], outs[n_seq][0]), h0_mode
        for k in range(3):
            assert np.array_equal(outs[3][k], outs[10][k]), h0_mode


@pytest.mark.parametrize("preset, overrides, n_samples", [
    ("desk", {}, 1024),
    ("paper", {"model.n_layers": 1}, 64),
], ids=["desk", "paper-width"])
def test_stream_logits_do_not_depend_on_batch_size(monkeypatch, preset, overrides, n_samples):
    # at real widths a 1-row and a many-row BLAS product round differently;
    # generation makes every product one row at a time, so stream 0 sees
    # bitwise the same logits at every step whatever the batch
    model = init_params(build_run_config(preset, overrides=overrides).model)
    calls = []
    sampler = generate.sample_categorical
    monkeypatch.setattr(generate, "sample_categorical", lambda logits, *args, **kwargs: calls.append(
        np.atleast_2d(logits).copy()) or sampler(logits, *args, **kwargs))
    seen, n_calls = {}, {}
    for n_seq in (1, 2, 3, 10):
        calls.clear()
        generate_batch(model, GenConfig(n_seq=n_seq, clip_seconds=n_samples / 16000, seed=5))
        seen[n_seq] = np.concatenate(calls).reshape(n_samples, n_seq, -1)[:, 0]
        n_calls[n_seq] = len(calls)
    for n_seq in (2, 3, 10):
        assert seen[n_seq].tobytes() == seen[1].tobytes(), n_seq
    assert set(n_calls.values()) == {n_samples}  # one sampler call per step for the batch


def test_generation_determinism_bitwise_wav(tmp_path):
    model = toy_model(seed=15)
    cfg = GenConfig(n_seq=2, clip_seconds=0.01, seed=42)
    a = generate_batch(model, cfg)
    b = generate_batch(model, cfg)
    pa, pb = tmp_path / "a.wav", tmp_path / "b.wav"
    audio.write_wav(a[1], pa)
    audio.write_wav(b[1], pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_prefix_invariant_to_later_rng_draws():
    # the first t samples only depend on draws consumed up to step t
    model = toy_model(seed=15)
    short = generate_batch(model, GenConfig(n_seq=1, clip_seconds=0.005, seed=3))[0]
    long = generate_batch(model, GenConfig(n_seq=1, clip_seconds=0.01, seed=3))[0]
    assert np.array_equal(short.samples, long.samples[: len(short)])


def test_learned_h0_ignores_seed_under_argmax():
    model = toy_model(seed=15)  # h0_mode=learned
    a = generate_batch(model, GenConfig(n_seq=1, clip_seconds=0.005, mode="argmax", seed=1))[0]
    b = generate_batch(model, GenConfig(n_seq=1, clip_seconds=0.005, mode="argmax", seed=2))[0]
    assert np.array_equal(a.samples, b.samples)


def test_randomized_h0_varies_with_seed_under_argmax():
    model = init_params(toy_config(seed=15, h0_mode="randomized"))
    a = generate_batch(model, GenConfig(n_seq=1, clip_seconds=0.005, mode="argmax", seed=1))[0]
    b = generate_batch(model, GenConfig(n_seq=1, clip_seconds=0.005, mode="argmax", seed=2))[0]
    assert not np.array_equal(a.samples, b.samples)


def test_memory_budget_error_names_n_seq():
    model = toy_model()
    cfg = GenConfig(n_seq=10, clip_seconds=30.0, seed=0, memory_budget_bytes=1024)
    with pytest.raises(GenerationMemoryError) as err:
        generate_batch(model, cfg)
    assert "n_seq" in str(err.value)


def test_memory_budget_counts_the_folded_weights(tmp_path):
    # write_checkpoint_clips hands generate_batch a folded model, whose
    # weights are name.w entries; the estimate must count them too
    path = save_toy_checkpoint(tmp_path, 4)
    model = toy_model()
    weights = sum(a.nbytes for a in model.folded().params.arrays().values())
    c, n, fs = model.config, 2080, model.config.frame_size  # 0.13 s at 16 kHz
    state = 2 * ((n + fs) * 8 + (fs + 2 * c.n_layers) * c.hidden_dim * 4 + n * 12)
    cfg = GenConfig(n_seq=2, clip_seconds=0.13, memory_budget_bytes=state + weights // 2)
    with pytest.raises(GenerationMemoryError, match="n_seq"):
        write_checkpoint_clips(path, cfg, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()
    cfg = GenConfig(n_seq=2, clip_seconds=0.13, memory_budget_bytes=state + weights)
    assert len(write_checkpoint_clips(path, cfg, str(tmp_path / "out"))) == 2


def test_gen_config_validation():
    with pytest.raises(ContractError):
        GenConfig(n_seq=0)
    with pytest.raises(ContractError):
        GenConfig(temperature=0.0)
    with pytest.raises(ContractError):
        GenConfig(mode="greedy")


# -- checkpoint schedule -----------------------------------------------------------


def test_schedule_generates_per_checkpoint(tmp_path):
    ckdir = tmp_path / "ck"
    outdir = tmp_path / "out"
    os.makedirs(ckdir)
    for it in (100, 50, 150):  # written out of order; schedule sorts by iteration
        save_toy_checkpoint(ckdir, it)
    cfg = GenConfig(n_seq=3, clip_seconds=0.13, seed=0)
    reports = checkpoint_generation_schedule(str(ckdir), cfg, str(outdir))
    wavs = sorted(f for f in os.listdir(outdir) if f.endswith(".wav"))
    assert len(wavs) == 9  # 3 checkpoints x n_seq=3
    assert wavs[0] == "ckpt100_seq0.wav"
    assert {f"ckpt{i}_seq{k}.wav" for i in (50, 100, 150) for k in range(3)} == set(wavs)
    # report lines pair 1:1 with emitted WAVs, ordered by iteration
    assert [r.clip for r in reports][:3] == ["ckpt50_seq0.wav", "ckpt50_seq1.wav", "ckpt50_seq2.wav"]
    lines = (outdir / "diagnostics.txt").read_text().splitlines()
    assert len(lines) == 9
    assert all(line.startswith("clip=ckpt") for line in lines)


def test_schedule_skips_unreadable_and_errors_when_none(tmp_path):
    ckdir = tmp_path / "ck"
    os.makedirs(ckdir)
    (ckdir / "broken.srnn").write_bytes(b"garbage")
    with pytest.raises(CheckpointError):
        checkpoint_generation_schedule(str(ckdir), GenConfig(n_seq=1, clip_seconds=0.13), str(tmp_path / "o"))
    save_toy_checkpoint(ckdir, 10)
    reports = checkpoint_generation_schedule(
        str(ckdir), GenConfig(n_seq=1, clip_seconds=0.13), str(tmp_path / "o2")
    )
    assert len(reports) == 1  # the broken one was skipped with a warning


def test_schedule_loads_each_checkpoint_when_its_turn_comes(tmp_path, monkeypatch):
    ckdir = tmp_path / "ck"
    os.makedirs(ckdir)
    for it in (20, 10):
        save_toy_checkpoint(ckdir, it)
    calls = []
    load, gen = generate.load_checkpoint, generate.generate_batch
    monkeypatch.setattr(generate, "load_checkpoint",
                        lambda path: calls.append(os.path.basename(path)) or load(path))
    monkeypatch.setattr(generate, "generate_batch",
                        lambda model, cfg: calls.append("generate") or gen(model, cfg))
    checkpoint_generation_schedule(
        str(ckdir), GenConfig(n_seq=1, clip_seconds=0.13), str(tmp_path / "o")
    )
    assert calls == ["ckpt_00000010.srnn", "generate", "ckpt_00000020.srnn", "generate"]


def test_schedule_deterministic_content(tmp_path):
    ckdir = tmp_path / "ck"
    os.makedirs(ckdir)
    save_toy_checkpoint(ckdir, 20)
    cfg = GenConfig(n_seq=1, clip_seconds=0.13, seed=8)
    checkpoint_generation_schedule(str(ckdir), cfg, str(tmp_path / "o1"))
    checkpoint_generation_schedule(str(ckdir), cfg, str(tmp_path / "o2"))
    a = (tmp_path / "o1" / "ckpt20_seq0.wav").read_bytes()
    b = (tmp_path / "o2" / "ckpt20_seq0.wav").read_bytes()
    assert a == b


def test_generation_holds_the_model_not_the_checkpoint(tmp_path, monkeypatch):
    run = build_run_config(preset="desk")
    model = init_params(run.model)
    ckdir = tmp_path / "ck"
    os.makedirs(ckdir)
    path = checkpoint_path(ckdir, 5)
    save_checkpoint(path, Checkpoint.capture(model, run.train, 5, Adam(model.params),
                                             np.random.Generator(np.random.PCG64(0)), [], None))
    size = os.path.getsize(path)
    assert 1.0e6 < size < 1.2e6
    held = []
    gen = generate.generate_batch
    monkeypatch.setattr(generate, "generate_batch", lambda model, cfg: held.append(
        tracemalloc.get_traced_memory()[0]) or gen(model, cfg))
    for source in (["--ckpt", path], ["--ckpt-dir", str(ckdir)]):
        tracemalloc.start()
        try:
            rc = main(["generate", *source, "--out-dir", str(tmp_path / "o"),
                       "--n-seq", "1", "--seconds", "0.13"])
        finally:
            tracemalloc.stop()
        assert rc == 0
    # the folded weights alone are about 0.4x; holding the trained model
    # (parameters and zero gradients) as well reads about 0.73x, and the
    # loaded checkpoint (parameters and Adam moments) too about 1.73x
    assert len(held) == 2 and max(held) < 0.5 * size, [h / size for h in held]
