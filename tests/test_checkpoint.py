import dataclasses
import errno
import hashlib
import io
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

import samplernn.checkpoint
import samplernn.model
from samplernn.autodiff import ParamStore
from samplernn.checkpoint import (
    VERSION,
    Checkpoint,
    checkpoint_path,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from samplernn.cli import main
from samplernn.errors import CheckpointError, ContractError
from samplernn.model import SampleRnnModel, carry_shapes, init_params, quantize
from samplernn.training import Adam, TrainConfig, resume, train_loop
from samplernn.generate import GenConfig, checkpoint_generation_schedule, generate_batch

from conftest import make_tone, toy_config


def fresh_checkpoint(iteration=40, seed=21):
    model = init_params(toy_config(seed=seed))
    opt = Adam(model.params, lr=0.01)
    for name, p in model.params.items():
        p.grad[:] = 0.01
    opt.step()
    rng = np.random.Generator(np.random.PCG64(99))
    rng.random(13)  # advance so the state is not pristine
    state = model.initial_state(2).detached()
    state.prev_codes = np.arange(8, dtype=np.int64).reshape(2, 4)
    state.prev_cond = np.ones((2, 4, 8), dtype=np.float32)
    return model, Checkpoint.capture(
        model, TrainConfig(batch_size=2, tbptt_len=8), iteration, opt, rng,
        [(20, 3.5), (40, 2.25)], state
    )


def test_roundtrip_bitwise(tmp_path):
    model, ck = fresh_checkpoint()
    path = checkpoint_path(tmp_path, 40)
    save_checkpoint(path, ck)
    back = load_checkpoint(path)

    assert back.iteration == 40
    assert back.adam_step == 1
    assert back.model_config == model.config
    assert back.train_config == ck.train_config
    assert back.rng_state == ck.rng_state
    assert back.val_history == [(20, 3.5), (40, 2.25)]
    assert set(back.params) == set(ck.params)
    for name, arr in ck.params.items():
        assert arr.dtype == back.params[name].dtype
        assert np.array_equal(arr, back.params[name]), name
    for name, arr in ck.extra_arrays.items():
        assert np.array_equal(arr, back.extra_arrays[name]), name


def test_model_from_checkpoint_restores_exactly(tmp_path):
    model, ck = fresh_checkpoint()
    path = checkpoint_path(tmp_path, 40)
    save_checkpoint(path, ck)
    rebuilt = model_from_checkpoint(load_checkpoint(path))
    for name, t in model.params.items():
        assert np.array_equal(t.data, rebuilt.params[name].data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loading_never_draws(tmp_path, monkeypatch, dtype):
    model = init_params(toy_config(seed=21), dtype=dtype)
    ck = Checkpoint.capture(model, TrainConfig(batch_size=2, tbptt_len=8), 3, Adam(model.params),
                            np.random.Generator(np.random.PCG64(0)), [], None)
    path = checkpoint_path(tmp_path, 3)
    save_checkpoint(path, ck)

    def no_draw(*args):
        raise AssertionError("a load drew parameters")

    monkeypatch.setattr(samplernn.model, "_uniform_fan", no_draw)
    back = load_checkpoint(path)
    rebuilt = model_from_checkpoint(back)
    assert rebuilt.dtype == dtype
    assert [name for name, _ in rebuilt.params.items()] == list(back.params)
    for name, t in rebuilt.params.items():
        record = back.params[name]
        assert t.data.dtype == record.dtype == dtype, name
        assert t.data.tobytes() == record.tobytes(), name
        assert t.data.flags.owndata and t.data.flags.writeable and t.data.flags.aligned, name


def test_save_streams_and_load_holds_one_file_buffer(tmp_path):
    _, ck = fresh_checkpoint()
    ck.extra_arrays["carry.big"] = np.arange(1 << 18, dtype=np.float32)  # 1 MiB
    path = checkpoint_path(tmp_path, 40)
    tracemalloc.start()
    try:
        save_checkpoint(path, ck)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = load_checkpoint(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = os.path.getsize(path)
    assert size > 1 << 20
    assert save_peak < 0.1 * size
    assert load_peak < 1.1 * size
    assert np.array_equal(back.extra_arrays["carry.big"], ck.extra_arrays["carry.big"])


def test_resume_adopts_its_records(tmp_path, monkeypatch):
    _, ck = fresh_checkpoint()
    path = checkpoint_path(tmp_path, 40)
    save_checkpoint(path, ck)
    loads = []
    real_load = samplernn.checkpoint.load_checkpoint
    monkeypatch.setattr(samplernn.checkpoint, "load_checkpoint",
                        lambda p: loads.append(real_load(p)) or loads[-1])

    def no_draw(*args):
        raise AssertionError("a resume drew parameters")

    monkeypatch.setattr(samplernn.model, "_uniform_fan", no_draw)
    model = SampleRnnModel(ck.model_config, ParamStore())  # carries the config only
    opt, rng, carry, iteration, val_history = resume(path, model, ck.train_config)
    (back,) = loads

    assert (iteration, val_history) == (ck.iteration, ck.val_history)
    assert opt.step_count == ck.adam_step and opt.params is model.params
    assert rng.bit_generator.state == ck.rng_state
    owned = {f"param.{name}": t.data for name, t in model.params.items()}
    owned.update({f"adam.m.{name}": a for name, a in opt.m.items()})
    owned.update({f"adam.v.{name}": a for name, a in opt.v.items()})
    owned.update({f"carry.h{l}": t.data for l, t in enumerate(carry.h)})
    owned.update({f"carry.c{l}": t.data for l, t in enumerate(carry.c)})
    owned.update({"carry.prev_codes": carry.prev_codes, "carry.prev_cond": carry.prev_cond})
    assert len(owned) == len(ck.params) + len(ck.extra_arrays)
    for name, arr in owned.items():
        assert arr.flags.owndata and arr.flags.writeable, name
        stored = ck.params[name[len("param."):]] if name.startswith("param.") else ck.extra_arrays[name]
        assert arr.dtype == stored.dtype and np.array_equal(arr, stored), name
        loaded = back.params[name[len("param."):]] if name.startswith("param.") else back.extra_arrays[name]
        assert arr is loaded, name  # adopted, not copied
    for name, t in model.params.items():  # trainable, with a zeroed gradient
        assert t.requires_grad and t.grad.shape == t.data.shape and not t.grad.any(), name


def test_resume_takes_the_files_dtype(tmp_path):
    """A float64 run resumed through a float32 carrier continues in float64
    and equals its uninterrupted run."""
    train = quantize(make_tone(60.0, 4 * 64 / 16000.0), 16).reshape(4, 64)

    def config(n):
        return TrainConfig(batch_size=2, tbptt_len=16, lr=2e-3, max_iterations=n,
                           checkpoint_every=3, validate_every=1, seed=5)

    straight = init_params(toy_config(seed=33), dtype=np.float64)
    res = train_loop(straight, config(6), train, train[:1], str(tmp_path / "a"))
    carrier = init_params(toy_config(seed=33))  # float32
    resumed = train_loop(carrier, config(6), train, train[:1], str(tmp_path / "b"),
                         resume_from=checkpoint_path(tmp_path / "a", 3))  # mid-chunk
    assert [(m.iteration, m.train_bits, m.val_bits) for m in resumed.metrics] == [
        (m.iteration, m.train_bits, m.val_bits) for m in res.metrics[3:]]
    assert carrier.dtype == np.float64
    for name, t in straight.params.items():
        assert carrier.params[name].data.tobytes() == t.data.tobytes(), name
    a, b = (open(checkpoint_path(tmp_path / d, 6), "rb").read() for d in "ab")
    assert a == b


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_capture_writes_the_carry_table(cell):
    model = init_params(toy_config(seed=21, cell=cell))
    codes = np.arange(32).reshape(2, 16) % model.config.q_levels
    warm = model.forward_logits(codes, model.initial_state(2)).state.detached()
    ck = Checkpoint.capture(model, TrainConfig(batch_size=2, tbptt_len=16), 1, Adam(model.params),
                            np.random.Generator(np.random.PCG64(0)), [], warm)
    carry = {name: a for name, a in ck.extra_arrays.items() if name.startswith("carry.")}
    table = carry_shapes(model.config, 2, model.dtype)
    assert list(carry) == [f"carry.{name}" for name in table]
    for name, (shape, dtype) in table.items():
        assert carry[f"carry.{name}"].shape == shape, name
        assert carry[f"carry.{name}"].dtype == dtype, name


def test_corrupted_byte_is_rejected(tmp_path):
    _, ck = fresh_checkpoint()
    path = checkpoint_path(tmp_path, 40)
    save_checkpoint(path, ck)
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert "checksum" in str(err.value)


def test_truncated_file_is_rejected(tmp_path):
    _, ck = fresh_checkpoint()
    path = checkpoint_path(tmp_path, 40)
    save_checkpoint(path, ck)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[: len(raw) // 3])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "nope.srnn"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert "magic" in str(err.value)


def test_version_mismatch_is_explicit(tmp_path):
    # the previous format version and an unknown one
    _, ck = fresh_checkpoint()
    path = checkpoint_path(tmp_path, 40)
    save_checkpoint(path, ck)
    saved = open(path, "rb").read()
    for found in (VERSION - 1, 99):
        raw = bytearray(saved)
        raw[8:12] = found.to_bytes(4, "little")  # rewrite the version field
        # recompute the checks so only the version check can fail
        open(path, "wb").write(reseal(raw))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert f"version {found} unsupported (expected {VERSION})" in str(err.value)


@pytest.mark.parametrize("dtype", ["<i4", ">i4", "u1", "?", "<f2"])
def test_unsupported_dtype_is_rejected(tmp_path, dtype):
    _, ck = fresh_checkpoint()
    ck.extra_arrays["carry.bad"] = np.zeros(3, dtype=dtype)
    with pytest.raises(CheckpointError, match="for record 'carry.bad'"):
        save_checkpoint(checkpoint_path(tmp_path, 40), ck)
    assert list(tmp_path.iterdir()) == []


def test_resume_equivalence(tmp_path):
    """Loss at iteration k+1..n is identical whether or not training was
    interrupted by a save/load at k (including mid-chunk k)."""
    wave = make_tone(60.0, 4 * 64 / 16000.0)
    train = quantize(wave, 16).reshape(4, 64)
    val = train[:1]

    def config(n):
        return TrainConfig(batch_size=2, tbptt_len=16, lr=2e-3, max_iterations=n,
                           checkpoint_every=3, validate_every=1, seed=5)

    model_a = init_params(toy_config(seed=33))
    res_a = train_loop(model_a, config(9), train, val, str(tmp_path / "a"))
    bits_a = [(m.iteration, m.train_bits, m.val_bits) for m in res_a.metrics]

    # interrupted twin: run to 3 (checkpoint is mid-chunk: 4 segments/chunk),
    # then resume to 9 from the file
    model_b = init_params(toy_config(seed=33))
    train_loop(model_b, config(3), train, val, str(tmp_path / "b"))
    model_c = model_from_checkpoint(load_checkpoint(checkpoint_path(tmp_path / "b", 3)))
    res_c = train_loop(model_c, config(9), train, val, str(tmp_path / "b"),
                       resume_from=checkpoint_path(tmp_path / "b", 3))
    bits_c = [(m.iteration, m.train_bits, m.val_bits) for m in res_c.metrics]

    assert bits_c == bits_a[3:]
    for name, t in model_a.params.items():
        assert np.array_equal(t.data, model_c.params[name].data), name


def test_generation_from_saved_equals_live_model(tmp_path):
    model, ck = fresh_checkpoint()
    path = checkpoint_path(tmp_path, 40)
    save_checkpoint(path, ck)
    rebuilt = model_from_checkpoint(load_checkpoint(path))
    cfg = GenConfig(n_seq=2, clip_seconds=0.01, seed=4)
    live = generate_batch(model, cfg)
    loaded = generate_batch(rebuilt, cfg)
    for a, b in zip(live, loaded):
        assert np.array_equal(a.samples, b.samples)


ITEMSIZE = {1: 4, 2: 8, 3: 8}  # by dtype tag


def layout(raw):
    """(end of the text header, [(name, start, payload start, check start)]
    per record) of a checkpoint file's bytes; the header's check starts at
    the end of the text header, and a record ends 8 bytes after its check
    starts."""
    (n,) = struct.unpack_from("<Q", raw, 12)
    records, pos = [], 20 + n + 8
    while pos < len(raw):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        tag, ndim = raw[pos + 4 + name_len], raw[pos + 5 + name_len]
        payload = pos + 6 + name_len + 8 * ndim
        shape = struct.unpack_from(f"<{ndim}Q", raw, payload - 8 * ndim)
        check = payload + math.prod(shape) * ITEMSIZE[tag]
        records.append((bytes(raw[pos + 4 : pos + 4 + name_len]).decode(), pos, payload, check))
        pos = check + 8
    return 20 + n, records


def reseal(raw):
    """The file's bytes with the header's and every record's check recomputed."""
    raw = bytearray(raw)
    header_end, records = layout(raw)
    raw[header_end : header_end + 8] = hashlib.sha256(raw[:header_end]).digest()[:8]
    for _, start, _, check in records:
        raw[check : check + 8] = hashlib.sha256(raw[start:check]).digest()[:8]
    return bytes(raw)


def rewrite_header(path, key, value):
    """Set one header line (drop it when value is None) and re-seal the checks."""
    raw = open(path, "rb").read()
    (n,) = struct.unpack("<Q", raw[12:20])
    text = raw[20 : 20 + n].decode()
    lines = [l for l in text.splitlines() if l.partition("=")[0] != key]
    if value is not None:
        lines.append(f"{key}={value}")
    header = ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")
    body = raw[:12] + struct.pack("<Q", len(header)) + header + raw[20 + n :]
    open(path, "wb").write(reseal(body))


@pytest.mark.parametrize("key, value, what", [
    ("model.hidden_dim", "8x", "bad value for model.hidden_dim: '8x'"),
    ("model.hidden_dim", "6\udcff4", "bad value for model.hidden_dim: '6\ufffd4'"),
    ("model.weight_norm", "yes", "bad value for model.weight_norm: 'yes'"),
    ("model.cell", "foo", "cell must be lstm or gru, got 'foo'"),
    ("train.lr", "fast", "bad value for train.lr: 'fast'"),
    ("train.seed", None, "missing config key(s) train.seed"),
    ("iteration", "three", "header iteration='three' is not valid"),
    ("iteration", None, "header missing iteration"),
    ("adam.step", "1.5", "header adam.step='1.5' is not valid"),
    ("rng.inc", "x", "header rng.inc='x' is not valid"),
    ("rng.uinteger", "-1", "header rng.* is not a PCG64 state"),
    ("val_history", "20:3.5,40", "header val_history='20:3.5,40' is not valid"),
    ("val_history", None, "header missing val_history"),
])
def test_bad_header_field_is_checkpoint_error(tmp_path, capsys, key, value, what):
    _, ck = fresh_checkpoint()
    path = checkpoint_path(tmp_path, 40)
    save_checkpoint(path, ck)
    rewrite_header(path, key, value)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ") and what in str(err.value)
    rc = main(["generate", "--ckpt", path, "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_resume_refuses_changed_model_config(tmp_path):
    wave = make_tone(60.0, 4 * 64 / 16000.0)
    train = quantize(wave, 16).reshape(4, 64)
    cfg = TrainConfig(batch_size=2, tbptt_len=16, max_iterations=2, checkpoint_every=2,
                      validate_every=0)
    train_loop(init_params(toy_config(seed=33)), cfg, train, train[:1], str(tmp_path))
    cfg.max_iterations = 4
    model = init_params(toy_config(seed=33, sample_rate=8000))
    with pytest.raises(ContractError) as err:
        train_loop(model, cfg, train, train[:1], str(tmp_path),
                   resume_from=checkpoint_path(tmp_path, 2))
    assert "model.sample_rate 16000 -> 8000" in str(err.value)
    assert not (tmp_path / "ckpt_00000004.srnn").exists()


def append_record(path, name, arr):
    """Add one float32 record after the last, count it in the header's
    records= line and re-seal the checks."""
    name_b = name.encode()
    record = struct.pack(f"<I{len(name_b)}sBB{arr.ndim}Q", len(name_b), name_b, 1, arr.ndim,
                         *arr.shape) + arr.astype("<f4").tobytes() + bytes(8)
    raw = open(path, "rb").read() + record
    open(path, "wb").write(raw)
    rewrite_header(path, "records", len(layout(raw)[1]))


def test_duplicate_record_is_checkpoint_error(tmp_path, capsys):
    _, ck = fresh_checkpoint()
    path = checkpoint_path(tmp_path, 40)
    shadow = dataclasses.replace(ck, extra_arrays={**ck.extra_arrays,
                                                   "param.embed": np.zeros_like(ck.params["embed"])})
    with pytest.raises(CheckpointError) as err:
        save_checkpoint(path, shadow)
    assert str(err.value) == f"{path}: extra record 'param.embed' would shadow a parameter"
    assert os.listdir(tmp_path) == []  # no file, not even a temp file

    save_checkpoint(path, ck)
    append_record(path, "param.embed", np.zeros_like(ck.params["embed"]))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: duplicate record 'param.embed'"
    rc = main(["generate", "--ckpt", path, "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"


@pytest.mark.parametrize("record, edit", [
    ("param.samp.h1.b", None),
    ("param.bogus", lambda _: np.zeros(3, np.float32)),
    ("param.embed", lambda a: a[:, :2]),
    ("param.samp.out.b", lambda a: a.astype(np.int64)),
    ("adam.m.embed", None),
    ("adam.v.samp.h2.v", lambda a: a[:3]),
    ("carry.h1", None),  # at 2 layers
    ("carry.prev_cond", lambda a: a[:, :, :7]),
], ids=["missing-param", "extra-param", "misshapen-param", "int64-param", "missing-adam.m",
        "misshapen-adam.v", "missing-carry.h1", "misshapen-carry.prev_cond"])
def test_bad_record_is_checkpoint_error(tmp_path, capsys, record, edit):
    _, ck = fresh_checkpoint()
    if record.startswith("param."):
        records, name = ck.params, record[len("param."):]
    else:
        records, name = ck.extra_arrays, record
    if edit is None:
        del records[name]
    else:
        records[name] = edit(records.get(name))
    path = checkpoint_path(tmp_path, 40)
    save_checkpoint(path, ck)  # a valid digest: only the record check can fail

    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    msg = str(err.value)
    assert msg.startswith(f"{path}: ") and repr(record) in msg
    rc = main(["generate", "--ckpt", path, "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {msg}\n"

    train = quantize(make_tone(60.0, 4 * 64 / 16000.0), 16).reshape(4, 64)
    cfg = dataclasses.replace(ck.train_config, max_iterations=42)
    with pytest.raises(CheckpointError) as err:
        train_loop(init_params(toy_config(seed=21)), cfg, train, train[:1], str(tmp_path / "r"),
                   resume_from=path)
    assert str(err.value) == msg


def assert_refused(path, tmp_path, capsys, phrase):
    """load_checkpoint raises a CheckpointError that names the file and says
    `phrase`, and `generate --ckpt` on the file exits 2 with its message."""
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    msg = str(err.value)
    assert msg.startswith(f"{path}: ") and phrase in msg, msg
    rc = main(["generate", "--ckpt", path, "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {msg}\n"
    return msg


@pytest.mark.parametrize("where", ["header", "param", "adam"])
def test_flipped_byte_fails_its_own_check(tmp_path, capsys, where):
    _, ck = fresh_checkpoint()
    path = checkpoint_path(tmp_path, 40)
    save_checkpoint(path, ck)
    raw = bytearray(open(path, "rb").read())
    header_end, records = layout(raw)
    if where == "header":
        at, phrase = header_end // 2, "checksum mismatch in the header"
    else:
        name, _, payload, check = next(r for r in records if r[0].startswith(where + "."))
        at, phrase = (payload + check) // 2, f"checksum mismatch in record {name!r}"
    raw[at] ^= 0x01
    open(path, "wb").write(bytes(raw))
    msg = assert_refused(path, tmp_path, capsys, phrase)

    train = quantize(make_tone(60.0, 4 * 64 / 16000.0), 16).reshape(4, 64)
    cfg = dataclasses.replace(ck.train_config, max_iterations=42)
    with pytest.raises(CheckpointError) as err:
        train_loop(init_params(toy_config(seed=21)), cfg, train, train[:1], str(tmp_path / "r"),
                   resume_from=path)
    assert str(err.value) == msg


def test_truncation_anywhere_is_refused(tmp_path, capsys):
    _, ck = fresh_checkpoint()
    path = checkpoint_path(tmp_path, 40)
    save_checkpoint(path, ck)
    raw = open(path, "rb").read()
    header_end, records = layout(raw)
    boundaries = [header_end + 8] + [check + 8 for _, _, _, check in records[:-1]]
    middles = [header_end // 2] + [(payload + check) // 2 for _, _, payload, check in records]
    assert len(boundaries) == len(ck.params) + len(ck.extra_arrays)
    for cut in boundaries + middles:
        open(path, "wb").write(raw[:cut])
        assert_refused(path, tmp_path, capsys, "truncated file")
    # bytes past the header's record count are refused too
    open(path, "wb").write(raw + bytes(8))
    assert_refused(path, tmp_path, capsys, "8 bytes after the header's")


@pytest.mark.parametrize("field", ["header length", "name length", "shape"])
def test_corrupted_length_allocates_nothing(tmp_path, capsys, field):
    _, ck = fresh_checkpoint()
    path = checkpoint_path(tmp_path, 40)
    save_checkpoint(path, ck)
    raw = bytearray(open(path, "rb").read())
    _, start, payload, _ = next(r for r in layout(raw)[1] if r[0] == "param.samp.out.b")
    if field == "header length":
        struct.pack_into("<Q", raw, 12, 2**40)
    elif field == "name length":
        struct.pack_into("<I", raw, start, 2**32 - 1)
    else:  # the record is 1-D: its one dimension becomes 2**40 elements
        struct.pack_into("<Q", raw, payload - 8, 2**40)
    open(path, "wb").write(bytes(raw))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated file"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(raw)
    assert_refused(path, tmp_path, capsys, "truncated file")


def test_unindexable_dimension_is_checkpoint_error(tmp_path, capsys):
    # a flipped ndim can read an empty shape with a dimension numpy cannot index
    _, ck = fresh_checkpoint()
    path = checkpoint_path(tmp_path, 40)
    save_checkpoint(path, ck)
    raw = bytearray(open(path, "rb").read())
    _, _, payload, _ = next(r for r in layout(raw)[1] if r[0] == "param.samp.out.b")
    raw[payload - 9 : payload] = struct.pack("<BQQ", 2, 2**63, 0)
    open(path, "wb").write(bytes(raw))
    assert_refused(path, tmp_path, capsys,
                   "record 'param.samp.out.b' has shape [9223372036854775808, 0]")


def test_model_adopts_its_records(tmp_path):
    model = init_params(toy_config(seed=21, hidden_dim=128))
    ck = Checkpoint.capture(model, TrainConfig(batch_size=2, tbptt_len=8), 3, Adam(model.params),
                            np.random.Generator(np.random.PCG64(0)), [], None)
    path = checkpoint_path(tmp_path, 3)
    save_checkpoint(path, ck)
    back = load_checkpoint(path)
    param_bytes = sum(arr.nbytes for arr in back.params.values())
    tracemalloc.start()
    try:
        rebuilt = model_from_checkpoint(back)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for name, arr in back.params.items():
        t = rebuilt.params[name]
        assert t.data is arr, name
        assert t.grad is None and not t.requires_grad, name  # an inference model
    assert peak < 0.05 * param_bytes, (peak, param_bytes)  # no gradient buffers


def test_read_error_is_checkpoint_error(tmp_path, monkeypatch, caplog):
    _, ck = fresh_checkpoint()
    path = checkpoint_path(tmp_path, 40)
    save_checkpoint(path, ck)

    class FailingReader(io.BufferedReader):
        def readinto(self, buf):
            if self.tell() > os.path.getsize(path) // 2:
                raise OSError(errno.EIO, "Input/output error")
            return super().readinto(buf)

    def failing_open(file, mode):
        return FailingReader(io.FileIO(file, mode))

    monkeypatch.setattr(samplernn.checkpoint, "open", failing_open, raising=False)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: [Errno 5] Input/output error"
    # the schedule skips the file instead of aborting the directory
    with pytest.raises(CheckpointError, match="no valid checkpoints"):
        checkpoint_generation_schedule(str(tmp_path), GenConfig(n_seq=1, clip_seconds=0.01),
                                       str(tmp_path / "o"))
    assert str(err.value) in caplog.text


def resume_run(tmp_path, train, stop, total, strip_carry=False):
    """Metrics and parameters of a run interrupted at `stop` and resumed from
    its checkpoint file to `total`; with strip_carry the carry.* records are
    removed from that file first."""
    def config(n):
        return TrainConfig(batch_size=2, tbptt_len=16, lr=2e-3, max_iterations=n,
                           checkpoint_every=0, validate_every=1, seed=5)

    first = tmp_path / f"first{stop}"
    train_loop(init_params(toy_config(seed=33)), config(stop), train, train[:1], str(first))
    path = checkpoint_path(first, stop)
    if strip_carry:
        ck = load_checkpoint(path)
        ck.extra_arrays = {k: a for k, a in ck.extra_arrays.items() if not k.startswith("carry.")}
        save_checkpoint(path, ck)
    model = model_from_checkpoint(load_checkpoint(path))
    res = train_loop(model, config(total), train, train[:1], str(tmp_path / f"rest{stop}"),
                     resume_from=path)
    return [(m.iteration, m.train_bits, m.val_bits) for m in res.metrics], model


@pytest.mark.parametrize("dtype", [np.int32, np.uint8])
def test_carry_codes_are_int64_whatever_the_training_codes(tmp_path, dtype):
    train = quantize(make_tone(60.0, 4 * 64 / 16000.0), 16).reshape(4, 64).astype(dtype)
    model = init_params(toy_config(seed=33))
    cfg = TrainConfig(batch_size=2, tbptt_len=16, lr=2e-3, max_iterations=6,
                      checkpoint_every=3, validate_every=1, seed=5)
    res = train_loop(model, cfg, train, train[:1], str(tmp_path / "a"))
    straight = [(m.iteration, m.train_bits, m.val_bits) for m in res.metrics]
    ck = load_checkpoint(checkpoint_path(tmp_path / "a", 3))
    assert ck.extra_arrays["carry.prev_codes"].dtype == np.int64
    resumed, model_c = resume_run(tmp_path, train, 3, 6)  # mid-chunk: 4 segments/chunk
    assert resumed == straight[3:]
    for name, t in model.params.items():
        assert np.array_equal(t.data, model_c.params[name].data), name


def test_resume_without_carry_refused_mid_chunk_exact_at_chunk_start(tmp_path):
    train = quantize(make_tone(60.0, 4 * 64 / 16000.0), 16).reshape(4, 64)
    with pytest.raises(ContractError) as err:
        resume_run(tmp_path, train, 3, 8, strip_carry=True)
    path = checkpoint_path(tmp_path / "first3", 3)
    assert str(err.value).startswith(f"{path}: ") and "iteration 3" in str(err.value)
    assert not (tmp_path / "rest3").exists() or not os.listdir(tmp_path / "rest3")

    model = init_params(toy_config(seed=33))
    cfg = TrainConfig(batch_size=2, tbptt_len=16, lr=2e-3, max_iterations=8,
                      checkpoint_every=0, validate_every=1, seed=5)
    res = train_loop(model, cfg, train, train[:1], str(tmp_path / "straight"))
    straight = [(m.iteration, m.train_bits, m.val_bits) for m in res.metrics]
    resumed, model_c = resume_run(tmp_path, train, 4, 8, strip_carry=True)  # a chunk starts at 4
    assert resumed == straight[4:]
    for name, t in model.params.items():
        assert np.array_equal(t.data, model_c.params[name].data), name
