"""Byte-mutation fuzzing of every file the pipeline reads.

A seeded stdlib `random` stream overwrites, inserts, deletes and truncates
bytes of a small WAV, a manifest, a config file and a desk-preset
checkpoint; reading each mutant may succeed or fail, but only a
SampleRnnError or an OSError may escape.
"""

import pathlib
import random
import struct

import pytest

from samplernn import audio, checkpoint, config
from samplernn.diagnostics import diagnose_clip
from samplernn.errors import SampleRnnError
from samplernn.model import init_params, quantize
from samplernn.training import ChunkDataset, train_loop

from conftest import make_tone

CASES = 400
# inserted as a whole, so text fields turn into negative, NaN, split or empty values
TOKENS = [b"-", b"0", b"9", b"nan", b"inf", b".", b"\n", b"\t", b"=", b",", b":", b"#", b"\x00", b"\xff"]


def mutate(data, rnd):
    data = bytearray(data)
    for _ in range(rnd.randint(1, 3)):
        pos = rnd.randrange(len(data) + 1)
        op = rnd.randrange(4)
        if op == 0 and data:
            data[min(pos, len(data) - 1)] = rnd.randrange(256)
        elif op == 1:
            del data[pos : pos + rnd.randint(1, 16)]
        elif op == 2:
            data[pos:pos] = rnd.choice(TOKENS + [bytes(rnd.randrange(256) for _ in range(4))])
        else:
            del data[pos:]
    return bytes(data)


def reseal_header(raw, rnd):
    """The checkpoint with its text header mutated and its check recomputed,
    so the mutant reaches the header's parsers instead of its checksum."""
    prefix = struct.Struct("<8sIQ")
    magic, version, n = prefix.unpack_from(raw)
    text = mutate(raw[prefix.size : prefix.size + n], rnd)
    head = prefix.pack(magic, version, len(text)) + text
    return head + checkpoint._check(head) + raw[prefix.size + n + 8 :]


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    d = tmp_path_factory.mktemp("originals")
    rate = 16000
    wav = d / "a.wav"
    audio.write_wav(audio.AudioBuffer(make_tone(440.0, 0.3, rate), rate), wav)
    _, manifest = audio.chunk_corpus([wav], 0.05, rate)
    manifest = audio.split_dataset(manifest, (0.6, 0.2, 0.2), seed=0)
    audio.save_manifest(manifest, d / "m.tsv")
    cfg = d / "run.cfg"
    cfg.write_text("# desk run\nmodel.n_layers = 2\nmodel.cell = gru\ntrain.lr = 0.002\n"
                   "train.clip_norm = 1.0\ntrain.validate_every = 0\n")
    run = config.build_run_config("desk", overrides={
        "train.max_iterations": 1, "train.validate_every": 0, "train.checkpoint_every": 0})
    codes = quantize(make_tone(300.0, 8 * 512 / rate, rate)).reshape(8, 512)
    res = train_loop(init_params(run.model), run.train, codes, codes[:1], str(d / "ck"))
    return {"wav": wav, "manifest": d / "m.tsv", "config": cfg,
            "checkpoint": pathlib.Path(res.final_checkpoint)}


def read_wav_and_diagnose(path):
    diagnose_clip(audio.read_wav(path))


def read_manifest_and_codes(path):
    manifest = audio.load_manifest(path)
    ds = ChunkDataset(manifest, 256)
    for split in audio.SPLIT_TAGS:
        ds.codes(split)


def read_config(path):
    config.build_run_config(config_file=path)


def read_checkpoint(path):
    checkpoint.model_from_checkpoint(checkpoint.load_checkpoint(path))


READERS = {
    "wav": read_wav_and_diagnose,
    "manifest": read_manifest_and_codes,
    "config": read_config,
    "checkpoint": read_checkpoint,
}


@pytest.mark.parametrize("kind", list(READERS))
def test_mutated_inputs_raise_only_typed_errors(originals, tmp_path, kind):
    raw = open(originals[kind], "rb").read()
    READERS[kind](originals[kind])  # the original reads cleanly
    rnd = random.Random(f"fuzz-{kind}")
    path = tmp_path / originals[kind].name
    outcomes = {"ok": 0, "refused": 0}
    for case in range(CASES):
        resealed = kind == "checkpoint" and case % 2
        path.write_bytes(reseal_header(raw, rnd) if resealed else mutate(raw, rnd))
        try:
            READERS[kind](path)
            outcomes["ok"] += 1
        except (SampleRnnError, OSError):
            outcomes["refused"] += 1
        except Exception as exc:  # anything else is an untyped crash
            pytest.fail(f"{kind} case {case}: {type(exc).__name__}: {exc}")
    assert outcomes["refused"] > 0
