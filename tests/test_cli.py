import gc
import os
import struct

import numpy as np
import pytest

from samplernn import audio, cli
from samplernn.audio import AudioBuffer
from samplernn.cli import main
from samplernn.config import KEY_TYPES, build_run_config, load_config_file
from samplernn.errors import ConfigError
from samplernn.gradcheck import GradCheckReport
from samplernn.training import ChunkDataset, TrainResult

from conftest import make_tone


# -- config machinery ----------------------------------------------------------


def test_config_file_parses_namespaced_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "model.n_layers = 3\n"
        "model.cell = gru   # inline comment\n"
        "train.lr = 0.0005\n"
    )
    run = build_run_config(config_file=str(path))
    assert run.model.n_layers == 3
    assert run.model.cell == "gru"
    assert run.train.lr == 0.0005


def test_unknown_key_is_hard_error(tmp_path):
    path = tmp_path / "run.cfg"
    # gen.* and paths.* are not config sections: nothing would read them
    for key in ("model.layers", "gen.n_seq", "paths.manifest"):
        path.write_text(f"{key} = 3\n")
        with pytest.raises(ConfigError):
            load_config_file(str(path))


def test_bad_value_is_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("train.lr = fast\n")
    with pytest.raises(ConfigError):
        build_run_config(config_file=str(path))


def test_paper_preset_values():
    run = build_run_config(preset="paper")
    m, t = run.model, run.train
    assert (m.n_layers, m.cell, m.hidden_dim, m.embed_size, m.q_levels) == (
        5, "lstm", 1024, 256, 256)
    assert t.batch_size == 128


def test_desk_preset_values():
    run = build_run_config(preset="desk")
    m, t = run.model, run.train
    assert (m.n_layers, m.hidden_dim, m.embed_size, m.frame_size) == (1, 64, 16, 4)
    assert t.batch_size == 8


def test_overrides_beat_file_and_preset(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("model.n_layers = 2\n")
    run = build_run_config(preset="paper", config_file=str(path),
                           overrides={"model.n_layers": 7})
    assert run.model.n_layers == 7


def test_typed_overrides_go_through_the_echo_format():
    run = build_run_config(overrides={"model.weight_norm": False, "train.lr": 0.25})
    assert run.model.weight_norm is False and run.train.lr == 0.25


def test_echo_lines_cover_every_key():
    run = build_run_config(preset="desk")
    lines = run.echo_lines()
    keys = [line.split("=")[0] for line in lines]
    assert keys == list(KEY_TYPES)
    assert len(keys) == 23
    assert {k.split(".")[0] for k in keys} == {"model", "train"}


# -- CLI flows -------------------------------------------------------------------


@pytest.fixture
def corpus(tmp_path):
    rate = 16000
    cdir = tmp_path / "corpus"
    cdir.mkdir()
    audio.write_wav(AudioBuffer(make_tone(300.0, 12.0, rate), rate), cdir / "a.wav")
    return cdir


def test_chunk_prints_split_sizes(corpus, tmp_path, capsys):
    manifest = tmp_path / "m.tsv"
    rc = main(["chunk", "--corpus-dir", str(corpus), "--manifest", str(manifest),
               "--chunk-seconds", "1", "--ratios", "0.6,0.2,0.2", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "train=8 test=2 val=2" in out


def test_chunk_empty_dir_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["chunk", "--corpus-dir", str(empty), "--manifest", str(tmp_path / "m.tsv")])
    assert rc == 2
    assert "empty-corpus" in capsys.readouterr().err


def test_chunk_rerun_same_seed_identical_bytes(corpus, tmp_path):
    m1, m2 = tmp_path / "m1.tsv", tmp_path / "m2.tsv"
    args = ["--corpus-dir", str(corpus), "--chunk-seconds", "1", "--seed", "11"]
    main(["chunk", "--manifest", str(m1)] + args)
    main(["chunk", "--manifest", str(m2)] + args)
    assert m1.read_bytes() == m2.read_bytes()


def test_split_reassigns(corpus, tmp_path, capsys):
    manifest = tmp_path / "m.tsv"
    main(["chunk", "--corpus-dir", str(corpus), "--manifest", str(manifest),
          "--chunk-seconds", "1", "--seed", "1"])
    rc = main(["split", "--manifest", str(manifest), "--ratios", "0.5,0.25,0.25",
               "--seed", "2"])
    assert rc == 0
    assert "train=6 test=3 val=3" in capsys.readouterr().out


TOY = ["--layers", "1", "--dim", "8", "--embed", "4", "--frame", "2",
       "--q-levels", "16", "--batch", "2", "--tbptt", "8"]


def train_toy(corpus, tmp_path, extra=()):
    manifest = tmp_path / "m.tsv"
    main(["chunk", "--corpus-dir", str(corpus), "--manifest", str(manifest),
          "--chunk-seconds", "1", "--ratios", "0.6,0.2,0.2", "--seed", "3"])
    ckdir = tmp_path / "ck"
    rc = main(["train", "--manifest", str(manifest), "--ckpt-dir", str(ckdir),
               *TOY, "--iters", "4", "--checkpoint-every", "2",
               "--validate-every", "2", "--seed", "0", *extra])
    return rc, ckdir, manifest


def test_train_writes_metrics_and_checkpoints(corpus, tmp_path):
    rc, ckdir, _ = train_toy(corpus, tmp_path)
    assert rc == 0
    names = sorted(os.listdir(ckdir))
    assert "ckpt_00000002.srnn" in names and "ckpt_00000004.srnn" in names
    log = (ckdir / "metrics.log").read_text().splitlines()
    assert any(line.startswith("# model.n_layers=1") for line in log)
    assert any(line.startswith("iter=2 ") for line in log)


def test_train_resume_matches_straight_run(corpus, tmp_path, capsys):
    rc, ckdir, manifest = train_toy(corpus, tmp_path)
    straight = (ckdir / "metrics.log").read_text().splitlines()
    ckdir2 = tmp_path / "ck2"
    main(["train", "--manifest", str(manifest), "--ckpt-dir", str(ckdir2), *TOY,
          "--iters", "2", "--checkpoint-every", "2", "--validate-every", "2", "--seed", "0"])
    rc = main(["train", "--manifest", str(manifest), "--ckpt-dir", str(ckdir2), *TOY,
               "--iters", "4", "--checkpoint-every", "2", "--validate-every", "2",
               "--seed", "0", "--resume", str(ckdir2 / "ckpt_00000002.srnn"),
               "--metrics", str(tmp_path / "resumed.log")])
    assert rc == 0
    resumed = (tmp_path / "resumed.log").read_text().splitlines()
    tail = [l for l in straight if l.startswith("iter=4 ")]
    assert [l.rsplit(" secs=", 1)[0] for l in resumed] == [
        l.rsplit(" secs=", 1)[0] for l in tail
    ]


def test_generate_flag_mapping(corpus, tmp_path, capsys):
    _, ckdir, _ = train_toy(corpus, tmp_path)
    out = tmp_path / "wavs"
    rc = main(["generate", "--ckpt", str(ckdir / "ckpt_00000004.srnn"),
               "--out-dir", str(out), "--n-seq", "3", "--seconds", "0.2",
               "--argmax", "--seed", "5"])
    assert rc == 0
    wavs = sorted(f for f in os.listdir(out) if f.endswith(".wav"))
    assert wavs == ["ckpt4_seq0.wav", "ckpt4_seq1.wav", "ckpt4_seq2.wav"]
    for w in wavs:
        assert len(audio.read_wav(out / w)) == 3200  # 0.2 s at 16 kHz
    assert (out / "diagnostics.txt").exists()


def resume_toy_with(corpus, tmp_path, capsys, flag, value):
    """Train the toy run, then resume it with one flag changed; returns (rc, stderr)."""
    _, ckdir, manifest = train_toy(corpus, tmp_path)
    capsys.readouterr()
    toy = list(TOY)
    toy[toy.index(flag) + 1] = value
    rc = main(["train", "--manifest", str(manifest), "--ckpt-dir", str(ckdir), *toy,
               "--iters", "6", "--seed", "0", "--resume", str(ckdir / "ckpt_00000004.srnn")])
    return rc, capsys.readouterr().err


def test_resume_with_changed_batch_exit_2(corpus, tmp_path, capsys):
    rc, err = resume_toy_with(corpus, tmp_path, capsys, "--batch", "3")
    assert rc == 2
    assert "batch_size 2 -> 3" in err and "ckpt_00000004.srnn" in err


def test_resume_with_changed_model_flag_exit_2(corpus, tmp_path, capsys):
    rc, err = resume_toy_with(corpus, tmp_path, capsys, "--dim", "16")
    assert rc == 2
    assert "model.hidden_dim 8 -> 16" in err and "ckpt_00000004.srnn" in err


def test_refused_resume_writes_nothing(corpus, tmp_path, capsys):
    _, ckdir, manifest = train_toy(corpus, tmp_path)
    capsys.readouterr()
    toy = list(TOY)
    toy[toy.index("--dim") + 1] = "16"
    fresh = tmp_path / "fresh"
    rc = main(["train", "--manifest", str(manifest), "--ckpt-dir", str(fresh), *toy,
               "--iters", "6", "--seed", "0", "--resume", str(ckdir / "ckpt_00000004.srnn")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "model.hidden_dim 8 -> 16" in err
    assert not fresh.exists()


def test_resume_draws_no_model(corpus, tmp_path, monkeypatch):
    _, ckdir, manifest = train_toy(corpus, tmp_path)

    def no_init(*args, **kwargs):
        raise AssertionError("a resume drew a model")

    monkeypatch.setattr(cli, "init_params", no_init)
    rc = main(["train", "--manifest", str(manifest), "--ckpt-dir", str(ckdir), *TOY,
               "--iters", "6", "--seed", "0", "--resume", str(ckdir / "ckpt_00000004.srnn")])
    assert rc == 0
    assert (ckdir / "ckpt_00000006.srnn").exists()


def test_generate_ckpt_equals_ckpt_dir_of_that_checkpoint(corpus, tmp_path, capsys):
    _, ckdir, _ = train_toy(corpus, tmp_path)
    only = tmp_path / "only"
    only.mkdir()
    (only / "ckpt_00000004.srnn").write_bytes((ckdir / "ckpt_00000004.srnn").read_bytes())
    gen = ["--n-seq", "2", "--seconds", "0.2", "--seed", "7"]
    assert main(["generate", "--ckpt", str(only / "ckpt_00000004.srnn"),
                 "--out-dir", str(tmp_path / "one"), *gen]) == 0
    assert main(["generate", "--ckpt-dir", str(only), "--out-dir", str(tmp_path / "dir"), *gen]) == 0
    names = sorted(os.listdir(tmp_path / "one"))
    assert names == ["ckpt4_seq0.wav", "ckpt4_seq1.wav", "diagnostics.txt"]
    assert sorted(os.listdir(tmp_path / "dir")) == names
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "dir" / name).read_bytes()


HEADER = "#corpus_id=c seed=0 chunk_len=16000\n"


@pytest.mark.parametrize("text, line, what", [
    ("#corpus_id=c seed0 chunk_len=16000\n", 1, "'seed0' is not key=value"),
    ("#seed=0 chunk_len=16000\n", 1, "header lacks corpus_id"),
    ("#corpus_id=c seed=0 chunk_len=1s\n", 1, "chunk_len '1s' is not an integer"),
    ("corpus_id=c seed=0 chunk_len=16000\n", 1, "missing manifest header line"),
    (HEADER + "0\ta.wav\tzero\ttrain\n", 2, "offset_samples 'zero' is not an integer"),
    (HEADER + "0\ta.wav\t0\ttrain\nx\ta.wav\t0\ttrain\n", 3, "chunk_id 'x' is not an integer"),
    (HEADER + "0\ta.wav\t0\n", 2, "3 tab-separated fields, expected 4"),
    (HEADER + "0\ta.wav\t0\tholdout\n", 2, "bad split tag 'holdout'"),
    (HEADER + "0\ta\udcff.wav\t0\ttrain\n", 2, "not UTF-8 text (byte 0xff)"),
    ("#corpus_id=c seed=0 chunk_len=-4\n", 1, "chunk_len -4 is not positive"),
    ("#corpus_id=c seed=0 chunk_len=0\n", 1, "chunk_len 0 is not positive"),
])
def test_malformed_manifest_exit_2(tmp_path, capsys, text, line, what):
    manifest = tmp_path / "m.tsv"
    manifest.write_bytes(text.encode("utf-8", "surrogateescape"))
    rc = main(["split", "--manifest", str(manifest)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{manifest}:{line}: " in err and what in err


@pytest.mark.parametrize("flags, what", [
    (["--batch", "x"], "bad value for train.batch_size: 'x'"),
    (["--cell", "foo"], "cell must be lstm or gru, got 'foo'"),
    (["--config", "{cfg}"], "{cfg}:2: not UTF-8 text (byte 0xff)"),
])
def test_bad_train_config_exit_2(tmp_path, capsys, flags, what):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"model.n_layers = 2\ntrain.lr = 0.\xff1\n")
    rc = main(["train", "--manifest", str(tmp_path / "m.tsv"), "--ckpt-dir", str(tmp_path / "ck"),
               *[f.format(cfg=cfg) for f in flags]])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and what.format(cfg=cfg) in err


def test_generate_missing_checkpoint_exit_2(tmp_path, capsys):
    rc = main(["generate", "--ckpt", str(tmp_path / "nope.srnn"),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 2


def test_diagnose_exit_zero_despite_flags(tmp_path, capsys):
    rate = 16000
    rng = np.random.default_rng(0)
    noisy = tmp_path / "noise.wav"
    audio.write_wav(AudioBuffer(rng.uniform(-0.5, 0.5, rate * 3), rate), noisy)
    silent = tmp_path / "silence.wav"
    audio.write_wav(AudioBuffer(np.zeros(rate * 3), rate), silent)
    rc = main(["diagnose", str(noisy), str(silent)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("clip=noise.wav") and "white_noise_suspect" in out[0]
    assert out[1].startswith("clip=silence.wav") and out[1].endswith("flags=")


def test_diagnose_missing_file_exit_2(tmp_path):
    assert main(["diagnose", str(tmp_path / "missing.wav")]) == 2


def wav_bytes(tag=1, channels=1, rate=16000, bits=16, frames=4096):
    """A RIFF/WAVE file with the given fmt fields and silent data."""
    align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits)
    data = bytes(frames * align)
    return (b"RIFF" + struct.pack("<I", 20 + len(fmt) + len(data)) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)


BAD_WAVS = {
    "empty": b"",
    "not_riff": b"ID3\x03" + bytes(60),
    "riff_header_only": b"RIFF" + struct.pack("<I", 4) + b"WAVE",
    "truncated_fmt": wav_bytes()[:26],
    "zero_channels": wav_bytes(channels=0),
    "zero_width": wav_bytes(bits=0),
    "zero_rate": wav_bytes(rate=0),
    "float_tag": wav_bytes(tag=3, bits=32),
    "stereo": wav_bytes(channels=2),
    "eight_bit": wav_bytes(bits=8),
    "directory": None,
    "short_clip": wav_bytes(frames=3),  # diagnose only: chunk cuts no chunk from it
    "odd_data_length": wav_bytes()[:1001],
}


@pytest.mark.parametrize("command, case", [
    (command, case) for case in BAD_WAVS for command in ("diagnose", "chunk")
    if case != "short_clip" or command == "diagnose"
])
def test_malformed_wav_exit_2_naming_the_file(tmp_path, capsys, command, case):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    wav = corpus / f"{case}.wav"
    if BAD_WAVS[case] is None:
        wav.mkdir()
    else:
        wav.write_bytes(BAD_WAVS[case])
    if command == "diagnose":
        rc = main(["diagnose", str(wav)])
    else:
        rc = main(["chunk", "--corpus-dir", str(corpus), "--manifest", str(tmp_path / "m.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(wav) in err, err


def test_generate_defaults_are_ten_thirty_second_clips():
    from samplernn.cli import build_parser

    args = build_parser().parse_args(
        ["generate", "--ckpt", "x.srnn", "--out-dir", "o"])
    assert args.n_seq == 10
    assert args.seconds == 30.0
    assert args.temperature == 1.0
    assert not args.argmax


def test_gradcheck_cli_passes(capsys):
    rc = main(["gradcheck", "--tolerance", "1e-4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "131/131 parameter groups passed" in out


def test_gradcheck_cli_failed_group_exit_1(monkeypatch, capsys):
    reports = [GradCheckReport("affine", "w", 1e-9, 4, 1e-4),
               GradCheckReport("affine", "b", 1.0, 4, 1e-4)]
    monkeypatch.setattr(cli, "standard_checks", lambda tolerance, seed: reports)
    assert main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "1/2 parameter groups passed" in out


def test_train_releases_the_dataset_before_training(corpus, tmp_path, monkeypatch):
    # the dataset's cache holds every source file's samples; only the codes
    # should live through the run
    alive = []  # ChunkDataset count, once per train_loop call

    def stub(model, cfg, train_codes, val_codes, checkpoint_dir, **kwargs):
        gc.collect()
        alive.append(sum(isinstance(o, ChunkDataset) for o in gc.get_objects()))
        return TrainResult([], [], "none")

    monkeypatch.setattr(cli, "train_loop", stub)
    rc, _, _ = train_toy(corpus, tmp_path)
    assert rc == 0
    assert alive == [0]


def toy_checkpoint(tmp_path):
    """A freshly initialized TOY-sized model saved as ck/ckpt_00000004.srnn."""
    from samplernn.checkpoint import Checkpoint, checkpoint_path, save_checkpoint
    from samplernn.model import init_params
    from samplernn.training import Adam, TrainConfig

    from conftest import toy_config

    model = init_params(toy_config(n_layers=1, frame_size=2))
    path = checkpoint_path(tmp_path / "ck", 4)
    os.makedirs(tmp_path / "ck")
    save_checkpoint(path, Checkpoint.capture(
        model, TrainConfig(batch_size=2, tbptt_len=8), 4, Adam(model.params),
        np.random.Generator(np.random.PCG64(0)), [], None))
    return path


@pytest.mark.parametrize("argv, what", [
    ("generate --ckpt {ckpt} --out-dir {out} --seconds nan", "clip_seconds must be positive and finite, got nan"),
    ("generate --ckpt {ckpt} --out-dir {out} --seconds inf", "clip_seconds must be positive and finite, got inf"),
    ("generate --ckpt {ckpt} --out-dir {out} --temperature nan", "temperature must be positive and finite, got nan"),
    ("train --manifest {manifest} --ckpt-dir {out} --lr nan", "lr must be positive and finite, got nan"),
    ("train --manifest {manifest} --ckpt-dir {out} --validate-every -1", "validate_every must be >= 0, got -1"),
    ("train --manifest {manifest} --ckpt-dir {out} --iters 0", "max_iterations must be >= 1, got 0"),
    ("chunk --corpus-dir {corpus} --manifest {out}/m.tsv --chunk-seconds nan",
     "chunk_seconds must be positive and finite, got nan"),
    ("chunk --corpus-dir {corpus} --manifest {out}/m.tsv --ratios nan,0.5,0.5",
     "ratios must be positive, got (nan, 0.5, 0.5)"),
    ("diagnose {corpus}/a.wav --max-lag nan", "min_lag=0.25 max_lag=nan"),
    ("diagnose {corpus}/a.wav --min-lag 1.5 --max-lag 1", "min_lag=1.5 max_lag=1.0"),
])
def test_numeric_input_refused_by_its_owner_exit_2(corpus, tmp_path, capsys, argv, what):
    manifest = tmp_path / "m.tsv"
    main(["chunk", "--corpus-dir", str(corpus), "--manifest", str(manifest), "--chunk-seconds", "1"])
    capsys.readouterr()
    out = tmp_path / "out"
    argv = argv.format(ckpt=toy_checkpoint(tmp_path), out=out, manifest=manifest, corpus=corpus).split()
    if argv[0] == "train":  # the case's own flags come last, so they win
        argv[1:1] = [*TOY, "--iters", "2"]
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and what in err, err
    assert not out.exists()


@pytest.mark.parametrize("offset", [-1, 12 * 16000 - 15999])
def test_manifest_row_outside_its_source_exit_2(corpus, tmp_path, capsys, offset):
    wav = corpus / "a.wav"
    rows = [f"{k}\t{wav}\t{k * 16000}\t{tag}\n" for k, tag in enumerate(("validation", "test", "train"))]
    rows[2] = f"2\t{wav}\t{offset}\ttrain\n"
    manifest = tmp_path / "m.tsv"
    manifest.write_text(HEADER + "".join(rows))
    rc = main(["train", "--manifest", str(manifest), "--ckpt-dir", str(tmp_path / "ck"),
               *TOY, "--iters", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {wav}: chunk 2 spans samples [{offset}, {offset + 16000}), ")
    assert err.count("\n") == 1
    assert not (tmp_path / "ck").exists()


def test_source_at_another_rate_exit_2(tmp_path, capsys):
    cdir = tmp_path / "corpus"
    cdir.mkdir()
    wav = cdir / "a.wav"
    audio.write_wav(AudioBuffer(make_tone(300.0, 12.0, 8000), 8000), wav)
    manifest = tmp_path / "m.tsv"
    assert main(["chunk", "--corpus-dir", str(cdir), "--manifest", str(manifest),
                 "--chunk-seconds", "1", "--rate", "8000"]) == 0
    capsys.readouterr()
    rc = main(["train", "--manifest", str(manifest), "--ckpt-dir", str(tmp_path / "ck"),
               *TOY, "--iters", "2", "--rate", "16000"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {wav}: ") and err.count("\n") == 1
    assert "8000" in err and "16000" in err
    assert not (tmp_path / "ck").exists()


@pytest.mark.parametrize("source", ["--ckpt", "--ckpt-dir"])
def test_generate_refuses_clips_too_short_to_screen(tmp_path, capsys, source):
    path = toy_checkpoint(tmp_path)
    out = tmp_path / "out"
    rc = main(["generate", source, path if source == "--ckpt" else str(tmp_path / "ck"),
               "--out-dir", str(out), "--n-seq", "1", "--seconds", "0.1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "1600 samples" in err and "2048-sample" in err
    assert not out.exists()
