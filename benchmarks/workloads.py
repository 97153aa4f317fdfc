"""The benchmark's workloads and the pipeline each one runs.

Every workload runs the same user pipeline, sized differently: set up a
seeded corpus and a fresh model, train with `train_loop`, validate, save and
reload a checkpoint, generate one stream, then generate a batch. The sizes
decide which layer dominates. The benchmark reports every end-to-end metric
on every workload, so each phase runs at least once everywhere; the phases a
workload exists for get most of the time.

All calls go through the package's submodules (`audio.write_wav`, not
`samplernn.write_wav`) so that a traced run sees them.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import shutil
import time
from dataclasses import dataclass

import numpy as np

from samplernn import audio, checkpoint, config, diagnostics, generate, training
from samplernn import model as model_mod

SAMPLE_RATE = 16000
SPLIT_RATIOS = (0.96, 0.02, 0.02)  # a validation split of 1-2 chunks
UNIFORM_BITS = 8.0  # NLL of a uniform guess over 256 levels
# Work is sized for this many seconds on a 2-core x86 box; --seconds scales it.
NOMINAL_SECONDS = 20.0
# Fixed pitch set (semitones above A2): every seed gets the same tones,
# detuned and phased differently, so seeds change the data but not how hard
# it is to learn. Pure tones make the desk model confident within ~100 steps.
PITCHES = (0, 3, 5, 7, 10, 12)
NOISE_STD = 0.001
TONE_AMPLITUDE = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: dict
    corpus_seconds: float  # split evenly over len(PITCHES) files
    chunk_seconds: float
    iterations_per_second: float  # train_loop iterations per run second
    train_repeats: int  # train_loop calls from the same init, spread over the rounds; median reported
    two_checkpoints: bool  # checkpoint and validate at half and at the end
    repeats: int  # rounds of set-up, validate, save/load, stream and batch; medians reported
    setups_per_round: int  # timed again in each round, spread over the run
    ckpt_per_round: int  # save/load round trips per round
    clip_seconds: float
    batch_streams: int
    via_schedule: bool  # batch through checkpoint_generation_schedule
    beats_uniform: bool  # trains long enough that validation must beat UNIFORM_BITS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_train",
            preset="desk",
            overrides={},
            corpus_seconds=60.0,
            chunk_seconds=0.5,
            iterations_per_second=12.0,
            train_repeats=2,
            two_checkpoints=False,
            repeats=6,
            setups_per_round=2,
            ckpt_per_round=3,
            clip_seconds=0.128,
            batch_streams=2,
            via_schedule=True,
            beats_uniform=True,
        ),
        Workload(
            name="desk_generate",
            preset="desk",
            overrides={},
            corpus_seconds=60.0,
            chunk_seconds=0.5,
            iterations_per_second=4.0,
            train_repeats=3,
            two_checkpoints=True,
            repeats=6,
            setups_per_round=3,
            ckpt_per_round=3,
            clip_seconds=0.128,
            batch_streams=10,
            via_schedule=True,
            beats_uniform=True,
        ),
        Workload(
            name="paper_width",
            preset="paper",
            overrides={
                "model.n_layers": 2,
                "train.batch_size": 4,
                "train.tbptt_len": 128,
            },
            corpus_seconds=2.0,
            chunk_seconds=0.032,
            iterations_per_second=0.15,
            train_repeats=1,
            two_checkpoints=False,
            repeats=2,
            setups_per_round=7,
            ckpt_per_round=1,
            clip_seconds=0.002,
            batch_streams=4,
            via_schedule=False,
            beats_uniform=False,  # 3 steps from init; seeds land either side of 8 bits
        ),
    )
}


class Ops:
    """Operations attempted and failed; a failed check is a failed op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def attempt(self, n=1):
        self.attempted += n

    def check(self, ok, what):
        if not ok:
            self.failed += 1
            self.problems.append(what)


@dataclass
class Prepared:
    run: config.RunConfig
    model: model_mod.SampleRnnModel
    train_codes: np.ndarray
    val_codes: np.ndarray


@dataclass
class RunResult:
    metrics: dict
    fingerprint: tuple
    ops: Ops


def synth_corpus(seed, corpus_seconds, out_dir):
    """Write one tone-plus-noise WAV per pitch; returns the paths.

    The benchmark seed enters here only: the program sees the WAV files.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(round(corpus_seconds / len(PITCHES) * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    paths = []
    for k, semis in enumerate(PITCHES):
        freq = 110.0 * 2 ** (semis / 12) * 2 ** rng.uniform(-0.03, 0.03)
        x = TONE_AMPLITUDE * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        x += NOISE_STD * rng.standard_normal(n)
        path = os.path.join(out_dir, f"tone{k}.wav")
        audio.write_wav(audio.AudioBuffer(x.astype(np.float32), SAMPLE_RATE), path)
        paths.append(path)
    return paths


def scaled_iterations(wl, seconds):
    n = max(2, round(wl.iterations_per_second * seconds))
    return n + n % 2 if wl.two_checkpoints else n


def scaled_repeats(wl, seconds):
    return max(1, round(wl.repeats * seconds / NOMINAL_SECONDS))


def scaled_clip_seconds(wl, seconds):
    s = wl.clip_seconds * seconds / NOMINAL_SECONDS
    if wl.via_schedule:  # diagnostics need at least one flatness window
        s = max(s, diagnostics.FLATNESS_WINDOW / SAMPLE_RATE)
    return s


def run_config(wl, iterations):
    overrides = dict(wl.overrides, **{"train.max_iterations": iterations})
    if wl.two_checkpoints:
        overrides["train.checkpoint_every"] = iterations // 2
        overrides["train.validate_every"] = iterations // 2
    run = config.build_run_config(wl.preset, overrides=overrides)
    if run.train.validate_every > iterations:  # keep one loss record to check
        overrides["train.validate_every"] = iterations
        run = config.build_run_config(wl.preset, overrides=overrides)
    return run


def setup(wl, seed, work_dir, iterations):
    """Corpus synthesis, WAV write, chunking, split, codes and model init."""
    corpus_dir = os.path.join(work_dir, "corpus")
    os.makedirs(corpus_dir, exist_ok=True)
    files = synth_corpus(seed, wl.corpus_seconds, corpus_dir)
    _, manifest = audio.chunk_corpus(files, wl.chunk_seconds, SAMPLE_RATE)
    manifest = audio.split_dataset(manifest, SPLIT_RATIOS, 0)
    run = run_config(wl, iterations)
    dataset = training.ChunkDataset(manifest, run.model.q_levels)
    train_codes = dataset.codes("train")
    val_codes = dataset.codes("validation")
    return Prepared(run, model_mod.init_params(run.model), train_codes, val_codes)


def same_arrays(a, b):
    """Bitwise equality of two name -> array maps."""
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes()
        for k in a
    )


def clip_ok(samples, n_samples):
    return samples.size == n_samples and bool(np.all(np.abs(samples) <= 1.0))


def digest(arrays):
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def load_model(path):
    ck = checkpoint.load_checkpoint(path)
    return ck, checkpoint.model_from_checkpoint(ck)


def generate_clips(wl, model, cfg, ckpt_dir, out_dir, iteration):
    """Batched generation; returns {clip name: samples}.

    Through the schedule this is `generate --ckpt-dir`: every checkpoint in
    ckpt_dir is loaded and sampled, and its clips written and diagnosed.
    """
    if not wl.via_schedule:
        clips = generate.generate_batch(model, cfg)
        return {f"ckpt{iteration}_seq{k}": c.samples for k, c in enumerate(clips)}
    reports = generate.checkpoint_generation_schedule(ckpt_dir, cfg, out_dir)
    return {r.clip[: -len(".wav")]: audio.read_wav(os.path.join(out_dir, r.clip)).samples
            for r in reports}


def run_workload(wl, seed, seconds, work_dir, span, repeat=True):
    """Run one workload once; `span(name)` scopes each phase for a tracer.

    `repeat=False` sets up and trains once, without the repeats that only
    steady the timings. Returns end-to-end metrics, a fingerprint of every
    numeric result (for comparing a traced against an untraced run) and the
    operation counts.
    """
    ops = Ops()
    iterations = scaled_iterations(wl, seconds)
    setup_times = []

    def timed_setup():
        d = os.path.join(work_dir, f"setup{len(setup_times)}")
        t0 = time.perf_counter()
        with span("bench.setup"):
            prep = setup(wl, seed, d, iterations)
        setup_times.append(time.perf_counter() - t0)
        shutil.rmtree(d)  # the codes are in memory
        return prep

    prep = timed_setup()
    run, train_codes, val_codes = prep.run, prep.train_codes, prep.val_codes
    cfg = run.train
    clip_seconds = scaled_clip_seconds(wl, seconds)
    train_times, trainings = [], set()

    def timed_train(model, ckpt_dir):
        t0 = time.perf_counter()
        with span("bench.train"):
            result = training.train_loop(model, cfg, train_codes, val_codes, ckpt_dir)
        train_times.append(time.perf_counter() - t0)
        ops.attempt(iterations + len(result.metrics) + len(result.checkpoint_paths))
        trajectory = tuple((r.iteration, r.train_bits, r.val_bits) for r in result.metrics)
        trained = digest(model.params.arrays())
        trainings.add((trajectory, trained))
        return result, trajectory, trained

    ckpt_dir = os.path.join(work_dir, "ckpt")
    result, trajectory, trained = timed_train(prep.model, ckpt_dir)
    ops.check(bool(trajectory) and all(math.isfinite(x) for rec in trajectory for x in rec[1:]),
              "no training loss recorded, or a non-finite one")
    del prep

    copy_dir = os.path.join(work_dir, "copies")
    os.makedirs(copy_dir)
    with span("bench.checkpoint"):
        (ck, gen_model), load_s = timed(load_model, result.final_checkpoint)
    ops.attempt()
    ops.check(digest(gen_model.params.arrays()) == trained, "saved checkpoint differs from trained model")

    # Rounds interleave the phases, so that each metric's samples span the
    # run: on a shared host, speed shifts in episodes of seconds, and one
    # episode should not set a metric.
    n_samples = int(round(clip_seconds * SAMPLE_RATE))
    batch_cfg = generate.GenConfig(n_seq=wl.batch_streams, clip_seconds=clip_seconds, seed=0)
    times = {"val": [], "save": [], "load": [load_s], "stream": [], "batch": []}
    val_bits, streams, batches = [], [], []
    reps = scaled_repeats(wl, seconds)
    n_train = wl.train_repeats if repeat else 1
    retrain_at = {k * reps // n_train for k in range(1, n_train)}
    for r in range(reps):
        for _ in range(wl.setups_per_round if repeat else 0):
            timed_setup()  # discarded: timed only
        if r in retrain_at:  # the same init again, timed and checked, then discarded
            d = os.path.join(work_dir, f"retrain{r}")
            timed_train(model_mod.init_params(run.model), d)
            shutil.rmtree(d)

        with span("bench.validate"):
            bits, t = timed(training.validate, gen_model, val_codes)
        val_bits.append(bits)
        times["val"].append(t)

        with span("bench.checkpoint"):  # round trips, chained from train_loop's file
            for k in range(wl.ckpt_per_round):
                path = checkpoint.checkpoint_path(copy_dir, k)
                times["save"].append(timed(checkpoint.save_checkpoint, path, ck)[1])
                del gen_model
                (back, gen_model), t = timed(load_model, path)
                times["load"].append(t)
                ops.check(
                    same_arrays(back.params, ck.params) and same_arrays(back.extra_arrays, ck.extra_arrays)
                    and same_arrays(gen_model.params.arrays(), ck.params),
                    "checkpoint round trip not bitwise",
                )
                os.unlink(path)
                ck = back

        # one stream per generation seed; seed 0 must reappear as stream 0
        # of the final checkpoint's batch
        with span("bench.gen_stream"):
            gen_cfg = generate.GenConfig(n_seq=1, clip_seconds=clip_seconds, seed=r)
            clips, t = timed(generate.generate_batch, gen_model, gen_cfg)
        streams.append(clips[0].samples)
        times["stream"].append(t)

        with span("bench.gen_batch"):
            clips, t = timed(generate_clips, wl, gen_model, batch_cfg, ckpt_dir,
                             os.path.join(work_dir, f"clips{r}"), cfg.max_iterations)
        batches.append(clips)
        times["batch"].append(t)
    del ck, gen_model

    ops.attempt(reps * (2 + 2 * wl.ckpt_per_round) + sum(len(b) for b in batches))
    ops.check(len(trainings) == 1, "repeated training from the same init differs")
    ops.check(all(math.isfinite(b) for b in val_bits), "non-finite validation loss")
    if wl.beats_uniform:
        ops.check(val_bits[-1] < UNIFORM_BITS,
                  f"final validation {val_bits[-1]:.3f} bits not below {UNIFORM_BITS}")
    ops.check(all(clip_ok(c, n_samples) for c in streams), "single-stream clip has wrong length or range")
    ops.check(all(clip_ok(c, n_samples) for b in batches for c in b.values()),
              "batch clip has wrong length or range")
    ops.check(all(b.keys() == batches[0].keys() and same_arrays(b, batches[0]) for b in batches),
              "repeated batch generation differs")
    stream0 = batches[0][f"ckpt{cfg.max_iterations}_seq0"]
    ops.check(stream0.tobytes() == streams[0].tobytes(), "batch stream 0 differs from the single-stream clip")

    metrics = {
        "setup_s": float(np.median(setup_times)),
        "train_samples_per_s": iterations * cfg.batch_size * cfg.tbptt_len / float(np.median(train_times)),
        "val_s": float(np.median(times["val"])),
        "ckpt_save_s": float(np.median(times["save"])),
        "ckpt_load_s": float(np.median(times["load"])),
        "gen_stream_rtf": clip_seconds / float(np.median(times["stream"])),
        "gen_batch_samples_per_s": len(batches[0]) * n_samples / float(np.median(times["batch"])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    fingerprint = (trajectory, tuple(val_bits), trained,
                   digest({str(k): c for k, c in enumerate(streams)}), digest(batches[0]))
    return RunResult(metrics, fingerprint, ops)

