"""Batched autoregressive sampling from trained checkpoints.

All sequences in a batch advance in lockstep, one sample per step, but each
owns a counter-based RNG stream keyed by (seed, sequence index), so a
sequence's output never depends on how the batch is composed. Sampling runs
the model's folded form with every matrix product one row at a time, so a
row's logits are bitwise the same at any batch size, and one sampler call
per step draws every sequence's code. Priming is quantized silence.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .audio import AudioBuffer, write_wav
from .autodiff import Tensor
from .checkpoint import load_checkpoint, model_from_checkpoint
from .diagnostics import FLATNESS_WINDOW, diagnose_clip
from .errors import (
    CheckpointError,
    ContractError,
    GenerationMemoryError,
    NumericError,
)
from .model import dequantize, quantize

log = logging.getLogger("samplernn")

MODE_SOFTMAX = "softmax_sample"
MODE_ARGMAX = "argmax"


@dataclass
class GenConfig:
    n_seq: int = 10
    clip_seconds: float = 30.0
    temperature: float = 1.0
    mode: str = MODE_SOFTMAX
    seed: int = 0
    # generous desk-scale stand-in for a device memory limit
    memory_budget_bytes: int = 1 << 31

    def __post_init__(self):
        if self.n_seq < 1:
            raise ContractError(f"n_seq must be >= 1, got {self.n_seq}")
        # comparisons that NaN fails, so a NaN is refused with the rest
        if not 0 < self.clip_seconds < math.inf:
            raise ContractError(f"clip_seconds must be positive and finite, got {self.clip_seconds}")
        if not 0 < self.temperature < math.inf:
            raise ContractError(f"temperature must be positive and finite, got {self.temperature}")
        if self.mode not in (MODE_SOFTMAX, MODE_ARGMAX):
            raise ContractError(f"mode must be softmax_sample or argmax, got {self.mode!r}")

    def clip_samples(self, sample_rate):
        """Samples in one clip at sample_rate."""
        return int(round(self.clip_seconds * sample_rate))


def sequence_stream(seed, index):
    """Counter-based RNG stream for one sequence: Philox keyed (seed, index)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_categorical(logits, temperature, rng, argmax=False):
    """Draw codes from softmax(logits / temperature) by inverse CDF: an int
    for logits [Q] and one Generator, B codes for logits [B, Q] and B per-row
    Generators, bitwise those of B 1-D calls (float64, one random() per row
    in row order). Argmax mode ignores temperature, draws nothing and returns
    the smallest index attaining the maximum logit.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits in sampler")
    rows = np.atleast_2d(logits)
    if argmax:
        codes = np.argmax(rows, axis=1)
    else:
        z = rows / temperature
        cdf = np.cumsum(np.exp(z - z.max(axis=1, keepdims=True)), axis=1)
        u = np.array([g.random() for g in ([rng] if logits.ndim == 1 else rng)]) * cdf[:, -1]
        codes = np.minimum((cdf <= u[:, None]).sum(axis=1), rows.shape[1] - 1)
    return int(codes[0]) if logits.ndim == 1 else codes


def generate_batch(model, cfg):
    """Generate cfg.n_seq clips of cfg.clip_seconds in lockstep from model.folded().

    Returns a list of AudioBuffers, one per sequence, each of exactly
    clip_seconds*sample_rate samples.
    """
    mcfg = model.config
    fs = mcfg.frame_size
    n_samples = cfg.clip_samples(mcfg.sample_rate)
    if n_samples < 1:
        raise ContractError("clip too short to generate")

    model = model.folded()
    est_bytes = sum(a.nbytes for a in model.params.arrays().values()) + cfg.n_seq * (
        (n_samples + fs) * 8  # int64 codes
        + (fs + 2 * mcfg.n_layers) * mcfg.hidden_dim * model.dtype.itemsize  # conditioning, state
        + n_samples * (8 + 4)  # float64 and float32 output copies
    )
    if est_bytes > cfg.memory_budget_bytes:
        raise GenerationMemoryError(
            f"batch of {cfg.n_seq} sequences needs ~{est_bytes} bytes "
            f"(budget {cfg.memory_budget_bytes}); reduce n_seq"
        )

    streams = [sequence_stream(cfg.seed, k) for k in range(cfg.n_seq)]
    argmax = cfg.mode == MODE_ARGMAX
    silence = quantize(0.0, mcfg.q_levels)
    codes = np.full((cfg.n_seq, fs + n_samples), silence, dtype=np.int64)

    with ad.no_grad(row_products=True):
        state = model.initial_state(cfg.n_seq, rng=streams)
        cond = np.zeros((cfg.n_seq, fs, mcfg.hidden_dim), dtype=model.dtype)
        for t in range(fs, fs + n_samples):
            k = t % fs
            if k == 0:  # a new frame of history is complete; advance the tier
                cond_t, state = model.frame_tier_forward(codes[:, t - fs : t], state)
                cond = cond_t.data.reshape(cfg.n_seq, fs, mcfg.hidden_dim)
            logits = model.sample_tier_forward(
                codes[:, t - fs : t], Tensor(cond[:, k])
            ).data
            codes[:, t] = sample_categorical(logits, cfg.temperature, streams, argmax=argmax)

    samples = dequantize(codes[:, fs:], mcfg.q_levels).astype(np.float32)
    return [AudioBuffer(samples[b], mcfg.sample_rate) for b in range(cfg.n_seq)]


def write_checkpoint_clips(path, cfg, out_dir):
    """Generate a batch from one checkpoint file, then write and screen it.

    Only the folded model is held while sampling: the checkpoint and the
    trained model are dropped once it is built. WAVs land in out_dir as
    ckpt<iter>_seq<k>.wav; one diagnostics line per clip is appended to
    out_dir/diagnostics.txt. Returns the reports in sequence order.
    """
    ck = load_checkpoint(path)
    n_samples = cfg.clip_samples(ck.model_config.sample_rate)
    if n_samples < FLATNESS_WINDOW:  # refused before anything is sampled or written
        raise ContractError(
            f"{path}: a clip of {cfg.clip_seconds}s is {n_samples} samples at "
            f"{ck.model_config.sample_rate} Hz, shorter than the {FLATNESS_WINDOW}-sample "
            "window that screens it; ask for more seconds"
        )
    model, iteration = model_from_checkpoint(ck).folded(), ck.iteration
    del ck
    clips = generate_batch(model, cfg)
    os.makedirs(out_dir, exist_ok=True)
    reports = []
    with open(os.path.join(out_dir, "diagnostics.txt"), "a", encoding="utf-8") as fh:
        for k, clip in enumerate(clips):
            name = f"ckpt{iteration}_seq{k}.wav"
            write_wav(clip, os.path.join(out_dir, name))
            report = diagnose_clip(clip, name)
            reports.append(report)
            fh.write(report.line() + "\n")
    return reports


def checkpoint_generation_schedule(ckpt_dir, cfg, out_dir):
    """Generate clips and diagnostics for every checkpoint in a directory.

    Files are walked in name order, which for train_loop's zero-padded
    ckpt_<iteration>.srnn names is iteration order, through
    write_checkpoint_clips, so one model is in memory at a time. Unreadable
    files are skipped with a warning. The reports are returned in file order.
    """
    reports = []
    for name in sorted(f for f in os.listdir(ckpt_dir) if f.endswith(".srnn")):
        path = os.path.join(ckpt_dir, name)
        try:
            reports += write_checkpoint_clips(path, cfg, out_dir)
        except CheckpointError as exc:
            log.warning("skipping unreadable checkpoint %s: %s", path, exc)
    if not reports:
        raise CheckpointError(f"no valid checkpoints in {ckpt_dir}")
    return reports
