"""Truncated-BPTT training: Adam updates, gradient clipping, validation.

Chunks are grouped into fixed batches of rows; each row advances through its
chunk segment-by-segment in lockstep, with recurrent state carried across
segments (detached, so no gradient crosses a boundary) and reset to h0 at
chunk boundaries. The batch schedule is a pure function of (seed, group
index), which is what makes resuming from a checkpoint exact.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import autodiff as ad
from . import checkpoint as ckpt_io
from .audio import read_wav
from .config import RunConfig, TrainConfig, resume_changes  # noqa: F401 (re-export)
from .errors import ContractError, DivergenceError, RateMismatchError
from .model import ModelConfig, ModelState, carry_shapes, model_forward_nll, quantize

LN2 = float(np.log(2.0))


class Adam:
    """Bias-corrected Adam over a ParamStore, updating in place.

    Each parameter is walked in pieces of ad.BLOCK elements of its flat view,
    through two scratch buffers allocated once, so a step allocates nothing
    and each element sees the same operations in the same order as the plain
    formula. `moments` is (step count, m, v) to continue from, m and v
    adopted as they are; by default step 0 with zeroed moments.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, moments=None):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        if moments is None:
            m = {name: np.zeros_like(t.data) for name, t in params.items()}
            moments = 0, m, {name: np.zeros_like(a) for name, a in m.items()}
        self.step_count, self.m, self.v = moments
        self._scratch = np.empty((2, ad.BLOCK), dtype=np.float64)  # viewed per dtype

    def step(self):
        self.step_count += 1
        t = self.step_count
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        c1 = 1.0 - b1**t
        c2 = 1.0 - b2**t
        for name, p in self.params.items():
            scratch = self._scratch.view(p.dtype)
            flat = [a.reshape(-1) for a in (p.data, p.grad, self.m[name], self.v[name])]
            for i in range(0, p.data.size, ad.BLOCK):
                w, g, m, v = (a[i : i + ad.BLOCK] for a in flat)
                x, y = (s[: g.size] for s in scratch)
                m *= b1
                m += np.multiply(g, 1.0 - b1, out=x)
                v *= b2
                v += np.multiply(np.multiply(g, g, out=x), 1.0 - b2, out=x)
                np.multiply(lr, np.divide(m, c1, out=x), out=x)
                np.add(np.sqrt(np.divide(v, c2, out=y), out=y), eps, out=y)
                w -= np.divide(x, y, out=x)


def clip_gradients(params, clip_norm):
    """Scale all gradients so their global L2 norm is at most clip_norm.

    Returns the pre-clip norm.
    """
    total = 0.0
    for _, t in params.items():
        g = t.grad
        total += float(np.vdot(g, g))
    norm = float(np.sqrt(total))
    if clip_norm > 0 and norm > clip_norm:
        scale = clip_norm / norm
        for _, t in params.items():
            t.grad *= scale
    return norm


def tbptt_step(model, optimizer, codes, state, clip_norm=1.0, iteration=0):
    """One truncated-BPTT update over a [batch, tbptt_len] segment.

    Returns (loss in bits/sample, carried state detached from the graph).
    """
    model.params.zero_grad()
    out = model.forward_logits(codes, state)
    loss, _ = ad.softmax_cross_entropy(out.logits, out.targets)
    loss_val = float(loss.data)
    if not np.isfinite(loss_val):
        raise DivergenceError(f"non-finite loss at iteration {iteration}", iteration)
    ad.backward(loss)
    clip_gradients(model.params, clip_norm)
    optimizer.step()
    return loss_val / LN2, out.state.detached()


def validate(model, chunks, segment_len=2048, max_rows=32):
    """Teacher-forced NLL in bits/sample over validation chunks.

    No parameter updates; state resets at every chunk. Chunks are cut to
    whole frames and walked segment-by-segment with carried state, so the
    result equals a whole-chunk pass. Evaluates model.folded(), so weight
    norm runs once per pass, not once per segment.
    """
    codes = np.asarray(chunks)
    if codes.ndim != 2 or codes.shape[0] == 0:
        raise ContractError("validation split is empty")
    fs = model.config.frame_size
    codes = codes[:, : codes.shape[1] - codes.shape[1] % fs]
    if codes.shape[1] < 2 * fs:
        raise ContractError("validation chunks shorter than two frames")
    model = model.folded()
    seg = max(fs * 2, segment_len - segment_len % fs)
    # fixed stream keeps randomized-h0 validation a pure function
    rng = np.random.Generator(np.random.PCG64(0))
    total_nats = 0.0
    for row0 in range(0, codes.shape[0], max_rows):
        block = codes[row0 : row0 + max_rows]
        state = model.initial_state(block.shape[0], rng=rng)
        for pos in range(0, block.shape[1], seg):
            piece = block[:, pos : pos + seg]
            n_pred = block.shape[0] * (piece.shape[1] - (0 if state.warm else fs))
            bits, state = model_forward_nll(model, piece, state)
            total_nats += bits * LN2 * n_pred
    return total_nats / (codes.shape[0] * (codes.shape[1] - fs)) / LN2


@dataclass
class ChunkDataset:
    """Quantized chunk codes per split, read from the manifest's sources,
    each of which must be at the model's sample rate."""

    manifest: object
    q_levels: int
    sample_rate: int = ModelConfig.sample_rate

    def codes(self, split):
        """[n_chunks, chunk_len] int64 codes for one split, in chunk-id order,
        quantized straight into one preallocated array. A source file is
        read when its first row comes up and dropped when the next file
        starts, which for a manifest chunk_corpus wrote reads each file
        once; a source at another rate raises RateMismatchError, and a row
        whose span leaves its source raises ContractError.
        """
        ids = set(self.manifest.split_ids(split))
        entries = [e for e in self.manifest.entries if e.chunk_id in ids]
        clen = self.manifest.chunk_length_samples
        out = np.empty((len(entries), clen), dtype=np.int64)
        path = wav = None
        for row, e in zip(out, entries):
            if e.source_file != path:
                path, wav = e.source_file, None  # drop the last file first
                wav = read_wav(path)
                if wav.sample_rate != self.sample_rate:
                    raise RateMismatchError(
                        f"{path}: sample rate {wav.sample_rate}, but the model's is {self.sample_rate}"
                    )
            start, end = e.offset_samples, e.offset_samples + clen
            if start < 0 or end > wav.samples.size:
                raise ContractError(
                    f"{path}: chunk {e.chunk_id} spans samples [{start}, {end}), "
                    f"outside the file's {wav.samples.size}"
                )
            row[:] = quantize(wav.samples[start:end], self.q_levels)
        return out


def group_chunk_ids(seed, group, batch_size, n_chunks):
    """Chunk ids for one lockstep batch group.

    Groups consume an endless stream of per-epoch permutations (sampling
    without replacement within an epoch); pure in (seed, group), so any
    group can be reconstructed without replaying the stream.
    """
    first = group * batch_size
    out = []
    for k in range(first, first + batch_size):
        epoch, pos = divmod(k, n_chunks)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, epoch])))
        out.append(int(rng.permutation(n_chunks)[pos]))
    return np.asarray(out)


@dataclass
class MetricsRecord:
    iteration: int
    train_bits: float
    val_bits: float
    seconds: float
    epoch: float

    def line(self):
        return (
            f"iter={self.iteration} train_bits={self.train_bits:.4f} "
            f"val_bits={self.val_bits:.4f} secs={self.seconds:.1f}"
        )


@dataclass
class TrainResult:
    checkpoint_paths: list
    metrics: list
    final_checkpoint: str


def resume(path, model, cfg):
    """Turn the checkpoint at path into the training run it holds, refusing
    one whose config differs from (model.config, cfg). The param, adam and
    carry records become model.params (trainable, in the file's float dtype),
    Adam's moments and the carried state as loaded, and nothing is drawn.
    Returns (optimizer, rng, carried ModelState or None, iteration, val history)."""
    ck = ckpt_io.load_checkpoint(path)
    changed = resume_changes(RunConfig(ck.model_config, ck.train_config), RunConfig(model.config, cfg))
    if changed:
        raise ContractError(f"{path}: cannot resume with a changed config: {', '.join(changed)}")
    model.params = ckpt_io.param_store(ck, trainable=True)
    ex = ck.extra_arrays
    m, v = ({name: ex[f"adam.{k}.{name}"] for name, _ in model.params.items()} for k in "mv")
    optimizer = Adam(model.params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps, (ck.adam_step, m, v))
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = ck.rng_state
    names = carry_shapes(ck.model_config, cfg.batch_size, model.dtype)
    carry = {name: ex.get(f"carry.{name}") for name in names}  # the load passes it whole or not at all
    state = None if carry["prev_codes"] is None else ModelState.from_arrays(ck.model_config, carry)
    return optimizer, rng, state, ck.iteration, ck.val_history


def train_loop(
    model,
    cfg,
    train_codes,
    val_codes,
    checkpoint_dir,
    metrics_path=None,
    header_lines=(),
    resume_from=None,
    on_checkpoint=None,
):
    """Run TBPTT training to cfg.max_iterations, checkpointing on the way.

    train_codes/val_codes: [n_chunks, chunk_len] int arrays. A metrics line
    is appended every validate_every iterations; a checkpoint is written
    every checkpoint_every iterations and once more at the end. Divergence
    aborts with the last-good checkpoint path attached. A resume takes its
    run from `resume`, and model ends holding the checkpoint's parameters,
    trained on; one with no carried state is refused inside a chunk.
    checkpoint_dir is made only once set-up passes.
    """
    fs = model.config.frame_size
    if cfg.tbptt_len % fs:
        raise ContractError(f"tbptt_len {cfg.tbptt_len} not divisible by frame_size {fs}")
    if train_codes.shape[0] == 0:
        raise ContractError("train split is empty")
    chunk_len = train_codes.shape[1]
    segs_per_chunk = chunk_len // cfg.tbptt_len
    if segs_per_chunk == 0:
        raise ContractError(
            f"chunk length {chunk_len} shorter than tbptt_len {cfg.tbptt_len}"
        )
    samples_per_iter = cfg.batch_size * cfg.tbptt_len
    corpus_samples = train_codes.size

    if resume_from is None:
        optimizer = Adam(model.params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        state, start_iter, val_history = None, 0, []
    else:
        optimizer, rng, state, start_iter, val_history = resume(resume_from, model, cfg)
        if state is None and start_iter % segs_per_chunk:
            raise ContractError(
                f"{resume_from}: no carried state for iteration {start_iter}, "
                "inside a chunk; a resume without it would not reproduce the run"
            )
    os.makedirs(checkpoint_dir, exist_ok=True)

    metrics = []
    checkpoint_paths = []
    last_good = resume_from
    t0 = time.monotonic()
    train_bits_acc = []
    group = None
    group_codes = None

    def write_metrics(rec):
        metrics.append(rec)
        if metrics_path:
            with open(metrics_path, "a", encoding="utf-8") as fh:
                fh.write(rec.line() + "\n")

    if metrics_path and start_iter == 0:
        with open(metrics_path, "w", encoding="utf-8") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write(f"# samples_per_iteration={samples_per_iter} corpus_samples={corpus_samples}\n")
            threads = " ".join(
                f"{k}={os.environ.get(k, 'unset')}" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
            )
            fh.write(
                f"# samplernn={__version__} numpy={np.__version__} {threads} "
                f"heap_policy={ad.HEAP_POLICY_APPLIED}\n"
            )

    for it in range(start_iter, cfg.max_iterations):
        g, s = divmod(it, segs_per_chunk)
        if g != group:
            rows = group_chunk_ids(cfg.seed, g, cfg.batch_size, train_codes.shape[0])
            group_codes = train_codes[rows]
            group = g
            if s == 0:
                state = model.initial_state(cfg.batch_size, rng=rng)
        seg = group_codes[:, s * cfg.tbptt_len : (s + 1) * cfg.tbptt_len]
        try:
            bits, state = tbptt_step(
                model, optimizer, seg, state, cfg.clip_norm, iteration=it
            )
        except DivergenceError as exc:
            raise DivergenceError(str(exc), it, last_checkpoint=last_good) from exc
        train_bits_acc.append(bits)
        done = it + 1

        if cfg.validate_every and done % cfg.validate_every == 0:
            val_bits = validate(model, val_codes) if val_codes.shape[0] else float("nan")
            val_history.append((done, val_bits))
            rec = MetricsRecord(
                done,
                float(np.mean(train_bits_acc)),
                val_bits,
                time.monotonic() - t0,
                done * samples_per_iter / corpus_samples,
            )
            train_bits_acc = []
            write_metrics(rec)

        if (cfg.checkpoint_every and done % cfg.checkpoint_every == 0) or done == cfg.max_iterations:
            path = ckpt_io.checkpoint_path(checkpoint_dir, done)
            ckpt_io.save_checkpoint(
                path,
                ckpt_io.Checkpoint.capture(
                    model, cfg, done, optimizer, rng, val_history, state
                ),
            )
            checkpoint_paths.append(path)
            last_good = path
            if on_checkpoint:
                on_checkpoint(path, done)

    return TrainResult(checkpoint_paths, metrics, last_good)
