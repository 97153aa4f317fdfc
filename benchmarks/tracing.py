"""Span tracing from outside the package, and the per-layer metrics it yields.

`install(tracer)` wraps the public functions of `samplernn` where callers
look them up (a function imported by name into another module is patched in
that module too), plus every autodiff op and the backward closure of each
node an op returns. Spans are name, start, end and parent, kept in flat
arrays until the run ends. `SpanTable` turns them into self times and
contexts; `layer_metrics` reduces those to the benchmark's per-layer metrics.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from array import array

import numpy as np

from samplernn import audio, autodiff, checkpoint, diagnostics, generate, model, training

# Forward ops that every workload's training step runs; a per-step metric for
# an op some workload never calls would read 0 on every run.
STEP_OPS = (
    "matmul", "add", "mul", "add_bias", "affine", "sigmoid", "tanh", "relu",
    "concat", "narrow", "reshape", "embedding", "softmax_cross_entropy",
    "weight_norm_apply",
)
# every op that autodiff exports; all are traced, STEP_OPS are reported
ALL_OPS = STEP_OPS + ("sub", "scale_shift", "tile_rows", "sum_all")

# spans that scope the ones below them, for attributing time to a phase
CONTEXTS = {
    "training.tbptt_step",
    "training.validate",
    "generate.generate_batch",
}
CONTEXT_PREFIX = "bench."


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.notes = []  # (span index, key, value)

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        i = self.open(self.name_id(name))
        try:
            yield i
        finally:
            self.close(i)

    def note(self, i, key, value):
        self.notes.append((i, key, value))


@contextlib.contextmanager
def null_span(name):
    yield -1


def _timed(tracer, fn, name, hook=None, backward_name=None):
    nid = tracer.name_id(name)
    bwd_nid = tracer.name_id(backward_name) if backward_name else None
    open_, close = tracer.open, tracer.close

    def traced(*args, **kwargs):
        i = open_(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            close(i)
        if hook is not None:
            tracer.note(i, name, hook(args, out))
        if bwd_nid is not None:
            node = out[0] if isinstance(out, tuple) else out
            bw = node._backward
            if bw is not None and not getattr(bw, "_traced", False):
                node._backward = _timed_backward(open_, close, bw, bwd_nid)
        return out

    traced._traced = True
    traced.__wrapped__ = fn
    return traced


def _timed_backward(open_, close, bw, nid):
    def traced(grad):
        i = open_(nid)
        try:
            bw(grad)
        finally:
            close(i)

    traced._traced = True
    return traced


def _subnormal_counts(args, out):
    probs = out[1].data
    tiny = np.finfo(probs.dtype).tiny
    return int(np.count_nonzero((probs > 0) & (probs < tiny))), int(probs.size)


def _path_size(args, out):
    return os.path.getsize(args[0])


def _nbytes(args, out):
    return int(out.nbytes)


def _tape_nodes(args, out):
    return len(out.nodes)


def _clip_samples(args, out):
    return len(out[0])


# (owner, attribute, span name, hook). A name imported into another module
# is listed once per module that looks it up.
PATCHES = [
    (audio, "write_wav", "audio.write_wav", None),
    (generate, "write_wav", "audio.write_wav", None),
    (audio, "read_wav", "audio.read_wav", None),
    (training, "read_wav", "audio.read_wav", None),
    (audio, "chunk_corpus", "audio.chunk_corpus", None),
    (audio, "split_dataset", "audio.split_dataset", None),
    (training, "train_loop", "training.train_loop", None),
    (training, "tbptt_step", "training.tbptt_step", None),
    (training, "validate", "training.validate", None),
    (training, "clip_gradients", "training.clip_gradients", None),
    (training, "model_forward_nll", "model.model_forward_nll", None),
    (training.Adam, "step", "training.adam_step", None),
    (training.ChunkDataset, "codes", "training.dataset_codes", _nbytes),
    (model, "init_params", "model.init_params", None),
    (model.SampleRnnModel, "frame_tier_forward", "model.frame_tier_forward", None),
    (model.SampleRnnModel, "sample_tier_forward", "model.sample_tier_forward", None),
    (model.SampleRnnModel, "forward_logits", "model.forward_logits", None),
    (checkpoint, "save_checkpoint", "checkpoint.save", _path_size),
    (checkpoint, "load_checkpoint", "checkpoint.load", None),
    (generate, "load_checkpoint", "checkpoint.load", None),
    (checkpoint, "model_from_checkpoint", "checkpoint.model_from_checkpoint", None),
    (generate, "model_from_checkpoint", "checkpoint.model_from_checkpoint", None),
    (generate, "generate_batch", "generate.generate_batch", _clip_samples),
    (generate, "sample_categorical", "generate.sample_categorical", None),
    (generate, "checkpoint_generation_schedule", "generate.schedule", None),
    (generate, "diagnose_clip", "diagnostics.diagnose_clip", None),
    (diagnostics, "diagnose_clip", "diagnostics.diagnose_clip", None),
    (autodiff, "backward", "autodiff.backward", None),
]


@contextlib.contextmanager
def install(tracer):
    """Wrap every traced attribute for the duration of the block, then put
    each original object back exactly."""
    saved = []
    try:
        for owner, attr, name, hook in PATCHES:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, _timed(tracer, getattr(owner, attr), name, hook))
        for op in ALL_OPS:
            hook = _subnormal_counts if op == "softmax_cross_entropy" else None
            saved.append((autodiff, op, autodiff.__dict__[op]))
            setattr(autodiff, op, _timed(
                tracer, getattr(autodiff, op), f"autodiff.fwd.{op}", hook, f"autodiff.bwd.{op}"
            ))
        raw = autodiff.Tape.__dict__["from_root"]
        saved.append((autodiff.Tape, "from_root", raw))
        autodiff.Tape.from_root = classmethod(
            _timed(tracer, raw.__func__, "autodiff.tape_build", _tape_nodes)
        )
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class SpanTable:
    """Columnar view of a finished trace."""

    def __init__(self, tracer):
        self.names = list(tracer.names)
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.float64).copy()
        self.notes = list(tracer.notes)
        n = self.name.size
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        self.child_sum = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=n
        )[:n]
        self.self_time = self.dur - self.child_sum
        self.ctx = self._contexts()

    def _contexts(self):
        """Index of the nearest enclosing context span (-1 if none).

        A span's own context is its parent's unless the parent is itself a
        context; parents are opened before children, so one pass in index
        order suffices.
        """
        is_ctx = np.array(
            [nm in CONTEXTS or nm.startswith(CONTEXT_PREFIX) for nm in self.names], dtype=bool
        )
        ctx = np.full(self.name.size, -1, dtype=np.int64)
        name, parent = self.name, self.parent
        for i in range(self.name.size):
            p = parent[i]
            if p >= 0:
                ctx[i] = p if is_ctx[name[p]] else ctx[p]
        return ctx

    def ids(self, name):
        return self.names.index(name) if name in self.names else -1

    def select(self, name, ctx=None):
        """Indices of spans called `name`, optionally under context `ctx`."""
        mask = self.name == self.ids(name)
        if ctx is not None:
            has = self.ctx >= 0
            in_ctx = np.zeros_like(mask)
            in_ctx[has] = self.name[self.ctx[has]] == self.ids(ctx)
            mask &= in_ctx
        return np.flatnonzero(mask)

    def nesting_errors(self, tol=1e-9):
        """Spans whose children stick out of them, or whose self time is
        negative beyond rounding."""
        child = np.flatnonzero(self.parent >= 0)
        p = self.parent[child]
        outside = (self.start[child] < self.start[p] - tol) | (self.end[child] > self.end[p] + tol)
        negative = self.self_time < -tol
        return int(np.count_nonzero(outside)) + int(np.count_nonzero(negative))

    def note_values(self, key, ctx=None):
        """[(span index, value)] for notes of `key`, optionally filtered to
        spans under context `ctx`."""
        want = None if ctx is None else self.ids(ctx)
        return [
            (i, v) for i, k, v in self.notes
            if k == key and (want is None or (self.ctx[i] >= 0 and self.name[self.ctx[i]] == want))
        ]

    def summary(self, top=25):
        """Lines of the heaviest span names by self time."""
        total = float(self.self_time.sum()) or 1.0
        sums = np.bincount(self.name, weights=self.self_time, minlength=len(self.names))
        calls = np.bincount(self.name, minlength=len(self.names))
        order = np.argsort(-sums)[:top]
        lines = [f"{'span':<36}{'calls':>10}{'self_s':>10}{'share':>8}"]
        for k in order:
            lines.append(
                f"{self.names[k]:<36}{calls[k]:>10d}{sums[k]:>10.3f}{100 * sums[k] / total:>7.1f}%"
            )
        return lines


def window_bounds(n, share=0.1):
    """(early, late) half-open index ranges: the first and the last
    ceil(share * n) of n items."""
    if n < 1:
        raise ValueError("no items to window")
    k = max(1, math.ceil(n * share))
    return (0, k), (n - k, n)


def windowed_step_ms(step_durations):
    """Median step time in ms over the early and the late window."""
    (a0, a1), (b0, b1) = window_bounds(len(step_durations))
    d = np.asarray(step_durations) * 1e3
    return float(np.median(d[a0:a1])), float(np.median(d[b0:b1]))


def windowed_fraction(step_counts):
    """Share of subnormal values over the early and the late window, from
    per-step (subnormal, total) pairs in step order."""
    (a0, a1), (b0, b1) = window_bounds(len(step_counts))
    c = np.asarray(step_counts, dtype=np.float64).reshape(-1, 2)
    return float(c[a0:a1, 0].sum() / c[a0:a1, 1].sum()), float(c[b0:b1, 0].sum() / c[b0:b1, 1].sum())


def _mean(table, name, ctx=None, scale=1.0):
    idx = table.select(name, ctx)
    return float(table.dur[idx].mean()) * scale if idx.size else 0.0


def layer_metrics(table):
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json."""
    m = {}
    steps = table.select("training.tbptt_step")
    n_steps = steps.size
    step_dur = table.dur[steps]

    for op in STEP_OPS:
        for kind in ("fwd", "bwd"):
            if kind == "bwd" and op == "affine":
                continue  # affine's node is add_bias's; its backward shows there
            idx = table.select(f"autodiff.{kind}.{op}", "training.tbptt_step")
            m[f"autodiff.{kind}.{op}_ms"] = float(table.self_time[idx].sum()) * 1e3 / n_steps
    tape = table.select("autodiff.tape_build", "training.tbptt_step")
    m["autodiff.tape_build_ms"] = float(table.dur[tape].sum()) * 1e3 / n_steps
    nodes = table.note_values("autodiff.tape_build", "training.tbptt_step")
    m["autodiff.nodes_per_step"] = sum(v for _, v in nodes) / n_steps

    # subnormal softmax probabilities, attributed to the step they ran in
    per_step = {int(s): (0, 0) for s in steps}
    for i, (sub, tot) in table.note_values("autodiff.fwd.softmax_cross_entropy", "training.tbptt_step"):
        s = int(table.ctx[i])
        per_step[s] = (per_step[s][0] + sub, per_step[s][1] + tot)
    early, late = windowed_fraction([per_step[int(s)] for s in steps])
    m["autodiff.softmax_ce.subnormal_frac.early"] = early
    m["autodiff.softmax_ce.subnormal_frac.late"] = late

    gen_steps = sum(v for _, v in table.note_values("generate.generate_batch"))
    wn_gen = table.select("autodiff.fwd.weight_norm_apply", "generate.generate_batch")
    m["autodiff.weight_norm_calls_per_sample"] = wn_gen.size / gen_steps

    m["training.tbptt_step_ms.p50"] = float(np.percentile(step_dur, 50)) * 1e3
    m["training.tbptt_step_ms.p90"] = float(np.percentile(step_dur, 90)) * 1e3
    m["training.tbptt_step_ms.count"] = n_steps
    m["training.step_ms.early"], m["training.step_ms.late"] = windowed_step_ms(step_dur)
    m["training.adam_step_ms"] = _mean(table, "training.adam_step", scale=1e3)
    m["training.clip_gradients_ms"] = _mean(table, "training.clip_gradients", scale=1e3)
    m["training.validate_s"] = _mean(table, "training.validate")
    setups = table.select("bench.setup").size
    codes = table.select("training.dataset_codes", "bench.setup")
    m["training.dataset_codes_s"] = float(table.dur[codes].sum()) / setups
    m["training.codes_bytes"] = sum(v for _, v in table.note_values("training.dataset_codes", "bench.setup")) / setups

    m["model.init_params_s"] = _mean(table, "model.init_params", "bench.setup")
    m["model.frame_tier_forward_ms"] = _mean(table, "model.frame_tier_forward", "training.tbptt_step", 1e3)
    m["model.sample_tier_forward_ms"] = _mean(table, "model.sample_tier_forward", "training.tbptt_step", 1e3)
    m["model.forward_logits_ms"] = _mean(table, "model.forward_logits", "training.tbptt_step", 1e3)

    m["checkpoint.save_s"] = _mean(table, "checkpoint.save")
    m["checkpoint.load_s"] = _mean(table, "checkpoint.load")
    m["checkpoint.model_from_checkpoint_s"] = _mean(table, "checkpoint.model_from_checkpoint")
    sizes = [v for _, v in table.note_values("checkpoint.save")]
    m["checkpoint.bytes"] = float(np.mean(sizes)) if sizes else 0.0

    m["generate.sample_categorical_us"] = _mean(table, "generate.sample_categorical", scale=1e6)
    m["generate.sample_categorical_calls"] = table.select("generate.sample_categorical").size
    m["generate.frame_step_ms"] = _mean(table, "model.frame_tier_forward", "generate.generate_batch", 1e3)
    m["generate.sample_step_us"] = _mean(table, "model.sample_tier_forward", "generate.generate_batch", 1e6)

    m["diagnostics.diagnose_clip_s"] = _mean(table, "diagnostics.diagnose_clip")

    m["audio.write_wav_s"] = _mean(table, "audio.write_wav")
    m["audio.read_wav_s"] = _mean(table, "audio.read_wav")
    m["audio.chunk_corpus_s"] = _mean(table, "audio.chunk_corpus")
    m["trace.spans"] = int(table.name.size)
    return m
