"""Tests of the benchmark's own code: span arithmetic, windows, patching."""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from benchmarks import tracing, workloads
from samplernn import autodiff

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def table_of(spans, notes=()):
    """SpanTable from (name, start, end, parent index) tuples in open order."""
    tr = tracing.Tracer()
    for name, start, end, parent in spans:
        tr.name.append(tr.name_id(name))
        tr.parent.append(parent)
        tr.start.append(start)
        tr.end.append(end)
    tr.notes.extend(notes)
    return tracing.SpanTable(tr)


def test_self_time_of_nested_spans():
    t = table_of([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 7.0, 2),
    ])
    np.testing.assert_allclose(t.self_time, [3.0, 3.0, 3.0, 1.0])
    np.testing.assert_allclose(t.self_time + t.child_sum, t.dur)
    assert t.nesting_errors() == 0


def test_child_outside_parent_is_a_nesting_error():
    t = table_of([("root", 0.0, 2.0, -1), ("late", 1.0, 3.5, 0)])
    assert t.nesting_errors() == 2  # sticks out, and the parent's self time goes negative


def test_context_is_nearest_enclosing_context_span():
    t = table_of([
        ("bench.train", 0.0, 10.0, -1),
        ("training.tbptt_step", 1.0, 5.0, 0),
        ("model.forward_logits", 1.5, 3.0, 1),
        ("autodiff.fwd.matmul", 2.0, 2.5, 2),
        ("autodiff.fwd.matmul", 6.0, 6.5, 0),
    ])
    assert list(t.select("autodiff.fwd.matmul", "training.tbptt_step")) == [3]
    assert list(t.select("autodiff.fwd.matmul", "bench.train")) == [4]
    assert list(t.select("autodiff.fwd.matmul")) == [3, 4]


def test_windows_are_first_and_last_tenth():
    assert tracing.window_bounds(20) == ((0, 2), (18, 20))
    assert tracing.window_bounds(25) == ((0, 3), (22, 25))
    assert tracing.window_bounds(3) == ((0, 1), (2, 3))
    durations = [0.001] * 2 + [0.005] * 16 + [0.009] * 2
    early, late = tracing.windowed_step_ms(durations)
    assert early == pytest.approx(1.0) and late == pytest.approx(9.0)


def test_subnormal_fraction_uses_the_named_windows():
    counts = [(0, 100)] * 2 + [(50, 100)] * 16 + [(10, 100), (30, 100)]
    early, late = tracing.windowed_fraction(counts)
    assert early == 0.0
    assert late == pytest.approx(0.2)


def test_subnormal_notes_are_attributed_to_their_step():
    spans, notes = [], []
    for k in range(10):
        step = len(spans)
        spans.append(("training.tbptt_step", 10.0 * k, 10.0 * k + 9, -1))
        notes.append((len(spans), "autodiff.fwd.softmax_cross_entropy", (k, 100)))
        spans.append(("autodiff.fwd.softmax_cross_entropy", 10.0 * k + 1, 10.0 * k + 2, step))
    t = table_of(spans, notes)
    per_step = [v for _, v in t.note_values("autodiff.fwd.softmax_cross_entropy", "training.tbptt_step")]
    assert per_step == [(k, 100) for k in range(10)]
    assert tracing.windowed_fraction(per_step) == (0.0, 0.09)


def tiny_workload():
    return dataclasses.replace(
        workloads.WORKLOADS["desk_train"],
        name="tiny",
        overrides={"model.hidden_dim": 8, "model.embed_size": 4, "train.batch_size": 2,
                   "train.tbptt_len": 16},
        corpus_seconds=3.0,
        chunk_seconds=0.05,
        iterations_per_second=4.0,
        train_repeats=2,
        repeats=2,
        setups_per_round=1,
        ckpt_per_round=2,
        clip_seconds=0.002,
        batch_streams=3,
        via_schedule=False,
    )


def traced_attributes():
    owners = [(o, a) for o, a, _, _ in tracing.PATCHES]
    owners += [(autodiff, op) for op in tracing.ALL_OPS]
    owners.append((autodiff.Tape, "from_root"))
    return {(id(o), a): o.__dict__[a] for o, a in owners}


def test_traced_run_matches_untraced_and_restores_every_attribute(tmp_path):
    wl = tiny_workload()
    before = traced_attributes()
    plain = workloads.run_workload(wl, 3, 1.0, str(tmp_path / "plain"), tracing.null_span)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        assert autodiff.matmul._traced and workloads.training.tbptt_step._traced
        traced = workloads.run_workload(wl, 3, 1.0, str(tmp_path / "traced"), tracer.span,
                                        repeat=False)
    after = traced_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    assert plain.ops.failed == 0 and traced.ops.failed == 0, plain.ops.problems + traced.ops.problems
    assert traced.fingerprint == plain.fingerprint
    table = tracing.SpanTable(tracer)
    assert table.nesting_errors() == 0
    metrics = tracing.layer_metrics(table)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"] for m in spec["per_layer"]}
    assert set(metrics) == {n for n in declared if not n.startswith("trace.overhead.")}
    assert set(plain.metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(v > 0 for v in plain.metrics.values())
    assert metrics["training.tbptt_step_ms.count"] == workloads.scaled_iterations(wl, 1.0)


def test_install_restores_attributes_when_the_run_raises():
    before = traced_attributes()
    with pytest.raises(RuntimeError):
        with tracing.install(tracing.Tracer()):
            raise RuntimeError("boom")
    after = traced_attributes()
    assert all(after[k] is before[k] for k in before)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "benchmarks"), tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "desk_train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spec_is_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(w["name"] for w in spec["workloads"]) == set(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(m["better"] in ("higher", "lower") for g in ("end_to_end", "per_layer") for m in spec[g])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= spec["run_seconds"] <= 60
