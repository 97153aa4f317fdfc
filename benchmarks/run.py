"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload desk_train --seed 1 --seconds 20 --trace 0

Run from the repository root. `--trace 0` prints the end-to-end metrics
named in BENCHMARK.json; `--trace 1` runs the workload untraced and then
traced in the same process, and prints the per-layer metrics, the tracing
overhead and a table of the heaviest spans. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os
import sys

# One process, BLAS on one thread, as the test suite runs it. Set before
# numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import subprocess
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OVERHEAD_PREFIX = "trace.overhead."


def fail(message):
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import samplernn from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "samplernn", "__init__.py")):
        fail(f"no samplernn package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import samplernn

    where = os.path.realpath(os.path.dirname(samplernn.__file__))
    if where != os.path.realpath(os.path.join(SRC, "samplernn")):
        fail(f"samplernn imported from {where}, not from {SRC}")
    return samplernn


def git_commit():
    """The checked-out commit, or "unavailable" outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        top, commit = out.stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        return "unavailable"
    # a checkout that is not a repository may sit inside one
    return commit if os.path.realpath(top) == os.path.realpath(ROOT) else "unavailable"


def machine_facts(samplernn):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "samplernn": samplernn.__version__,
        "samplernn_path": os.path.dirname(samplernn.__file__),
        "git_commit": git_commit(),
    }


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    samplernn = import_package()
    from benchmarks import tracing, workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    args = parse_args(argv, list(workloads.WORKLOADS))
    if args.seconds <= 0:
        fail("--seconds must be positive")
    wl = workloads.WORKLOADS[args.workload]
    print("facts " + json.dumps(machine_facts(samplernn), sort_keys=True), flush=True)

    runs_dir = os.path.join(ROOT, ".bench_runs")
    os.makedirs(runs_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=runs_dir)
    try:
        plain = workloads.run_workload(
            wl, args.seed, args.seconds, os.path.join(work, "plain"), tracing.null_span
        )
        ops = [plain.ops]
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.install(tracer):
                traced = workloads.run_workload(
                    wl, args.seed, args.seconds, os.path.join(work, "traced"), tracer.span,
                    repeat=False,
                )
            ops.append(traced.ops)
            table = tracing.SpanTable(tracer)
            del tracer
            metrics = tracing.layer_metrics(table)
            for m in spec["per_layer"]:
                if m["name"].startswith(OVERHEAD_PREFIX):
                    name = m["name"][len(OVERHEAD_PREFIX):]
                    metrics[m["name"]] = traced.metrics[name] - plain.metrics[name]
            checks = workloads.Ops()
            checks.check(traced.fingerprint == plain.fingerprint,
                         "traced run's losses, parameters or clips differ from the untraced run")
            checks.check(table.nesting_errors() == 0, "span self time plus children exceeds duration")
            ops.append(checks)
            for line in table.summary():
                print(line)
            declared = spec["per_layer"]
        else:
            metrics = plain.metrics
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(runs_dir)
        except OSError:
            pass  # another run still uses it

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} not as declared in BENCHMARK.json")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    problems = [p for o in ops for p in o.problems]
    for p in problems:
        print(f"check failed: {p}")
    result = {
        "correct": not problems,
        "attempted": sum(o.attempted for o in ops),
        "failed": sum(o.failed for o in ops),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
