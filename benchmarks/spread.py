"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

    python3 benchmarks/spread.py --workloads desk_train paper_width --seeds 1-10
    python3 benchmarks/spread.py --workloads desk_train --seeds 1-10 --rounds 2

Runs `run.py --trace 0` once per seed and workload, one run at a time, from
the repository root. For each metric it prints the median, the interquartile
range as a share of the median (statistics.quantiles, n=4) and the bound
from BENCHMARK.json. With --rounds 2 it runs a second set on the next seeds
(11-20 after 1-10) and prints how far the second median moved from the
first, in the metric's worse direction.
Exits 1 if a run fails a check, or if any spread or any move exceeds its
bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
print = functools.partial(print, flush=True)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"{workload} seed {seed} failed checks:\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall, result["failed"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--rounds", type=int, choices=(1, 2), default=1)
    args = p.parse_args(argv)

    ok = True
    for wl in args.workloads:
        rounds = []
        for k in range(args.rounds):
            runs = [one_run(wl, s + k * len(args.seeds), args.seconds) for s in args.seeds]
            rounds.append(runs)
            walls = [w for _, w, _ in runs]
            ok &= not any(f for _, _, f in runs)
            print(f"{wl}: {len(runs)} runs, wall s min {min(walls):.1f} median "
                  f"{statistics.median(walls):.1f} max {max(walls):.1f}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for runs in rounds:
                med, rel = spread([r[name] for r, _, _ in runs])
                meds.append(med)
                limit = " OVER" if rel > bound else (" >1/3" if rel > bound / 3 else "")
                ok &= not limit.startswith(" OVER")
                print(f"  {name:<26}{med:>14.6g} {m['unit']:<6} iqr {100 * rel:5.1f}%"
                      f"  bound {100 * bound:.0f}%{limit}  "
                      + " ".join(f"{r[name] / med:.3f}" for r, _, _ in runs))
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                flag = " OVER" if worse > bound else ""
                ok &= not flag
                print(f"  {'':<26}second median worse by {100 * worse:5.1f}%{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
