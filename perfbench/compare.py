#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py parent.json change.json

Each file is what steady.py --out writes (all its runs count as one set).
For every workload and every metric present in both files, the script
prints each side's median, the change of the median as a share of the
base side's, and the spread: the larger of the two sides' IQR/median.
An end-to-end metric is "unresolved" when the spread exceeds its bound
from BENCHMARK.json, unless every run of one side is better than every
run of the other; otherwise it is "worse" when its median moved the
wrong way by more than the bound.  Per-layer metrics have no bound and are
printed with their spread only.  Exits 1 when any metric is worse.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path):
    by_workload = {}
    for run in json.loads(Path(path).read_text()):
        if run.get("result"):
            by_workload.setdefault(run["workload"], []).append(run["result"])
    return by_workload


def stats(values):
    if len(values) < 2:
        v = values[0]
        return v, 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(args.base), load(args.change)
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in change:
            continue
        a_runs, b_runs = base[workload], change[workload]
        print(f"\n== {workload}: {len(a_runs)} base runs, {len(b_runs)} "
              f"change runs")
        failed = [sum(r["failed"] for r in runs) /
                  max(1, sum(r["attempted"] for r in runs))
                  for runs in (a_runs, b_runs)]
        print(f"  failed share: base {failed[0]:.6f}, change {failed[1]:.6f}")
        print(f"  {'metric':<26} {'base':>14} {'change':>14} {'delta':>9} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for name, spec_of in metrics.items():
            a = [r["metrics"][name]["value"] for r in a_runs
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs
                 if name in r["metrics"]]
            if not a or not b:
                continue
            a_med, a_spread = stats(a)
            b_med, b_spread = stats(b)
            spread = max(a_spread, b_spread)
            delta = (b_med - a_med) / a_med if a_med else 0.0
            lower = spec_of["better"] == "lower"
            bound = spec_of.get("bound")
            verdict = ""
            if bound is not None:
                worse = delta if lower else -delta
                separated = (max(b) < min(a) or min(b) > max(a))
                if spread > bound and not separated:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "worse"
                    any_worse = True
                elif worse < -spread:
                    verdict = "better"
                else:
                    verdict = "same"
            print(f"  {name:<26} {a_med:>14.6g} {b_med:>14.6g} "
                  f"{100 * delta:>+8.2f}% {spread:>7.3f} "
                  f"{bound if bound is not None else '-':>6}  {verdict}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
