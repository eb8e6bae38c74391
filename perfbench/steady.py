#!/usr/bin/env python3
"""Steadiness check: runs every workload k times in two interleaved sets.

    python3 perfbench/steady.py --runs 10 --out steady.json

Run from the root of a retra checkout.  Each run is one call of
perfbench/run.py, for run_seconds from BENCHMARK.json, on every workload
BENCHMARK.json lists, with its own seed: set A uses seeds 1..k, set B
1001..1000+k.  The order of the sets alternates from round to round, so a
slow drift of the host falls on both.  For each run the script records
the host's CPU steal share over the run and the 1-minute load average at
its start, both read from /proc (read only), so that a disturbed run can
be recognised.

It prints, per workload and metric, each set's median, quartiles and
IQR/median against the metric's bound from BENCHMARK.json, and how far
set B's median moved from set A's.  A spread above a third of the bound
is marked "wide", above the bound "OVER"; a median that moved the worse
way by more than the bound is marked "MOVED".  It also checks that the
share of failed operations is the same in both sets.  --out keeps every
run's result for compare.py.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def read_cpu_ticks():
    """(steal, total) jiffies of the whole host, from /proc/stat."""
    with open("/proc/stat") as stat:
        fields = [int(x) for x in stat.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user.
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def read_loadavg():
    with open("/proc/loadavg") as load:
        return float(load.read().split()[0])


def run_once(workload, seed, seconds):
    steal0, total0 = read_cpu_ticks()
    load = read_loadavg()
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - started
    steal1, total1 = read_cpu_ticks()
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return {
        "workload": workload, "seed": seed,
        "exit": proc.returncode, "wall_s": round(wall, 3),
        "steal": (steal1 - steal0) / max(1, total1 - total0),
        "loadavg": load, "result": result,
    }


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    ok = True
    for workload in spec_workloads(spec):
        print(f"\n== {workload}")
        sets = {}
        for run in runs:
            if run["workload"] == workload and run["result"]:
                sets.setdefault(run["set"], []).append(run)
        for name, runs_of in sorted(sets.items()):
            attempted = sum(r["result"]["attempted"] for r in runs_of)
            failed = sum(r["result"]["failed"] for r in runs_of)
            steal = max(r["steal"] for r in runs_of)
            load = max(r["loadavg"] for r in runs_of)
            print(f"  set {name}: {len(runs_of)} runs, failed {failed}/"
                  f"{attempted}, worst steal {100 * steal:.2f}%, worst "
                  f"loadavg {load:.2f}")
        shares = {name: [(r["result"]["failed"], r["result"]["attempted"])
                         for r in runs_of]
                  for name, runs_of in sets.items()}
        share_values = {name: sum(f for f, _ in v) / max(1, sum(a for _, a in v))
                        for name, v in shares.items()}
        if len(set(share_values.values())) > 1:
            print(f"  FAILED SHARE DIFFERS between sets: {share_values}")
            ok = False
        names = []
        for run in runs:
            if run["workload"] == workload and run["result"]:
                for metric in run["result"]["metrics"]:
                    if metric not in names:
                        names.append(metric)
        print(f"  {'metric':<26} {'set':>3} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'iqr/med':>8} {'bound':>6}  note")
        for metric in names:
            spec_of = bounds.get(metric) or layers.get(metric) or {}
            bound = spec_of.get("bound")
            medians = {}
            for name, runs_of in sorted(sets.items()):
                values = [r["result"]["metrics"][metric]["value"]
                          for r in runs_of
                          if metric in r["result"]["metrics"]]
                if not values:
                    continue
                q1, q2, q3 = quartiles(values)
                medians[name] = q2
                spread = (q3 - q1) / q2 if q2 else 0.0
                note = ""
                if bound is not None:
                    if spread > bound:
                        note = "OVER"
                        ok = False
                    elif spread > bound / 3:
                        note = "wide"
                print(f"  {metric:<26} {name:>3} {q2:>14.6g} {q1:>14.6g} "
                      f"{q3:>14.6g} {spread:>8.3f} "
                      f"{bound if bound is not None else '-':>6}  {note}")
            if bound is not None and "A" in medians and "B" in medians \
                    and medians["A"]:
                moved = (medians["B"] - medians["A"]) / medians["A"]
                worse = moved if spec_of["better"] == "lower" else -moved
                flag = "MOVED" if worse > bound else ""
                if flag:
                    ok = False
                print(f"  {'':<26} B vs A {100 * moved:+.2f}% {flag}")
    return ok


def spec_workloads(spec):
    return [w["name"] for w in spec["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--out", default="", help="write all runs as JSON")
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    runs = []
    for i in range(args.runs):
        order = ["A", "B"] if i % 2 == 0 else ["B", "A"]
        for name in order:
            for workload in spec_workloads(spec):
                seed = 1 + i + (1000 if name == "B" else 0)
                run = run_once(workload, seed, spec["run_seconds"])
                run["set"] = name
                runs.append(run)
                status = "ok" if run["exit"] == 0 and run["result"] \
                    else f"exit {run['exit']}"
                print(f"set {name} run {i} {workload} seed {seed}: {status}, "
                      f"{run['wall_s']:.1f} s, steal {100 * run['steal']:.2f}%"
                      f", loadavg {run['loadavg']:.2f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    ok = summarize(runs, spec)
    ok = ok and all(r["exit"] == 0 and r["result"] and r["result"]["correct"]
                    for r in runs)
    print("\nsteady" if ok else "\nNOT steady (see OVER / MOVED / failures)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
