#!/usr/bin/env python3
"""Builds the benchmark from the checkout it sits in and runs one workload.

    python3 perfbench/run.py --workload solo-resident --seed 1 --seconds 10 --trace 0

Run from the root of a retra checkout.  The first run configures and
compiles perfbench/ (which compiles ../src) into .bench_build/perfbench,
or into $CARGO_TARGET_DIR/perfbench when that is set; later runs only
check that the build is current.  Build output goes to standard error,
so the last line of standard output is the run's JSON result.  The run's
files live in a scratch directory under the build directory and are
removed when it ends; a traced run leaves its Chrome trace in
<build>/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("solo-resident", "ranks4-spill", "ranks2x2-uniform")
# A run must end within 180 s; the program itself gets what the build
# check left of this.
RUN_DEADLINE_S = 175
BUILD_TIMEOUT_S = 850


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    build = build / "perfbench"

    started = time.monotonic()
    steps = []
    if not (build / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build), "--target",
                  "retra_perfbench", "-j", "4"])
    for step in steps:
        try:
            built = subprocess.run(step, cwd=root, stdout=sys.stderr,
                                   stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("benchmark build timed out", file=sys.stderr)
            return 1
        if built.returncode != 0:
            print("benchmark build failed", file=sys.stderr)
            return 1
    after_build = time.monotonic()

    scratch = build / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    traces = build / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    command = [str(build / "retra_perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--scratch", str(scratch),
               "--trace-out", str(traces / f"{args.workload}-{args.seed}.json")]
    # The first run may spend most of its time building; it still gets a
    # full run's time after that.
    budget = RUN_DEADLINE_S - (after_build - started
                               if len(steps) == 1 else 0)
    try:
        ran = subprocess.run(command, cwd=root, timeout=max(budget, 30))
        return ran.returncode
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
