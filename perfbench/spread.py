#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way the acceptance
check computes it.

    python3 perfbench/spread.py --workload NAME

Runs perfbench/run.py once per seed 1..10 for BENCHMARK.json's run_seconds,
then prints, per end-to-end metric of BENCHMARK.json, the median, the
inter-quartile range from statistics.quantiles(values, n=4) as a share of
the median, and the metric's bound.  Exits 1 if a run fails or a spread
exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(1, RUNS + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)

    ok = True
    print(f"\n{args.workload}: {RUNS} runs of {seconds} s")
    print(f"{'metric':22} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for m in bench["end_to_end"]:
        q1, med, q3 = statistics.quantiles(values[m["name"]], n=4)
        spread = (q3 - q1) / med
        flag = ""
        if spread > m["bound"]:
            flag, ok = "  OVER BOUND", False
        print(f"{m['name']:22} {med:12.5g} {spread:11.4f} {m['bound']:6.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
