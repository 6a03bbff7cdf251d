#!/usr/bin/env python3
"""Run every benchmark workload k times and report how steady it is.

    python3 perfbench/steady.py [--runs K] [--check-seed S]

Run from the repository root. Reads the command, run length, workloads
and bounds from BENCHMARK.json and runs every workload K times, with
seeds 1..K. For each end-to-end metric it prints the median, the first
and third quartiles (Python's statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, and the metric's bound; a spread at or above a third
of the bound is marked UNSTEADY. It also checks that every run was
correct and that the share of failed operations is the same in every run.

--check-seed S runs each workload once more with seed S, a seed not used
while sizing the workloads, and reports whether its output checks hold.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction


def run_once(bench, workload, seed):
    cmd = list(bench["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--check-seed", type=int, default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    all_ok = True

    for name in names:
        results = []
        walls = []
        for i in range(args.runs):
            seed = i + 1
            result, wall = run_once(bench, name, seed)
            results.append(result)
            walls.append(wall)
            print(f"  {name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"({wall:.1f} s)", flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{name}: {args.runs} runs, all correct: {correct}, "
              f"failed share: {', '.join(str(s) for s in sorted(shares))}, "
              f"longest run {max(walls):.1f} s")
        if not correct or len(shares) != 1:
            all_ok = False
        print(f"  {'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = m["bound"]
            flag = ""
            if spread >= bound / 3:
                flag = "UNSTEADY"
                all_ok = False
            print(f"  {m['name']:<40} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bound:>6.2f} {flag}")

    if args.check_seed is not None:
        for name in names:
            result, wall = run_once(bench, name, args.check_seed)
            print(f"check seed {args.check_seed} {name}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} ({wall:.1f} s)")
            all_ok = all_ok and result["correct"]

    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
