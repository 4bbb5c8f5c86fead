#!/usr/bin/env python3
"""Spread report for the repository benchmark.

Runs the benchmark command from BENCHMARK.json several times per workload,
each run with another seed, and prints for every end-to-end metric the
median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound. With --sets 2 it
runs two sets on fresh seeds and also prints how far the second median
moved from the first, as a share of the first.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 --sets 2 paper-grid rank-scale serve-mix
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed0", type=int, default=1, help="first seed")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--same-seed", action="store_true", help="repeat one seed (machine noise only)")
    ap.add_argument("-v", "--verbose", action="store_true", help="print every run's metrics")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    ok = True
    seed = args.seed0
    for w in workloads:
        medians = []
        for s in range(args.sets):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(bench["command"], w, seed, seconds, args.trace))
                if args.verbose:
                    print(f"  seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in sorted(runs[-1].items())),
                          flush=True)
                if not args.same_seed:
                    seed += 1
            print(f"\n{w}, set {s + 1}: {args.runs} runs")
            print(f"  {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
            med = {}
            for name in runs[0]:
                vals = [r[name] for r in runs]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                med[name] = q2
                spread = (q3 - q1) / q2 if q2 else float("inf")
                bound = bounds.get(name)
                flag = ""
                if bound is not None and spread > bound:
                    flag, ok = "  OVER", False
                elif bound is not None and spread > bound / 3:
                    flag = "  >1/3"
                print(f"  {name:<26} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
                      f"{bound if bound is not None else '':>6}{flag}")
            medians.append(med)
        if len(medians) > 1:
            print(f"  median drift, set 2 vs set 1 (worse direction only counts):")
            better = {m["name"]: m["better"] for m in bench["end_to_end"]}
            for name, first in medians[0].items():
                second = medians[1][name]
                drift = (second - first) / first
                worse = drift if better.get(name) == "lower" else -drift
                bound = bounds.get(name)
                flag = ""
                if bound is not None and worse > bound:
                    flag, ok = "  OVER", False
                print(f"    {name:<26} {drift:>+8.3f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
