#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and summarises each metric.

    python3 perfbench/steadiness.py --workload two_rail --runs 10
        [--first-seed 1] [--save FILE] [--against FILE]

Run from the root of a checkout. Run i uses seed first-seed + i, runs for
BENCHMARK.json's run_seconds and prints the end-to-end metrics (--trace 0).
For every metric the tool prints the median, the first and third quartiles
(Python's statistics.quantiles with n=4) and the spread (Q3 - Q1) / median
next to the metric's bound from BENCHMARK.json: "ok" when the spread is
below a third of the bound, "wide" when it is below the bound, "FAIL"
otherwise. --save writes the raw values to FILE; --against FILE compares
this set's medians with a saved set's and flags every metric worse by more
than its bound. The exit code is non-zero if a run failed its checks or a
metric failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench, {m["name"]: m for m in bench["end_to_end"]}


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"seed {seed}: checks failed: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(spec, new, old):
    """Share by which `new` is worse than `old` (negative when better)."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return change if spec["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    bench, specs = load_metric_specs()
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        print(f"run {i + 1}/{args.runs} (seed {seed})", file=sys.stderr)
        for name, v in run_once(bench, args.workload, seed).items():
            values.setdefault(name, []).append(v)

    bad = False
    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {bench['run_seconds']} s each")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = specs[name]["bound"]
        verdict = ("ok" if spread < bound / 3 else
                   "wide" if spread <= bound else "FAIL")
        bad |= verdict == "FAIL"
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:7.3f} {bound:>6}  {verdict}")

    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    if args.against:
        with open(args.against) as f:
            old = json.load(f)
        print("median against " + args.against)
        for name, vals in values.items():
            spec = specs[name]
            if name not in old:
                continue
            change = worse_by(spec, statistics.median(vals),
                              statistics.median(old[name]))
            verdict = "FAIL" if change > spec["bound"] else "ok"
            bad |= verdict == "FAIL"
            print(f"{name:32} worse by {change:+.3f} "
                  f"(bound {spec['bound']})  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
