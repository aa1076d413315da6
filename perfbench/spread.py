#!/usr/bin/env python3
"""Regenerates the reference figures of README.md.

Runs the command of BENCHMARK.json once per seed on one workload, then
prints each metric's median over the runs and its spread: the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, beside the metric's bound.

Usage, from the repository root:

    python3 perfbench/spread.py dnn-allreduce 41-50          # end to end
    python3 perfbench/spread.py serve-mix 41 --trace 1       # per layer
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seeds", type=seeds, help="N or FIRST-LAST")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    values, outcomes = {}, []
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        run = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        outcomes.append((result["attempted"], result["failed"], result["correct"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append((m["value"], m["unit"]))
        print(f"seed {seed}: attempted {outcomes[-1][0]} failed {outcomes[-1][1]}", flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vu in values.items():
        v = [x for x, _ in vu]
        med = statistics.median(v)
        spread = ""
        if len(v) >= 2 and med:
            q = statistics.quantiles(v, n=4)
            spread = f"spread {(q[2] - q[0]) / med:.3f}"
        bound = f"bound {bounds[name]}" if name in bounds else ""
        print(f"{name:36s} {med:16.6g} {vu[0][1]:8s} {spread:14s} {bound}")
    print("failed shares:", sorted({f / a for a, f, _ in outcomes}),
          "all correct:", all(c for _, _, c in outcomes))


if __name__ == "__main__":
    main()
