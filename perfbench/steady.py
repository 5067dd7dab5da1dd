#!/usr/bin/env python3
"""Steadiness check: run one workload repeatedly and report each metric's
median, quartiles and spread.

Run from the repository root:

    python3 perfbench/steady.py --workload audit --runs 10 --first-seed 1

Each run uses its own seed (first-seed, first-seed + 1, ...). The spread
is (Q3 - Q1) / median with quartiles as statistics.quantiles(n=4) gives
them. When BENCHMARK.json names a bound for a metric, the line also says
whether the spread stays under a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        sys.exit(f"run failed (seed {seed}):\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()

    values = {}
    units = {}
    failed = 0
    for k in range(args.runs):
        res = run_once(args.workload, args.first_seed + k, args.seconds)
        failed += res["failed"] + (0 if res["correct"] else 1)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"run {k + 1}/{args.runs} seed {args.first_seed + k}: "
              f"attempted {res['attempted']} failed {res['failed']}",
              file=sys.stderr)

    limits = bounds()
    steady = True
    print(f"{args.workload}: {args.runs} runs, failed ops {failed}")
    for name, xs in values.items():
        med = statistics.median(xs)
        if len(xs) >= 2:
            q1, _, q3 = statistics.quantiles(xs, n=4)
        else:
            q1 = q3 = xs[0]
        spread = (q3 - q1) / med if med else float("nan")
        line = (f"  {name:32s} median {med:14.6g} {units[name]:6s} "
                f"Q1 {q1:14.6g} Q3 {q3:14.6g} spread {spread:.4f}")
        if name in limits:
            ok = spread < limits[name] / 3
            steady = steady and ok
            line += f"  bound {limits[name]} {'ok' if ok else 'WIDE'}"
        print(line)
    sys.exit(0 if failed == 0 and steady else 1)


if __name__ == "__main__":
    main()
