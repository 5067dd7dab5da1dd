#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the repository root:

    python3 perfbench/selftest.py

Checks, on the default seed (the one the digests were pinned on):
  1. every workload runs one short pass (one set-up, one pass) with
     zero failed ops, so every op's digest matches digests.txt;
  2. the traced run of every workload also passes, which adds the
     stall-attribution and capacity-conservation identities, and both
     modes print exactly the metrics BENCHMARK.json names;
  3. a corrupted pinned digest makes exactly that op fail, so the
     digest check can fail at all.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build helper next to this file)

WORKLOADS = ["paper_grid", "fleet_equal", "fleet_propfair", "audit"]


def bench(*args):
    out = subprocess.run([run.BINARY, "--seconds", "0", "--setups", "1",
                          *args], cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"exit {out.returncode}: {out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stderr


def main():
    run.build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {"0": [m["name"] for m in spec["end_to_end"]],
             "1": [m["name"] for m in spec["per_layer"]]}
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for trace in ["0", "1"]:
        for wl in WORKLOADS:
            res, err = bench("--workload", wl, "--trace", trace,
                             "--digests", run.DIGESTS)
            ok = res["correct"] and res["failed"] == 0
            expect(ok, f"{wl} trace={trace}: one pass, no failed ops" +
                   ("" if ok else f"\n{err}"))
            expect(list(res["metrics"]) == names[trace],
                   f"{wl} trace={trace}: prints the BENCHMARK.json metrics")

    # Corrupt one pinned audit digest; only that op may fail.
    bad = os.path.join(run.BUILD, "digests-corrupted.txt")
    with open(run.DIGESTS) as src, open(bad, "w") as dst:
        for line in src:
            if line.startswith("audit 0 "):
                line = "audit 0 0\n"
            dst.write(line)
    res, _ = bench("--workload", "audit", "--digests", bad)
    expect(not res["correct"] and res["failed"] == 1,
           "a corrupted digest fails exactly its op")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
