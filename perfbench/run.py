#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (Release) into
.bench_build/perfbench; later calls only rebuild what changed. Build
output goes to stderr, so the last stdout line is the result object
the benchmark prints. See perfbench/README.md for workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "nse_perfbench")
DIGESTS = os.path.join(HERE, "digests.txt")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def call(cmd, timeout):
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: nothing to build")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if call(cmd, BUILD_TIMEOUT_S) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    if call(["cmake", "--build", BUILD, "-j", "4"], BUILD_TIMEOUT_S) != 0:
        fail("build failed")


def source_id():
    """The git commit when there is one, else a digest of src/."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT,
                                                                    "src"))):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha1:" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1998)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--digests", DIGESTS,
           "--commit", source_id()]
    if args.trace == "1":
        cmd += ["--spans-out", os.path.join(
            BUILD, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if out.returncode != 0:
        fail(f"benchmark exited with code {out.returncode}")
    sys.stdout.write(out.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
