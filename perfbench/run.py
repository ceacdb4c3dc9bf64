#!/usr/bin/env python3
"""Build the simulator's host-time benchmark from source and run it once.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload matrix-jit --seed 1 --seconds 30 --trace 0

Workloads: matrix-jit, matrix-profiled, juliet (NOTES.md says why). The
build goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory; with --trace 1 the span trace is written there too. The last
line of stdout is the result JSON. Exits nonzero, printing no result,
when the simulator sources are missing or the build fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("matrix-jit", "matrix-profiled", "juliet")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir):
    """Configure and build the benchmark binary; return its path."""
    generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-G", generator,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    # On SIGTERM, unwind through subprocess.run, which then kills and
    # reaps the build or benchmark process it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(root, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.tsv")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            root, f"trace-{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
