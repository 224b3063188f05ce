#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fill --seed 1 --seconds 10 --trace 0

The engine and the benchmark binary are built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build output
goes to stderr, so the last line of stdout is the binary's JSON result.
With --trace 1 the spans are written to trace-<workload>.json in the
build directory. Exits non-zero, printing no result, if the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fill", "read_mostly", "offload_pipeline")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then builds incrementally. Returns the binary."""
    if not os.path.exists(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("perfbench: no engine sources (src/) next to the benchmark")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, "trace-%s.json" % args.workload)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
