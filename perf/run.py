#!/usr/bin/env python3
"""Builds and runs the GraphBench benchmark (see README.md beside this file).

Run from the repository root:

    python3 perf/run.py --workload short_reads --seed 1 --seconds 20 --trace 0

The package in perf/ is configured and built with CMake into the directory
named by $CARGO_TARGET_DIR (default .bench_build); the benchmark then runs
from the repository root and its last line of standard output is the JSON
result. A traced run also writes TRACE_<workload>.json into the build
directory. Exits non-zero, without a result, when the build or any answer
check fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("short_reads", "complex_reads", "interactive", "durable_writes")


def build(source_dir, build_dir):
    # CMake writes the Makefile last, so a failed configure is retried.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure = subprocess.run(
            ["cmake", "-S", source_dir, "-B", build_dir, "-G", "Unix Makefiles",
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if configure.returncode != 0:
            return False
    made = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "bench_graphbench",
         "-j", "4"],
        stdout=sys.stderr)
    return made.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(source_dir, build_dir):
        print("build failed", file=sys.stderr)
        return 1
    return subprocess.run([
        os.path.join(build_dir, "bench_graphbench"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--trace_dir={build_dir}",
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
