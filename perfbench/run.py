#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <compile_mix|seu_campaign|mission> \
        --seed <n> --seconds <s> --trace <0|1> [--corrupt-oracle 1]

The first call configures and builds perfbench/ (and the HERMES libraries
from src/) in Release mode under .bench_build/perfbench; later calls only
re-check the build. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. With --trace 1 the Chrome trace-event JSON is
written to .bench_build/perfbench/trace-<workload>-<seed>.json.
The exit code is the benchmark's: 0 only when every correctness oracle held.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hermes_perfbench")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--corrupt-oracle", default="0", choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        return 2
    command = [BINARY, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--corrupt-oracle", args.corrupt_oracle]
    if args.trace == "1":
        command += ["--trace-file", os.path.join(
            BUILD, "trace-%s-%s.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
