#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload views_200k --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The library and the benchmark binary are
built from source into $CARGO_TARGET_DIR (default .bench_build), a Release
CMake tree; later runs only re-check it. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits non-zero, printing
no result, when the repo sources are missing, the build fails, the binary
fails or times out, or its result line is malformed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "fgpdb_perfbench"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at {ROOT}: run from a full checkout")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(os.getcwd(), build_dir)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", BINARY,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        fail("--workload or --self-test is required")

    binary = build()
    if args.self_test:
        cmd = [binary, "--self-test"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} did not finish in {RUN_TIMEOUT_S}s")
    if args.self_test:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line of the benchmark's output is not JSON")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail("malformed result: " + lines[-1])
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
