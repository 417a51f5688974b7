#!/usr/bin/env python3
"""Serving benchmark: build it from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload stream_paper --seed 1 --seconds 10 --trace 0

The first run configures and builds this directory (the library sources under
src/ plus the benchmark driver, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later runs reuse the build.
Build output goes to stderr, so the last line of stdout is the driver's JSON
result.  The exit code is the driver's: 0 when every output checked out, 1
when a query failed, 2 on a usage, build or time-limit error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream_paper", "stream_dense", "overload_coalesce", "batch_burst")
CONFIGURE_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 660
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, build incrementally; returns the driver's path."""
    configured = os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) and (
        os.path.exists(os.path.join(build_dir, "Makefile"))
        or os.path.exists(os.path.join(build_dir, "build.ninja")))
    if not configured:
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr,
                       timeout=CONFIGURE_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "serve_bench")


def main():
    parser = argparse.ArgumentParser(
        description="Run one workload of the serving benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        driver = build(build_dir)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark ran past its time limit", file=sys.stderr)
        return 2
    return code if code >= 0 else 2


if __name__ == "__main__":
    sys.exit(main())
