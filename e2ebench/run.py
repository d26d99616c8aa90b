#!/usr/bin/env python3
"""Build and run the end-to-end analysis benchmark.

    python3 e2ebench/run.py --workload <fsp|corpus|deep-par4> --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library and the harness (e2ebench/CMakeLists.txt) under the build
directory -- $CARGO_TARGET_DIR if set, else .bench_build -- and later
calls only bring that build up to date. Build output goes to stderr;
stdout carries the harness's metric lines, ending in one JSON object
(see achilles_e2e.cc). Traced runs (--trace 1) also leave the Chrome
trace of their last traced pass in <build dir>/traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the harness; True on success."""
    cmake_dir = os.path.join(build_dir, "e2ebench")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", cmake_dir, "--target", "achilles_e2e",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "e2ebench", "achilles_e2e"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--root", ROOT, "--digests", os.path.join(HERE, "digests.txt"),
    ]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-s%d.json" % (args.workload, args.seed))]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
