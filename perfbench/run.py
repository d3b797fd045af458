#!/usr/bin/env python3
"""Build and run the whole-pipeline benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload train_inception --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles the xrlflow library from
the repository sources) into $CARGO_TARGET_DIR, or .bench_build when that
is unset, then runs the benchmark binary with the same arguments. The
binary prints a human-readable report and, as its last line, one JSON
object with the verdict and the metrics. Build output goes to stderr, so
the JSON stays the last line of standard output.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train_inception", "infer_bert", "serve_mix")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args()


def build(build_dir):
    """Configure (once) and build; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    step = ["cmake", "--build", build_dir, "--target", "xrlflow_perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(build_dir, "xrlflow_perfbench")
    return binary if os.path.exists(binary) else None


def main():
    args = parse_args()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", os.path.join(build_dir, "traces")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
