#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload static_ba --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The library and the benchmark are configured and built (Release) under
.bench_build/perfbench in the current directory; later runs reuse the
build. Build output goes to stderr only when the build fails, so the last
line of stdout is always the benchmark's JSON result. With --trace 1 the
span trace is written to .bench_build/perfbench/traces/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")


def build(target):
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources (src/) not found next to "
                         "the benchmark; run from a full checkout\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the tests of the benchmark's helpers")
    args = ap.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            return 1
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode
    if not args.workload:
        ap.error("--workload is required")
    if not build("perfbench"):
        return 1
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
