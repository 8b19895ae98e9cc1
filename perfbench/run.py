#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (and the library under
src/) into .bench_build/perfbench; later runs rebuild incrementally. Build
output goes to standard error, so the last line of standard output is the
benchmark's result object. WAL data and trace files go to
.bench_build/perfbench-out. See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no program sources next to perfbench/ (expected CMakeLists.txt and src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", OUT_DIR]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
