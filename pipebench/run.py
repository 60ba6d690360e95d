#!/usr/bin/env python3
"""Builds the pipeline benchmark from the repository's sources and runs it.

Usage (from the repository root):

    python3 pipebench/run.py --workload cold-cells --seed 1 --seconds 10 --trace 0
    python3 pipebench/run.py --self-test

The build tree lives in .bench_build/pipebench (CMake, Release).  The
first call configures and builds the library from src/ plus the driver in
pipebench/; later calls only re-check that the build is up to date.  The
driver's standard output is passed through unchanged, so its last line is
the JSON result.  Nothing is written outside the repository checkout: the
compiler's and the driver's temporary files go under .bench_build/tmp.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "pipebench")
TMP_DIR = os.path.join(BUILD_ROOT, "tmp")
WORKLOADS = ("cold-cells", "paper-matrix", "warm-replay")


def fail(msg):
    print("pipebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(env):
    os.makedirs(BUILD_DIR, exist_ok=True)
    # One build at a time per checkout, even if runs overlap.
    with open(os.path.join(BUILD_ROOT, "pipebench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cfg = subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"] + gen,
                env=env, stdout=sys.stderr, stderr=sys.stderr)
            if cfg.returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        out = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                             env=env, stdout=sys.stderr, stderr=sys.stderr)
        if out.returncode != 0:
            fail("build failed")
    return os.path.join(BUILD_DIR, "pipebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required (or --self-test)")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found; run from the repository root")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    exe = build(env)
    if args.self_test:
        cmd = [exe, "--self-test"]
    else:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
