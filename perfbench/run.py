#!/usr/bin/env python3
"""Builds and runs the served-transaction benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload session_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the repository's src/
libraries, bench/bench_util and the driver) into .bench_build/perfbench;
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the run's JSON result. Trace and report files land
in .bench_build/out.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "served_bench")


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    def step(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode == 0

    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        if not step(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator):
            return False
    return step(["cmake", "--build", BUILD, "--parallel", "4"])


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--clients", type=int, default=0,
                        help="client count override (reference figures)")
    parser.add_argument("--cpus", type=int, default=1,
                        help="CPUs to pin the run to; 0 = no pinning")
    parser.add_argument("--selftest", action="store_true",
                        help="run the history checker's self-test")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([BINARY, "--selftest"]).returncode

    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--cpus", str(args.cpus), "--out", OUT]
    if args.clients:
        cmd += ["--clients", str(args.clients)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
