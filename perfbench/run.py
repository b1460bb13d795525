#!/usr/bin/env python3
"""Build and run the mtdae benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload smt-busy --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (and the simulator library
it pulls in from the repository root) into .bench_build/; later runs only
rebuild what changed. The benchmark binary's last line of standard output,
one JSON object, is this script's last line too. With --trace 1 the
traced run's spans are written to .bench_build/spans/.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests instead.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "cmake")
SPANS_DIR = os.path.join(".bench_build", "spans")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build(targets):
    """Configure once, then build @p targets; compiler output to stderr."""
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        fail("run me from the root of an mtdae checkout (no CMakeLists.txt "
             "or src/ here)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                    "--target"] + targets, stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        build(["mtbench_selftest"])
        return subprocess.run([os.path.abspath(os.path.join(BUILD_DIR, "mtbench_selftest"))],
                              cwd=BUILD_DIR).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    try:
        build(["mtbench"])
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    cmd = [os.path.join(BUILD_DIR, "mtbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPANS_DIR, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
