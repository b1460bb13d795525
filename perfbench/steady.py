#!/usr/bin/env python3
"""Steadiness record: run every workload ten times, each with its own
seed, and record the median and quartiles of each end-to-end metric.

Run from the root of a checkout (it calls perfbench/run.py):

    python3 perfbench/steady.py --out perfbench/STEADINESS.json

Every workload of BENCHMARK.json runs with seeds 100-109 for the file's
run_seconds.

The spread of a metric is (q3 - q1) / median over the runs, with the
quartiles of statistics.quantiles(values, n=4). A spread above a third of
the metric's bound in BENCHMARK.json is flagged on stderr. The record
carries the machine class (nproc, CPU model) and the git commit it ran on.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

RUNS = 10
FIRST_SEED = 100


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    """HEAD, with "+dirty" when the working tree differs from it."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"],
                               capture_output=True, text=True,
                               check=True).stdout.strip()
        return sha + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the record here as JSON")
    args = ap.parse_args()

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model()},
        "git_sha": git_sha(),
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "runs": RUNS,
        "seconds": seconds,
        "seeds": [FIRST_SEED + i for i in range(RUNS)],
        "workloads": {},
    }
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in record["seeds"]:
            res = run_once(workload, seed, seconds)
            if not res["correct"] or res["failed"]:
                print("%s seed %d: %d of %d jobs failed" % (
                    workload, seed, res["failed"], res["attempted"]),
                    file=sys.stderr)
                steady = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        stats = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": spread, "values": vals}
            flag = ""
            if spread > bounds[name] / 3:
                flag = "  <-- above a third of the bound %.2f" % bounds[name]
                steady = False
            print("%-12s %-16s median %-14.6g spread %.4f%s" % (
                workload, name, med, spread, flag), file=sys.stderr)
        record["workloads"][workload] = stats
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
