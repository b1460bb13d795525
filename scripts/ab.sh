#!/bin/sh
# A/B the benchmark: a parent revision against the working tree.
#
#   scripts/ab.sh <parent-rev> [workload] [pairs] [seconds]
#
# Run from the root of an mtdae checkout. The parent revision is
# exported with `git archive` into a throwaway directory and built
# there; the change side is the working tree as it stands (both build
# into their own .bench_build/ on the first run). Each pair runs
#
#   python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 0
#
# once on each side, alternating which side goes first, so a drift of
# the host over the session lands on both sides equally. Every run's
# end-to-end metrics, and the insts/s and calibration time whose product
# is sim_insts_per_cal, are printed as it finishes; at the end, for each
# workload, side and end-to-end metric of BENCHMARK.json, and for those
# two factors: the median, the interquartile range as a share of the
# median and the number of pairs that side won. The factors separate a
# faster simulator from a slower calibration loop, which moves with
# code placement alone. The script fails if any run is not
# "correct": true.
#
# Defaults: every workload of BENCHMARK.json, 10 pairs, 10 seconds.

set -eu

if [ $# -lt 1 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/ab.sh <parent-rev> [workload] [pairs] [seconds]" >&2
    exit 2
fi
rev=$1
workloads=${2:-all}
pairs=${3:-10}
seconds=${4:-10}

if [ ! -f BENCHMARK.json ] || [ ! -f perfbench/run.py ]; then
    echo "ab.sh: run me from the root of an mtdae checkout" >&2
    exit 2
fi
case $pairs$seconds in
    *[!0-9]* | '') echo "ab.sh: pairs and seconds must be numbers" >&2
                   exit 2 ;;
esac
if [ "$workloads" = all ]; then
    workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

change=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
parent="$tmp/parent"
mkdir "$parent"
git archive "$rev" | tar -x -C "$parent"
echo "ab.sh: parent $(git rev-parse --short "$rev") in $parent" >&2

# run <side> <dir> <workload>: one benchmark run, its JSON line appended
# to $tmp/<workload>.<side>.
run() {
    out=$(cd "$2" && python3 perfbench/run.py --workload "$3" --seed 1 \
          --seconds "$seconds" --trace 0 2>"$tmp/stderr") || {
        cat "$tmp/stderr" >&2
        echo "ab.sh: $1 run of $3 failed" >&2
        exit 1
    }
    line=$(printf '%s\n' "$out" | tail -n 1)
    printf '%s\n' "$line" >> "$tmp/$3.$1"
    # mtbench's stderr summary splits sim_insts_per_cal into its two
    # factors: a change can move the calibration loop's speed too.
    split=$(sed -n 's/.*median \([0-9.e+]*\) insts\/s, calibration \([0-9.e+]*\) ms.*/insts_per_s=\1 calibration_ms=\2/p' \
            "$tmp/stderr")
    printf '%s\n' "$split" >> "$tmp/$3.$1.split"
    printf '%s\n' "$line" | python3 -c '
import json, sys
d = json.loads(sys.stdin.read())
m = " ".join("%s=%.6g" % (k, v["value"]) for k, v in d["metrics"].items())
print("  %-6s correct=%s failed=%d/%d %s %s" % (sys.argv[1], d["correct"],
      d["failed"], d["attempted"], m, sys.argv[2]))' "$1" "$split"
}

for w in $workloads; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        echo "$w pair $i/$pairs"
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$parent" "$w"
            run change "$change" "$w"
        else
            run change "$change" "$w"
            run parent "$parent" "$w"
        fi
        i=$((i + 1))
    done
done

python3 - "$tmp" $workloads <<'EOF'
import json, statistics, sys

tmp, workloads = sys.argv[1], sys.argv[2:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
bad = 0

# The two factors of sim_insts_per_cal, from each run's stderr summary.
factors = [("insts_per_s", True), ("calibration_ms", False)]

def load(w, side):
    with open("%s/%s.%s" % (tmp, w, side)) as f:
        runs = [json.loads(line) for line in f]
    with open("%s/%s.%s.split" % (tmp, w, side)) as f:
        splits = [dict(kv.split("=") for kv in line.split())
                  for line in f]
    for r, sp in zip(runs, splits):
        for name, _ in factors:
            if name in sp:
                r["metrics"][name] = {"value": float(sp[name])}
    return runs

def spread(xs):
    med = statistics.median(xs)
    if len(xs) < 2 or not med:
        return med, 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return med, (q[2] - q[0]) / med

for w in workloads:
    runs = {s: load(w, s) for s in ("parent", "change")}
    for s, rs in runs.items():
        for r in rs:
            if r.get("correct") is not True or r.get("failed", 0):
                print("ab.sh: a %s run of %s is not correct: %s" % (s, w, r))
                bad = 1
    print("\n%s: %d pairs" % (w, len(runs["parent"])))
    print("  %-18s %-22s %-22s %-8s %s" % ("metric", "parent median (IQR)",
          "change median (IQR)", "change", "won parent/change"))
    rows = [(m["name"], m["better"] == "higher") for m in metrics]
    for name, higher in rows + factors:
        if not all(name in r["metrics"] for rs in runs.values()
                   for r in rs):
            print("  %-18s (not reported by every run)" % name)
            continue
        xs = {s: [r["metrics"][name]["value"] for r in rs]
              for s, rs in runs.items()}
        (pm, pi), (cm, ci) = spread(xs["parent"]), spread(xs["change"])
        won = sum((c > p) if higher else (c < p)
                  for p, c in zip(xs["parent"], xs["change"]))
        lost = sum((c < p) if higher else (c > p)
                   for p, c in zip(xs["parent"], xs["change"]))
        print("  %-18s %-22s %-22s %-8s %d/%d" % (
            name, "%.6g (%.1f%%)" % (pm, 100 * pi),
            "%.6g (%.1f%%)" % (cm, 100 * ci),
            "%+.1f%%" % (100 * (cm - pm) / pm if pm else 0.0), lost, won))
sys.exit(bad)
EOF
