#!/bin/sh
# Alternate benchmark runs of <rev> and of this checkout, and compare their
# end-to-end metrics pair by pair.
#
#   scripts/bench_pairs.sh <rev> <workload> <seed> [pairs]
#
# Extracts <rev> into a temporary directory with git archive and runs
#
#   python3 perfbench/run.py --workload W --seed S --seconds T --trace 0
#
# [pairs] times (default 10) in that tree and in the checkout, one after the
# other; T is run_seconds of BENCHMARK.json. <rev> runs first in
# odd-numbered pairs, the checkout first in even-numbered ones, so neither
# side always runs on a machine its partner has just warmed. Each run
# writes its report under its own tree's .perfbench/, and prints one line
# of its metrics as it ends. Last, for each end-to-end metric of
# BENCHMARK.json, the script prints the median and quartiles of both sides
# (statistics.quantiles, as perfbench summarizes) and how many pairs the
# checkout won by the metric's "better". The temporary directory is removed
# on exit, also on HUP, INT or TERM. Exits 0 when every run succeeded, 1 at
# the first run that fails or reports "correct": false, 2 on a usage error.
set -eu

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <rev> <workload> <seed> [pairs]" >&2
    exit 2
fi
rev="$1"
workload="$2"
seed="$3"
pairs="${4:-10}"

here="$(cd "$(dirname "$0")/.." && pwd)"
seconds=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/BENCHMARK.json")
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' HUP INT TERM
mkdir "$tmp/tree"
git -C "$here" archive "$rev" | tar -x -C "$tmp/tree"

# run <side> <tree> <pair>: one benchmark run of <tree>, its JSON result
# line appended to $tmp/results as "<side> <pair> <json>", where side is
# "rev" or "checkout"
run() {
    if ! (cd "$2" && python3 perfbench/run.py --workload "$workload" \
            --seed "$seed" --seconds "$seconds" --trace 0) \
            >"$tmp/out" 2>"$tmp/err"; then
        echo "pair $3, $1: run failed" >&2
        tail -n 20 "$tmp/err" >&2
        exit 1
    fi
    printf '%s %s %s\n' "$1" "$3" "$(tail -n 1 "$tmp/out")" >>"$tmp/results"
    python3 - "$tmp/results" "$rev" <<'PY'
import json
import sys

side, pair, result = open(sys.argv[1]).readlines()[-1].split(" ", 2)
result = json.loads(result)
side = sys.argv[2] if side == "rev" else side
print(f"pair {pair}, {side}: " + ", ".join(
    f"{name} {m['value']:.4g}" for name, m in result["metrics"].items()))
if not result["correct"]:
    print(f"pair {pair}, {side}: reported correct: false "
          f"({result['failed']} of {result['attempted']} failed)",
          file=sys.stderr)
    sys.exit(1)
PY
}

: >"$tmp/results"
pair=1
while [ "$pair" -le "$pairs" ]; do
    if [ $((pair % 2)) -eq 1 ]; then
        run rev "$tmp/tree" "$pair"
        run checkout "$here" "$pair"
    else
        run checkout "$here" "$pair"
        run rev "$tmp/tree" "$pair"
    fi
    pair=$((pair + 1))
done

python3 - "$here/BENCHMARK.json" "$tmp/results" "$rev" "$workload" \
    "$seed" <<'PY'
import json
import statistics
import sys

bench_path, results_path, rev, workload, seed = sys.argv[1:]
runs = {"rev": {}, "checkout": {}}
for line in open(results_path):
    side, pair, result = line.split(" ", 2)
    runs[side][int(pair)] = json.loads(result)["metrics"]
pairs = sorted(runs["checkout"])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


print(f"{workload}, seed {seed}: {len(pairs)} pairs, {rev} -> checkout, "
      "median (q1, q3)")
for metric in json.load(open(bench_path))["end_to_end"]:
    name = metric["name"]
    old = [runs["rev"][p][name]["value"] for p in pairs]
    new = [runs["checkout"][p][name]["value"] for p in pairs]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    won = sum(sign * (b - a) < 0.0 for a, b in zip(old, new))
    (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
    print(f"  {name:<13} {om:.4g} ({o1:.4g}, {o3:.4g}) -> "
          f"{nm:.4g} ({n1:.4g}, {n3:.4g}) {metric['unit']}, "
          f"{metric['better']} is better, checkout won {won}/{len(pairs)}")
PY
