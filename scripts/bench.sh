#!/bin/sh
# Run every benchmark workload, untraced and traced, and keep the results in
# one file.
#
#   scripts/bench.sh <pr> [seed]
#
# For each workload of BENCHMARK.json, runs
#
#   python3 perfbench/run.py --workload W --seed S --seconds T --trace X
#
# from this checkout with X = 0 (end-to-end medians) and X = 1 (per-layer
# metrics), where T is run_seconds of BENCHMARK.json and S defaults to 7.
# Writes BENCH_<pr>.json at the root of the checkout: the seed, the commit
# the checkout stands on and whether its tree differs from it, the name of
# the OpenBLAS kernel numpy's OpenBLAS picks on this CPU (its
# get_corename, found and typed through
# heliumjcm.vertical._openblas_functions; the printed digits of the
# artifacts depend on it), and per workload the last JSON line of each run
# and the environment block perfbench writes to its report under
# .perfbench/. Exits 0 when every run succeeded and reported
# "correct": true, 1 at the first run that fails or does not, 2 on a usage
# error.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <pr> [seed]" >&2
    exit 2
fi
pr="$1"
seed="${2:-7}"
case "$pr$seed" in
    *[!0-9]*)
        echo "$0: <pr> and [seed] are integers" >&2
        exit 2
        ;;
esac

here="$(cd "$(dirname "$0")/.." && pwd)"
cd "$here"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' HUP INT TERM

seconds=$(python3 -c 'import json
print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for workload in $workloads; do
    for trace in 0 1; do
        echo "bench: $workload, seed $seed, --trace $trace" >&2
        if ! python3 perfbench/run.py --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace "$trace" \
                >"$tmp/out" 2>"$tmp/err"; then
            echo "bench: $workload --trace $trace failed" >&2
            tail -n 20 "$tmp/err" >&2
            exit 1
        fi
        tail -n 1 "$tmp/out" >"$tmp/$workload-$trace.json"
    done
done

PYTHONPATH="$here/src" python3 - "$pr" "$seed" "$seconds" "$tmp" \
    $workloads <<'PY'
import ctypes
import json
import subprocess
import sys

import numpy  # noqa: F401  (loads the OpenBLAS whose kernel is named)

from heliumjcm.vertical import _openblas_functions

pr, seed, seconds, tmp, *workloads = sys.argv[1:]
cores = [func for (func,) in _openblas_functions(
    [((name, [], ctypes.c_char_p),)
     for name in ("scipy_openblas_get_corename64_", "openblas_get_corename")])]
head = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                      capture_output=True, text=True).stdout.strip()
dirty = bool(subprocess.run(["git", "status", "--porcelain", "--", "src"],
                            capture_output=True, text=True).stdout.strip())
bench = {
    "pr": int(pr),
    "seed": int(seed),
    "run_seconds": float(seconds),
    "commit": head,
    "src_differs_from_commit": dirty,
    "openblas_core": cores[0]().decode() if cores else None,
    "workloads": {},
}
failed = []
for workload in workloads:
    entry = {}
    for trace in ("0", "1"):
        with open(f"{tmp}/{workload}-{trace}.json") as fh:
            result = json.load(fh)
        entry[f"trace{trace}"] = result
        if not result["correct"]:
            failed.append(f"{workload} --trace {trace}")
    with open(f".perfbench/{workload}-seed{seed}-full-trace0.json") as fh:
        entry["environment"] = json.load(fh)["environment"]
    bench["workloads"][workload] = entry
with open(f"BENCH_{pr}.json", "w") as fh:
    json.dump(bench, fh, indent=1, sort_keys=True)
    fh.write("\n")
print(f"wrote BENCH_{pr}.json")
for run in failed:
    print(f"bench: {run} reported correct: false", file=sys.stderr)
sys.exit(1 if failed else 0)
PY
