#!/bin/sh
# Byte-compare the artifacts of this checkout with those of <rev>.
#
#   scripts/compare_artifacts.sh <rev> [extra.cfg ...]
#
# Extracts <rev> into a temporary directory with git archive, runs
# scripts/regenerate_figures.sh from both trees with the same THREADS
# (default: one per core), runs the task of this checkout's
# scripts/crossings.cfg (the certified minimum-gap climb), of its
# scripts/rates.cfg (the one task that writes its sidecar alone) and of each
# extra config in both trees too, so every computing task is compared, and
# compares the two output directories with diff -rq, which names each file
# that differs. The checkout then runs once
# more with THREADS=1 and OPENBLAS_NUM_THREADS=2, and that output is
# compared with its first, so a command line that no longer overrides the
# BLAS thread count as it loads, or a dependence on --threads, fails even
# when <rev> has the same fault (the runtime one-thread pin, which holds
# callers that load numpy first, is checked by tests/test_cli.py). Both
# trees also run validate on each of this checkout's configs/*.cfg and on
# each config above, and their stdout, stderr and exit status are compared
# with diff -r, which prints each difference. Last it prints the source
# line count, wc -l of src/heliumjcm/*.py, and the peak RSS and CPU
# seconds of each config's run (getrusage RUSAGE_CHILDREN ru_maxrss and
# ru_utime + ru_stime, taken by a python3 wrapper put first on PATH), of
# <rev> and of the checkout; neither changes the exit status.
# The temporary directory is removed on exit.
# Exits 0 if every CSV and JSON and every validate output is identical, 1
# on any difference, and with the status of a failing run otherwise; an
# extra config that exits 3 (a numerical failure, which still writes its
# artifacts) is compared like the others.
set -eu

if [ $# -lt 1 ]; then
    echo "usage: $0 <rev> [extra.cfg ...]" >&2
    exit 2
fi
rev="$1"
shift

here="$(cd "$(dirname "$0")/.." && pwd)"
set -- "$here/scripts/crossings.cfg" "$here/scripts/rates.cfg" "$@"
THREADS="${THREADS:-$(nproc 2>/dev/null || echo 1)}"
export THREADS
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
git -C "$here" archive "$rev" | tar -x -C "$tmp/tree"

# peak.py <log> <command ...>: run the command and append to <log> its
# config, the largest resident set, in MB, of any process it waited for,
# and the CPU seconds, user and system, of all of them
python="$(command -v python3)"
mkdir "$tmp/bin"
cat >"$tmp/bin/peak.py" <<'PY'
import os, resource, subprocess, sys
status = subprocess.call(sys.argv[2:])
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
if "--config" in sys.argv:
    cfg = sys.argv[sys.argv.index("--config") + 1]
    with open(sys.argv[1], "a") as fh:
        fh.write("%s %.1f %.2f\n" % (os.path.basename(cfg),
                                     usage.ru_maxrss / 1024.0,
                                     usage.ru_utime + usage.ru_stime))
sys.exit(status)
PY
PATH="$tmp/bin:$PATH"

# run <tree> <out> [extra.cfg ...]: every artifact of <tree> into <out>,
# and each config's peak RSS and CPU time into <out>.rss, through a python3
# first on PATH that runs the real one under peak.py
run() {
    tree="$1"
    out="$2"
    shift 2
    echo "== $out: $tree (THREADS=$THREADS)"
    printf '#!/bin/sh\nexec "%s" "%s" "%s" "%s" "$@"\n' "$python" \
        "$tmp/bin/peak.py" "$out.rss" "$python" >"$tmp/bin/python3"
    chmod +x "$tmp/bin/python3"
    "$tree/scripts/regenerate_figures.sh" "$out"
    for cfg in "$@"; do
        echo "== $cfg"
        task=$(sed -n 's/^task *= *//p' "$cfg")
        # exit 3 (numerical failure) still writes artifacts to compare
        PYTHONPATH="$tree/src" python3 -m heliumjcm.cli "$task" \
            --config "$cfg" --out "$out" --threads "$THREADS" \
            || [ $? -eq 3 ]
    done
}

# check <tree> <out> <cfg ...>: validate's stdout, stderr and exit status
# on each config into <out>/<index>-<config name>.{out,err,status}, run by
# the real python3 so that peak.py logs none of them
check() {
    tree="$1"
    out="$2"
    shift 2
    mkdir "$out"
    i=0
    for cfg in "$@"; do
        i=$((i + 1))
        name="$out/$i-$(basename "$cfg")"
        status=0
        PYTHONPATH="$tree/src" "$python" -m heliumjcm.cli validate \
            --config "$cfg" >"$name.out" 2>"$name.err" || status=$?
        echo "$status" >"$name.status"
    done
}

run "$tmp/tree" "$tmp/base" "$@"
run "$here" "$tmp/change" "$@"
(
    THREADS=1 OPENBLAS_NUM_THREADS=2
    export THREADS OPENBLAS_NUM_THREADS
    run "$here" "$tmp/pinned" "$@"
)
set -- "$here"/configs/*.cfg "$@"
check "$tmp/tree" "$tmp/base.validate" "$@"
check "$here" "$tmp/change.validate" "$@"

status=0
if diff -rq "$tmp/base" "$tmp/change"; then
    echo "identical: $(ls "$tmp/change" | wc -l) files against $rev"
else
    echo "artifacts differ from $rev" >&2
    status=1
fi
if diff -r "$tmp/base.validate" "$tmp/change.validate"; then
    echo "identical: validate on $# configs against $rev"
else
    echo "validate output differs from $rev" >&2
    status=1
fi
if diff -rq "$tmp/change" "$tmp/pinned"; then
    echo "identical: $(ls "$tmp/pinned" | wc -l) files with THREADS=1" \
        "OPENBLAS_NUM_THREADS=2"
else
    echo "artifacts differ with THREADS=1 OPENBLAS_NUM_THREADS=2" >&2
    status=1
fi
lines() { cat "$1"/src/heliumjcm/*.py | wc -l; }
echo "source lines (src/heliumjcm/*.py): $(lines "$tmp/tree") at $rev," \
    "$(lines "$here") in the checkout"
echo "peak RSS and CPU time per config: $rev -> checkout"
awk 'NR == FNR { rss[$1] = $2; cpu[$1] = $3; next }
     { printf "  %-14s %6s -> %6s MB  %6s -> %6s s\n",
              $1, rss[$1], $2, cpu[$1], $3 }' \
    "$tmp/base.rss" "$tmp/change.rss"
exit "$status"
