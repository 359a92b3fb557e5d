#!/bin/sh
# Byte-compare the artifacts of this checkout with those of <rev>.
#
#   scripts/compare_artifacts.sh <rev> [extra.cfg ...]
#
# Checks <rev> out in a temporary git worktree, runs
# scripts/regenerate_figures.sh from both trees with the same THREADS
# (default: one per core), runs the task of each extra config in both trees
# too, and compares the two output directories with diff -rq, which names
# each file that differs. The worktree is removed on exit. Exits 0 if every
# CSV and JSON is byte-identical, 1 on any difference, and with the status
# of a failing run otherwise; an extra config that exits 3 (a numerical
# failure, which still writes its artifacts) is compared like the others.
set -eu

if [ $# -lt 1 ]; then
    echo "usage: $0 <rev> [extra.cfg ...]" >&2
    exit 2
fi
rev="$1"
shift

here="$(cd "$(dirname "$0")/.." && pwd)"
THREADS="${THREADS:-$(nproc 2>/dev/null || echo 1)}"
export THREADS
tmp="$(mktemp -d)"
cleanup() {
    git -C "$here" worktree remove --force "$tmp/tree" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$here" worktree add --quiet --detach "$tmp/tree" "$rev"

for side in base change; do
    if [ "$side" = base ]; then tree="$tmp/tree"; else tree="$here"; fi
    out="$tmp/$side"
    echo "== $side: $tree"
    "$tree/scripts/regenerate_figures.sh" "$out"
    for cfg in "$@"; do
        echo "== $cfg"
        task=$(sed -n 's/^task *= *//p' "$cfg")
        # exit 3 (numerical failure) still writes artifacts to compare
        PYTHONPATH="$tree/src" python3 -m heliumjcm.cli "$task" \
            --config "$cfg" --out "$out" --threads "$THREADS" \
            || [ $? -eq 3 ]
    done
done

if diff -rq "$tmp/base" "$tmp/change"; then
    echo "identical: $(ls "$tmp/change" | wc -l) files against $rev"
else
    echo "artifacts differ from $rev" >&2
    exit 1
fi
