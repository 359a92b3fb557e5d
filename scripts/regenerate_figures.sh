#!/bin/sh
# Regenerate every committed figure dataset into out/ (or $1 if given; a
# relative path is taken from the root of the checkout). Runs the package
# from src/, so it works from a checkout without installing it.
# Maps run one worker thread per core unless THREADS=N says otherwise.
set -e

out="${1:-out}"
threads="${THREADS:-$(nproc 2>/dev/null || echo 1)}"
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

heliumjcm() {
    python3 -m heliumjcm.cli "$@"
}

for cfg in configs/fig2.cfg configs/fig3.cfg configs/fig4.cfg; do
    echo "== $cfg"
    task=$(sed -n 's/^task *= *//p' "$cfg")
    heliumjcm "$task" --config "$cfg" --out "$out"
done

for cfg in configs/fig6.cfg configs/fig8.cfg configs/fig9.cfg \
           configs/fig10.cfg; do
    echo "== $cfg"
    heliumjcm absorption-map --config "$cfg" --out "$out" \
        --threads "$threads"
done

echo "artifacts in $out/"
