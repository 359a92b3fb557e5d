"""Write the reference outputs that ``run.py`` compares against for the
default seed (a diagnostic, never a gate).

Run from the root of a source checkout, at the commit whose outputs should
become the reference::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def main() -> int:
    sys.path.insert(0, run.SRC)
    from workloads import WORKLOADS

    os.makedirs(run.WORK, exist_ok=True)
    reference = {}
    for name, workload in WORKLOADS.items():
        tmp = tempfile.mkdtemp(prefix="reference-", dir=run.WORK)
        try:
            bench = run.Run(workload, run.DEFAULT_SEED, "full", tmp)
            bench.repetition(0)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if bench.failed:
            print(f"error: {name} failed its output checks: "
                  + "; ".join(bench.problems), file=sys.stderr)
            return 1
        reference[name] = bench.reference_values
        print(f"{name}: {', '.join(bench.reference_values)}")
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
