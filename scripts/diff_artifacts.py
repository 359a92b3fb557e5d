#!/usr/bin/env python3
"""Numeric diff of two artifact directories.

    scripts/diff_artifacts.py <dir_a> <dir_b> [--tol X]

For each CSV present in both directories with the same header, prints the
number of cells that changed and, per changed column, the largest absolute
change and the largest change relative to that column's largest magnitude
in <dir_a>. A CSV whose header differs, or whose row count differs, is
reported as such. For each JSON sidecar present in both, lists the keys
(dotted paths) whose values differ or that one sidecar lacks, so a key
dropped from one side is listed even where the other held null. Exits 1 when a relative change exceeds
--tol (default 0), or a header or row count differs, else 0; sidecar keys
are listed but do not change the exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np


def _csv(path: str) -> tuple[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


_ABSENT = object()   # a key one side lacks: unequal to any JSON value


def _keys(a, b, prefix: str = "") -> list[str]:
    """Dotted paths at which the JSON values a and b differ, or which only
    one of them has."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [key for name in sorted(set(a) | set(b))
                for key in _keys(a.get(name, _ABSENT), b.get(name, _ABSENT),
                                 f"{prefix}{name}.")]
    return [] if a == b else [prefix.rstrip(".")]


def compare(dir_a: str, dir_b: str, tol: float, out=sys.stdout) -> int:
    status = 0
    for name in sorted(set(os.listdir(dir_a)) & set(os.listdir(dir_b))):
        path_a, path_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if name.endswith(".json"):
            with open(path_a) as fa, open(path_b) as fb:
                keys = _keys(json.load(fa), json.load(fb))
            if keys:
                print(f"{name}: keys differ: {', '.join(keys)}", file=out)
            continue
        if not name.endswith(".csv"):
            continue
        (head_a, rows_a), (head_b, rows_b) = _csv(path_a), _csv(path_b)
        if head_a != head_b:
            print(f"{name}: header differs: {head_a!r} vs {head_b!r}",
                  file=out)
            status = 1
            continue
        if rows_a.shape != rows_b.shape:
            print(f"{name}: {len(rows_a)} vs {len(rows_b)} rows", file=out)
            status = 1
            continue
        same = (rows_a == rows_b) | (np.isnan(rows_a) & np.isnan(rows_b))
        print(f"{name}: {int((~same).sum())} of {same.size} cells changed",
              file=out)
        for column, title in enumerate(head_a.split(",")):
            if same[:, column].all():
                continue
            change = np.abs(rows_b[:, column] - rows_a[:, column])
            # a value that turned into nan, or out of it, exceeds any tol
            change[np.isnan(change) & ~same[:, column]] = np.inf
            scale = np.nanmax(np.abs(rows_a[:, column]), initial=0.0)
            largest = float(np.nanmax(change, initial=0.0))
            relative = largest / scale if scale > 0.0 else np.inf
            print(f"  {title}: largest change {largest:.3g} absolute, "
                  f"{relative:.3g} of the column's largest magnitude",
                  file=out)
            if relative > tol:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    parser.add_argument("--tol", type=float, default=0.0,
                        help="largest column-relative change accepted")
    args = parser.parse_args(argv)
    return compare(args.dir_a, args.dir_b, args.tol)


if __name__ == "__main__":
    sys.exit(main())
