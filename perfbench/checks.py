"""Output checks for each CLI invocation, and deviation from reference outputs.

``check_invocation`` reads the CSV and sidecar an invocation wrote and returns
which of its field points failed. A point fails when the sidecar lists it, when
the invocation exited non-zero, or when it fails a check:

- spectrum-sweep: energies ascend at every point, and the b_y = 0 overlay
  equals the sorted uncoupled fan E_n + hbar w_c l;
- shifts: for b_y > 0 the l = 0 perturbative and full shifts agree within 10%
  of |D0| (acceptance criterion 3a), D0 > 0 and D1 < 0 on both routes (3c);
- crossings: b_z_cross_t matches find_crossing, and gap_ghz is within 10% of
  2|g| (criterion 5a);
- absorption-map: one row per pixel, finite except for listed failures, every
  value in [0, 1] and the maximum equal to 1.

``reference_values`` extracts the numbers that are compared against the
reference outputs committed for the default seed; that comparison is a
diagnostic and never fails a point.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from heliumjcm import (
    FieldConfiguration,
    coupling_constant,
    cyclotron_frequency,
    find_crossing,
    material_for,
    solve_vertical,
)
from heliumjcm.materials import GHZ, HBAR, V_PER_CM

# CSV values carry 10 significant digits, so a value read back is within
# 5e-10 relative of what the program computed.
CSV_RTOL = 2e-9
CSV_ATOL_GHZ = 1e-9
SHIFT_BAND = 0.10          # acceptance criterion 3a
GAP_BAND = 0.10            # acceptance criterion 5a
REFERENCE_STATES = 16      # lowest states per sweep point kept as reference

OUTPUT_FILES = {
    "spectrum-sweep": "spectrum",
    "shifts": "shifts",
    "crossings": "crossings",
    "absorption-map": "map",
}


@dataclass
class CheckResult:
    points: int
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def fail(self, point, message: str) -> None:
        self.failed.add(point)
        if len(self.problems) < 5:
            self.problems.append(message)

    def fail_all(self, message: str) -> None:
        self.failed = set(range(self.points))
        self.problems.append(message)


def output_paths(inv, out_dir: str) -> tuple[str, str]:
    stem = os.path.join(out_dir, f"{inv.prefix}_{OUTPUT_FILES[inv.task]}")
    return stem + ".csv", stem + ".json"


def read_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _close(a: float, b: float, rtol: float = CSV_RTOL,
           atol: float = CSV_ATOL_GHZ) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


def vertical_for(inv):
    """The vertical solve the CLI makes for a fixed-E_perp invocation."""
    fields = inv.sections["fields"]
    n_max, _ = inv.basis()
    return solve_vertical(material_for(inv.sections["material"]["isotope"]),
                          fields["e_perp_v_cm"] * V_PER_CM, n_max)


def check_invocation(inv, out_dir: str, exit_code: int,
                     vertical=None) -> CheckResult:
    """Check one invocation's artifacts; ``vertical`` may pass a cached
    vertical solve for the invocation's E_perp."""
    result = CheckResult(inv.points)
    if exit_code != 0:
        result.fail_all(f"{inv.task} exited with code {exit_code}")
        return result
    csv_path, json_path = output_paths(inv, out_dir)
    try:
        rows = read_csv(csv_path)
        with open(json_path) as fh:
            sidecar = json.load(fh)
    except (OSError, ValueError) as exc:
        result.fail_all(f"{inv.task}: unreadable output: {exc}")
        return result
    checker = _CHECKERS[inv.task]
    if inv.task != "absorption-map" and vertical is None:
        vertical = vertical_for(inv)
    checker(inv, rows, sidecar, result, vertical)
    return result


def _sweep_points(inv) -> list[tuple[float, float]]:
    sweep = inv.sections["sweep"]
    values = np.linspace(sweep["start"], sweep["stop"], sweep["steps"])
    return [(float(v), float(b_y)) for b_y in sweep["b_y_values"] for v in values]


def _check_spectrum(inv, rows, sidecar, result, vs) -> None:
    n_max, l_max = inv.basis()
    size = n_max * (l_max + 1)
    points = _sweep_points(inv)
    listed = {(f["sweep_value"], f["b_y"]) for f in sidecar.get("failures", [])}
    if rows.shape[1] != 8:
        result.fail_all(f"spectrum: {rows.shape[1]} columns, expected 8")
        return
    expected_rows = size * sum(1 for p in points if p not in listed)
    if rows.shape[0] != expected_rows:
        result.fail_all(f"spectrum: {rows.shape[0]} rows, expected {expected_rows}")
        return
    levels = np.array([vs.energy(n) for n in range(1, n_max + 1)])
    at = 0
    for index, (value, b_y) in enumerate(points):
        if (value, b_y) in listed:
            result.fail(index, f"spectrum: point ({value}, {b_y}) listed as failed")
            continue
        block = rows[at:at + size]
        at += size
        if not (_close(block[0, 0], value, atol=1e-12)
                and _close(block[0, 1], b_y, atol=1e-12)
                and np.array_equal(block[:, 2], np.arange(size))):
            result.fail(index, f"spectrum: rows of point ({value}, {b_y}) "
                               "out of place")
            continue
        energies = block[:, 3]
        if np.any(np.diff(energies) < 0.0):
            result.fail(index, f"spectrum: energies not ascending at "
                               f"({value}, {b_y})")
            continue
        if b_y == 0.0:
            fan = np.sort((levels[:, None] + HBAR * cyclotron_frequency(value)
                           * np.arange(l_max + 1.0)[None, :]).ravel()) / GHZ
            bad = np.abs(energies - fan) > CSV_RTOL * np.abs(fan) + CSV_ATOL_GHZ
            if np.any(bad):
                k = int(np.argmax(bad))
                result.fail(index, f"spectrum: b_y = 0 overlay at b_z = {value} "
                                   f"state {k}: {energies[k]!r} GHz, uncoupled "
                                   f"fan {fan[k]!r} GHz")


def _check_shifts(inv, rows, sidecar, result, vs) -> None:
    sweep = inv.sections["sweep"]
    values = np.linspace(sweep["start"], sweep["stop"], sweep["steps"])
    l_values = sweep["l_values"]
    if rows.shape != (len(values) * len(l_values), 4):
        result.fail_all(f"shifts: table shape {rows.shape}")
        return
    listed = {(f["b_y"], f["l"]) for f in sidecar.get("failures", [])}
    for index, (b_y, l, pert, full) in enumerate(rows):
        want_b_y = float(values[index // len(l_values)])
        want_l = l_values[index % len(l_values)]
        if (want_b_y, want_l) in listed:
            result.fail(index, f"shifts: ({want_b_y}, {want_l}) listed as failed")
            continue
        if not (_close(b_y, want_b_y, atol=1e-12) and l == want_l):
            result.fail(index, f"shifts: row {index} out of place")
            continue
        if want_b_y == 0.0:
            if pert != 0.0 or full != 0.0:
                result.fail(index, f"shifts: nonzero shift at b_y = 0, l = {l}")
            continue
        if l == 0:
            if not (pert > 0.0 and full > 0.0):
                result.fail(index, f"shifts: D0 not positive at b_y = {b_y}")
            elif abs(full - pert) >= SHIFT_BAND * abs(pert):
                result.fail(index, f"shifts: l = 0 closed form {pert} vs full "
                                   f"{full} at b_y = {b_y}")
        elif l == 1 and not (pert < 0.0 and full < 0.0):
            result.fail(index, f"shifts: D1 not negative at b_y = {b_y}")


def _check_crossings(inv, rows, sidecar, result, vs) -> None:
    section = inv.sections["crossings"]
    pairs = [tuple(int(t) for t in chunk.split(","))
             for chunk in section["pairs"].split(";")]
    b_lo = section.get("b_z_min", 0.05)
    b_hi = section.get("b_z_max", 5.0)
    b_y = inv.sections["fields"]["b_y"]
    e_perp = inv.sections["fields"]["e_perp_v_cm"]
    by_pair = {(int(r[0]), int(r[1])): r for r in rows}
    for index, (n_hi, n_lo) in enumerate(pairs):
        row = by_pair.get((n_hi, n_lo))
        if row is None:
            result.fail(index, f"crossings: pair {n_hi},{n_lo} missing")
            continue
        _, _, b_cross, b_min, gap_ghz = row
        want = find_crossing(vs, ((n_hi, 0), (n_lo, 1)), (b_lo, b_hi))
        if not _close(b_cross, want, atol=1e-12):
            result.fail(index, f"crossings: pair {n_hi},{n_lo} crosses at "
                               f"{b_cross} T, find_crossing gives {want} T")
            continue
        if not (math.isfinite(b_min) and math.isfinite(gap_ghz)):
            result.fail(index, f"crossings: pair {n_hi},{n_lo} has no gap")
            continue
        cfg = FieldConfiguration.from_v_cm(e_perp, b_min, b_y)
        two_g = 2.0 * abs(coupling_constant(vs, cfg, n_hi, n_lo)) / GHZ
        if abs(gap_ghz / two_g - 1.0) >= GAP_BAND:
            result.fail(index, f"crossings: pair {n_hi},{n_lo} gap {gap_ghz} "
                               f"GHz vs 2|g| {two_g} GHz")


def _check_map(inv, rows, sidecar, result, vs) -> None:
    section = inv.sections["map"]
    n_s, n_e = section["sweep_steps"], section["e_perp_steps"]
    if rows.shape != (n_s * n_e, 3):
        result.fail_all(f"map: table shape {rows.shape}, grid {n_s}x{n_e}")
        return
    listed = {f["i"] * n_e + f["j"] for f in sidecar.get("failures", [])}
    values = rows[:, 2]
    finite = np.isfinite(values)
    if not finite.any() or np.nanmax(values) != 1.0:
        result.fail_all("map: maximum is not 1")
        return
    for index in range(n_s * n_e):
        if index in listed:
            result.fail(index, f"map: pixel {divmod(index, n_e)} listed as failed")
        elif not finite[index]:
            result.fail(index, f"map: pixel {divmod(index, n_e)} not finite")
        elif not 0.0 <= values[index] <= 1.0:
            result.fail(index, f"map: pixel {divmod(index, n_e)} = "
                               f"{values[index]!r} outside [0, 1]")


_CHECKERS = {
    "spectrum-sweep": _check_spectrum,
    "shifts": _check_shifts,
    "crossings": _check_crossings,
    "absorption-map": _check_map,
}


def reference_values(inv, out_dir: str) -> dict[str, list[float]]:
    """The numbers of one invocation's CSV that the reference keeps."""
    rows = read_csv(output_paths(inv, out_dir)[0])
    if inv.task == "spectrum-sweep":
        n_max, l_max = inv.basis()
        size = n_max * (l_max + 1)
        energies = rows[:, 3].reshape(-1, size)[:, :REFERENCE_STATES]
        return {"spectrum.energy_ghz": energies.ravel().tolist()}
    if inv.task == "shifts":
        return {"shifts.perturbative_ghz": rows[:, 2].tolist(),
                "shifts.full_ghz": rows[:, 3].tolist()}
    if inv.task == "crossings":
        return {"crossings.b_z_cross_t": rows[:, 2].tolist(),
                "crossings.b_z_min_gap_t": rows[:, 3].tolist(),
                "crossings.gap_ghz": rows[:, 4].tolist()}
    return {f"map.{inv.prefix}.intensity": rows[:, 2].tolist()}


def reference_deviation(values: dict, reference: dict) -> dict[str, float | str]:
    """Largest absolute deviation of each output from its reference."""
    out: dict[str, float | str] = {}
    for name, got in values.items():
        want = reference.get(name)
        if want is None:
            out[name] = "no reference"
        elif len(want) != len(got):
            out[name] = f"length {len(got)} vs reference {len(want)}"
        else:
            a = np.array(got, dtype=float)
            b = np.array(want, dtype=float)
            both_nan = np.isnan(a) & np.isnan(b)
            diff = np.where(both_nan, 0.0, np.abs(a - b))
            out[name] = float(np.max(diff)) if diff.size else 0.0
    return out
