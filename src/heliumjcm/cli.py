"""Batch front-end: config-driven sweeps, maps, and reports.

Usage: heliumjcm <task> --config <path> [--out <dir>] [--threads N]

Artifacts are CSV (every value printed as %.10g, LF line endings, so
identical inputs and version give identical bytes) plus a JSON sidecar that
echoes everything needed to rerun: resolved config, physical constants,
material calibration, and any per-point failures. An absorption map also
writes its line-center traces to <prefix>_lines.csv (sweep value, E_perp,
initial l, final n, final l, area; the initial n is always 1), and its
sidecar's line_centers names that file and its row count.

Every computing task runs on one OpenBLAS thread, so the bytes do not
depend on the BLAS thread setting of the environment either. Run as a
program (python -m heliumjcm.cli, or the heliumjcm script), this module
sets OPENBLAS_NUM_THREADS=1 before numpy loads OpenBLAS, overriding any
value in the environment, so no idle BLAS thread pool is ever started.
Where numpy is already loaded (a library or test caller of main), the
environment is left alone, and vertical._single_threaded_blas pins every
loaded OpenBLAS to one thread for the task and restores its count after.

validate, and a configuration error, load no numpy: this module imports
only the standard library, config, errors and materials as it loads, and
numpy and the task modules are imported when a computing task or self-test
first calls into them. The six forwarders here (solve_vertical,
truncation_report, absorption_map, minimum_gap, transition_shift_ghz,
full_transition_shift_ghz) import the real function on call: the benchmark
tracer wraps these names and tests replace them, so a wrapper or double set
on this module is what every task calls. HamiltonianBlocks, find_crossing,
strong_coupling_report and solver_report are imported inside the runners,
which repeat no decision of the library or of RunConfig.validate.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(artifacts still written, failures listed in the sidecar; a task that fails
as a whole writes its CSV header alone, or the rates sidecar alone, and
lists the error), 4 self-test failure. Every sidecar carries failures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from typing import TYPE_CHECKING

# OpenBLAS starts a pool of one thread per core as numpy loads it. No task
# uses it (each runs under the one-thread pin in main), yet an idle pool
# thread spins for about 0.13 s of CPU per process. Asking for one thread
# before the load, which the first computing call makes, starts no pool.
if "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import __version__
from .config import RunConfig, load_run_config
from .errors import ConfigError, HeliumJcmError, failure_text
from .materials import (
    BOLTZMANN,
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    GHZ,
    HBAR,
    PLANCK,
    VACUUM_PERMITTIVITY,
    V_PER_CM,
    FieldConfiguration,
    MaterialProperties,
    ProductBasis,
    cyclotron_frequency,
    material_for,
)

if TYPE_CHECKING:
    import numpy as np

    from .coupled import CoupledSpectrum, HamiltonianBlocks


def _forward(module: str, name: str):
    """The module-level function `name` of this module: it imports
    <module>.<name>, and with it numpy, on call and forwards to it."""
    def forward(*args, **kwargs):
        real = getattr(importlib.import_module(module, __package__), name)
        return real(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    return forward


solve_vertical = _forward(".vertical", "solve_vertical")
truncation_report = _forward(".vertical", "truncation_report")
absorption_map = _forward(".spectroscopy", "absorption_map")
minimum_gap = _forward(".coupled", "minimum_gap")
transition_shift_ghz = _forward(".analytics", "transition_shift_ghz")
full_transition_shift_ghz = _forward(".analytics",
                                     "full_transition_shift_ghz")

OUT_DIR_ENV = "HELIUMJCM_OUT"


def _write_csv(path: str, header: list[str], rows) -> None:
    """Header and rows, every value printed as %.10g.

    rows is a sized sequence of rows of len(header) numbers each (a list of
    tuples, a float array, or _SweepRows), read 1,024 rows at a time by
    slicing: each slice np.asarray takes as a float table, and only that
    block is held as floats and text. A row of another width raises
    ValueError. %.10g prints a float as format(v, ".10g") does, an integer
    below 1e10 as str() does, and nan and inf literally; adding 0.0 to each
    block turns -0.0 into 0.0, which prints as 0.
    """
    import numpy as np

    line = ",".join(["%.10g"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), 1024):
            block = np.asarray(rows[start:start + 1024], dtype=float)
            block = block.reshape(len(block), len(header)) + 0.0
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


class _SweepRows:
    """The spectrum-sweep table, filled in place one solved point at a time
    and held in compact columns: per row the eigenvalue (J) and dominant
    weight as float64 and the dominant n and l in the basis's narrow label
    dtype; per point the sweep value, b_y and ground energy. Its length is
    the row count, and a slice gives those rows as the float table
    _write_csv prints: sweep_value, b_y, state, energy_ghz, energy_rel_ghz,
    dominant_n, dominant_l, dominant_weight."""

    def __init__(self, points: int, basis: ProductBasis):
        import numpy as np

        self.size = basis.size
        self.energy = np.empty(points * self.size)
        self.weight = np.empty(points * self.size)
        self.n = np.empty(points * self.size, basis.label_dtype)
        self.l = np.empty(points * self.size, basis.label_dtype)
        self.point = np.empty((points, 3))   # sweep value, b_y, ground (J)
        self.points = 0

    def append(self, value: float, b_y: float,
               spec: CoupledSpectrum) -> None:
        block = slice(self.points * self.size, (self.points + 1) * self.size)
        self.energy[block] = spec.eigenvalues
        self.n[block], self.l[block], self.weight[block] = (
            spec.dominant_labels())
        self.point[self.points] = (value, b_y,
                                   spec.eigenvalues[spec.locate(1, 0)])
        self.points += 1

    def __len__(self) -> int:
        return self.points * self.size

    def __getitem__(self, rows: slice) -> np.ndarray:
        import numpy as np

        span = range(len(self))[rows]
        index = np.arange(span.start, span.stop, span.step)
        point, state = np.divmod(index, self.size)
        value, b_y, ground = self.point[point].T
        energy = self.energy[index]
        return np.column_stack((value, b_y, state, energy / GHZ,
                                (energy - ground) / GHZ, self.n[index],
                                self.l[index], self.weight[index]))


def _sidecar(cfg: RunConfig, extra: dict) -> dict:
    mat = cfg.material()
    body = {
        "version": __version__,
        "task": cfg.task,
        "resolved_config": dict(cfg.resolved_items()),
        "constants": {
            "elementary_charge_C": ELEMENTARY_CHARGE,
            "electron_mass_kg": ELECTRON_MASS,
            "hbar_Js": HBAR,
            "planck_Js": PLANCK,
            "boltzmann_JK": BOLTZMANN,
            "vacuum_permittivity_Fm": VACUUM_PERMITTIVITY,
        },
        "material": {
            "isotope": mat.isotope,
            "rydberg_energy_J": mat.rydberg_energy,
            "bohr_radius_m": mat.bohr_radius,
            "epsilon": mat.epsilon,
            "lambda_Jm": mat.lambda_coupling,
            "barrier_height_J": mat.barrier_height,
            "surface_tension_Nm": mat.surface_tension,
            "mass_density_kgm3": mat.mass_density,
        },
    }
    body.update(extra)
    return body


def _write_sidecar(path: str, cfg: RunConfig, extra: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        # ndarrays and numpy scalars are the only values json cannot take
        json.dump(_sidecar(cfg, extra), fh, indent=2, sort_keys=True,
                  default=lambda obj: obj.tolist())
        fh.write("\n")


def _emit(cfg: RunConfig, out_dir: str, stem: str, header: list[str] | None,
          rows, extra: dict, failures: list, tables=()) -> int:
    """Write each further table (name, header, rows), then the task's own
    unless header is None, to out_dir/<prefix>_<name>.csv and the sidecar
    to <prefix>_<stem>.json, making out_dir if it is missing; print the
    summary line, and return the exit code: 3 if any point failed, else
    0."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{cfg.prefix}_")
    for name, table_header, table in (*tables, (stem, header, rows)):
        if table_header is not None:
            _write_csv(f"{path}{name}.csv", table_header, table)
    _write_sidecar(f"{path}{stem}.json", cfg, {**extra, "failures": failures})
    print(f"wrote {path}{stem}.json" if header is None else
          f"wrote {path}{stem}.csv ({len(rows)} rows, {len(failures)} failed)")
    return 3 if failures else 0


def _fixed_e_perp(
    cfg: RunConfig,
) -> tuple[FieldConfiguration, HamiltonianBlocks]:
    """The base field point and the Hamiltonian blocks of its one vertical
    solve, which every field point of a fixed-E_perp task shares. If that
    solve fails, main writes no rows and lists the error."""
    from .coupled import HamiltonianBlocks

    base = cfg.field_config()
    vs = solve_vertical(cfg.material(), base.e_perp, cfg.n_max)
    return base, HamiltonianBlocks(vs, cfg.basis())


def _run_spectrum_sweep(cfg: RunConfig, threads: int) -> tuple:
    import numpy as np

    from .vertical import solver_report

    base, blocks = _fixed_e_perp(cfg)
    vs = blocks.vs
    values = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_steps)
    overlays = cfg.b_y_values or (base.b_y,)   # validate: b_z sweeps only

    rows = _SweepRows(len(overlays) * values.size, blocks.basis)
    failures = []
    for b_y in overlays:
        overlay = base.replace(b_y=float(b_y))
        for value in values:
            point = overlay.replace(**{cfg.sweep_axis: float(value)})
            try:
                spec = blocks.solve(point)
            except HeliumJcmError as exc:
                failures.append({"sweep_value": float(value),
                                 "b_y": float(point.b_y),
                                 "error": failure_text(exc)})
                continue
            rows.append(value, point.b_y, spec)

    return rows, {"vertical": solver_report([vs.solver]),
                  "sweep_axis": cfg.sweep_axis,
                  "overlay_b_y": list(overlays),
                  "vertical_levels_ghz":
                      [vs.energy(n) / GHZ for n in range(1, vs.n_max + 1)],
                  "truncation_residuals": truncation_report(vs)}, failures


def _run_shifts(cfg: RunConfig, threads: int) -> tuple:
    import numpy as np

    from .vertical import solver_report

    base, blocks = _fixed_e_perp(cfg)
    vs = blocks.vs
    values = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_steps)

    rows = []
    failures = []
    for b_y in values:
        point = base.replace(b_y=float(b_y))
        try:
            full = full_transition_shift_ghz(blocks, point, cfg.l_values)
        except HeliumJcmError as exc:
            full = [float("nan")] * len(cfg.l_values)
            failures.extend({"b_y": float(b_y), "l": l,
                             "error": failure_text(exc)} for l in cfg.l_values)
        for l, full_l in zip(cfg.l_values, full):
            try:
                pert = transition_shift_ghz(vs, point, l)
            except HeliumJcmError as exc:
                pert = float("nan")
                failures.append({"b_y": float(b_y), "l": l,
                                 "error": failure_text(exc)})
            rows.append((float(b_y), l, pert, full_l))

    return (rows, {"transition_ghz": vs.transition_frequency_ghz(1, 2),
                   "vertical": solver_report([vs.solver])}, failures)


def _run_crossings(cfg: RunConfig, threads: int) -> tuple:
    from .coupled import find_crossing
    from .vertical import solver_report

    base, blocks = _fixed_e_perp(cfg)

    rows = []
    failures = []
    for n_hi, n_lo in cfg.crossing_pairs:
        pair = ((n_hi, 0), (n_lo, 1))
        try:
            b_star = find_crossing(blocks.vs, pair, (cfg.b_z_min, cfg.b_z_max))
        except HeliumJcmError as exc:
            failures.append({"pair": [n_hi, n_lo], "error": failure_text(exc)})
            continue
        b_min = gap = float("nan")
        if base.b_y != 0.0:
            try:
                b_min, gap = minimum_gap(blocks, base, pair)
            except HeliumJcmError as exc:
                failures.append({"pair": [n_hi, n_lo],
                                 "error": failure_text(exc)})
        rows.append((n_hi, n_lo, b_star, b_min, gap / GHZ))

    return rows, {"vertical": solver_report([blocks.vs.solver])}, failures


def _run_absorption_map(cfg: RunConfig, threads: int) -> tuple:
    import numpy as np

    sweep = np.linspace(cfg.map_sweep_start, cfg.map_sweep_stop,
                        cfg.map_sweep_steps)
    e_grid = np.linspace(cfg.map_e_perp_start, cfg.map_e_perp_stop,
                         cfg.map_e_perp_steps)
    amap = absorption_map(
        cfg.material(), cfg.field_config(), cfg.map_sweep_axis, sweep, e_grid,
        cfg.mw_frequency_ghz,
        broadening=cfg.broadening(),
        basis=cfg.basis(),
        l_cut=cfg.l_cut,
        band_ghz=cfg.band_ghz,
        threads=threads,
    )

    lines = ("lines", [cfg.map_sweep_axis, "e_perp_v_cm", "initial_l",
                       "final_n", "final_l", "area"],
             np.column_stack(amap.lines))
    sweep_col, e_col = np.meshgrid(amap.sweep_values, amap.e_perp_v_cm,
                                   indexing="ij")
    rows = np.column_stack((sweep_col.ravel(), e_col.ravel(),
                            amap.intensity.ravel()))
    return rows, {"mw_frequency_ghz": amap.mw_frequency_ghz,
                  "sweep_axis": amap.sweep_name,
                  "line_centers": {"file": f"{cfg.prefix}_lines.csv",
                                   "rows": len(amap.lines.area)},
                  "basis": amap.basis_report(),
                  "vertical": amap.vertical}, [
        {"i": i, "j": j, "error": msg} for i, j, msg in amap.failures], [lines]


def _run_rates(cfg: RunConfig, threads: int) -> tuple:
    from .dissipation import strong_coupling_report
    from .vertical import solver_report

    base, blocks = _fixed_e_perp(cfg)
    report = strong_coupling_report(
        blocks.vs, base, pair=cfg.rates_pair, nu_0=cfg.nu_0,
        include_occupation=cfg.include_occupation)
    return [], {"vertical": solver_report([blocks.vs.solver]), "report": {
        "g_over_h_ghz": report.g_ghz,
        "rate_vertical_per_s": report.rate_vertical,
        "rate_ladder_per_s": report.rate_ladder,
        "elastic_rate_per_s": report.elastic_rate,
        "coherence_ratio": report.ratio,
    }}, []


def _self_test_checks(mat: MaterialProperties) -> list[tuple[str, bool, str]]:
    """Hydrogenic limit, sum rule, uncoupled fan: (name, passed, detail)."""
    from .coupled import HamiltonianBlocks, assemble_hamiltonian, diagonalize

    checks: list[tuple[str, bool, str]] = []

    vs = solve_vertical(mat, 0.0, 4)
    worst_e = max(abs(vs.energy(n) / (-mat.rydberg_energy / n**2) - 1.0)
                  for n in range(1, 5))
    checks.append(("hydrogenic energies within 0.1%", worst_e < 1e-3,
                   f"worst relative error {worst_e:.2e}"))
    worst_z = max(abs(vs.z_elem(n, n) / (1.5 * n**2 * mat.bohr_radius) - 1.0)
                  for n in range(1, 5))
    checks.append(("hydrogenic dipole diagonals within 0.1%", worst_z < 1e-3,
                   f"worst relative error {worst_z:.2e}"))

    vs6 = solve_vertical(mat, 15.0 * V_PER_CM, 6)
    resid = truncation_report(vs6)[0]
    checks.append(("ground-state dipole sum rule within 5%", resid < 0.05,
                   f"missing weight {resid:.2%}"))

    # the dense solver on the b_y = 0 matrix against the closed-form fan
    cfg0 = FieldConfiguration(e_perp=15.0 * V_PER_CM, b_z=0.65, b_y=0.0)
    blocks = HamiltonianBlocks(vs6, ProductBasis(n_max=4, l_max=12))
    dense = diagonalize(assemble_hamiltonian(blocks, cfg0), blocks.basis)
    hw_c = HBAR * cyclotron_frequency(0.65)
    expected = sorted(vs6.energy(n) + hw_c * l
                      for n in range(1, 5) for l in range(13))
    fan_err = max(abs(a - b) for a, b in zip(dense.eigenvalues, expected))
    checks.append(("uncoupled ladder fan exact", fan_err < 1e-9 * GHZ,
                   f"worst deviation {fan_err / GHZ:.2e} GHz"))
    return checks


def _run_self_test(cfg: RunConfig | None, threads: int) -> int:
    """Fast bundled regression; exit 4 if a check fails or crashes."""
    mat = cfg.material() if cfg is not None else material_for("he3")
    try:
        checks = _self_test_checks(mat)
    except HeliumJcmError as exc:
        print(f"self-test crashed: {exc}", file=sys.stderr)
        return 4
    for name, passed, detail in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return 0 if all(passed for _, passed, _ in checks) else 4


def _run_validate(cfg: RunConfig, threads: int) -> int:
    """The config checks in main are the whole task; list what they passed."""
    for name, value in cfg.resolved_items():
        print(f"  {name} = {value}")
    return 0


# subcommand -> (help text, runner(cfg, threads), artifact stem, CSV header
# line, which may name a config field). A runner with a stem returns (rows,
# sidecar keys, failures), and optionally a list of further tables (name,
# header, rows), for main to write (the sidecar alone if there is no
# header); one without returns its exit code.
_TASKS = {
    "spectrum-sweep": ("eigenvalue fan over a magnetic-field sweep",
                       _run_spectrum_sweep, "spectrum",
                       "sweep_value,b_y,state,energy_ghz,energy_rel_ghz,"
                       "dominant_n,dominant_l,dominant_weight"),
    "absorption-map": ("microwave absorption over field x tuning field",
                       _run_absorption_map, "map",
                       "{cfg.map_sweep_axis},e_perp_v_cm,intensity"),
    "shifts": ("perturbative vs exact transition shifts over b_y",
               _run_shifts, "shifts", "b_y,l,perturbative_ghz,full_ghz"),
    "crossings": ("uncoupled crossing fields and dressed minimum gaps",
                  _run_crossings, "crossings",
                  "n_upper,n_lower,b_z_cross_t,b_z_min_gap_t,gap_ghz"),
    "rates": ("coupling vs ripplon decay at one operating point", _run_rates,
              "rates", None),
    "self-test": ("bundled regression checks", _run_self_test, None, None),
    "validate": ("check a config without computing", _run_validate, None,
                 None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heliumjcm",
        description="Rydberg-Landau spectra of surface electrons on "
                    "liquid helium in tilted magnetic fields",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task, (help_text, *_) in _TASKS.items():
        p = sub.add_parser(task, help=help_text)
        p.add_argument("--config",
                       required=task != "self-test",
                       help="path to an INI run configuration")
        p.add_argument("--out", default=None,
                       help="output directory (default [output] out_dir, "
                            f"else ${OUT_DIR_ENV}, else ./out)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for map columns (at least 1; "
                            "up to one per core helps). Every computing task "
                            "runs with OpenBLAS pinned to one thread, so its "
                            "artifacts do not depend on --threads or BLAS "
                            "settings")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads < 1:
        print(f"error: --threads must be at least 1, not {args.threads}",
              file=sys.stderr)
        return 2

    # validate reads run.task from the file; every other task is the
    # subcommand, and self-test alone runs without a config
    validating = args.task == "validate"
    cfg = None
    if args.config is not None:
        try:
            cfg = load_run_config(args.config,
                                  task=None if validating else args.task)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        errors, warnings = cfg.validate()
        for line in warnings:
            print(f"warning: {line}",
                  file=sys.stdout if validating else sys.stderr)
        for line in errors:
            print(f"error: {line}", file=sys.stderr)
        if errors:
            return 2
        if validating:
            print(f"ok: {args.config} ({cfg.task})")

    _, runner, stem, header = _TASKS[args.task]
    if validating:   # computes nothing, so skips the pin and numpy
        return runner(cfg, args.threads)
    from .vertical import _single_threaded_blas

    with _single_threaded_blas:
        if stem is None:
            return runner(cfg, args.threads)
        try:
            result = runner(cfg, args.threads)
        except HeliumJcmError as exc:
            result = [], {}, [{"error": failure_text(exc)}]
    out_dir = args.out or cfg.out_dir or os.environ.get(OUT_DIR_ENV, "out")
    return _emit(cfg, out_dir, stem,
                 header and header.format(cfg=cfg).split(","), *result)


if __name__ == "__main__":
    sys.exit(main())
