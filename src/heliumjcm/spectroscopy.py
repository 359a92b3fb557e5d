"""Forward simulation of the Stark-spectroscopy observables.

A map pixel at (sweep value, E_perp) is built by re-solving the coupled
problem at that tuning field, cataloging the microwave transitions out of
the thermally occupied initial states, and depositing each line as a
unit-area frequency Gaussian converted to the E_perp axis by its own local
Stark slope. That slope factor makes the E_perp-integrated intensity equal
the in-band sum of weight times squared moment, which is the sum rule the
tests pin.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .coupled import (
    _EDGE_WEIGHT_LIMIT,
    CoupledSpectrum,
    HamiltonianBlocks,
    _certify,
)
from .errors import DegenerateField, HeliumJcmError, failure_text
from .materials import (
    BOLTZMANN,
    DEFAULT_BAND_GHZ,
    ELEMENTARY_CHARGE,
    GHZ,
    HBAR,
    V_PER_CM,
    BroadeningModel,
    FieldConfiguration,
    MaterialProperties,
    ProductBasis,
    cyclotron_frequency,
)
from .vertical import (
    VerticalSpectrum,
    _single_threaded_blas,
    solve_vertical,
    solver_report,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)

# A map pixel deposits the lines within this many widths of the drive.
_DEPOSIT_WINDOW = 8.0


def thermal_populations(cfg: FieldConfiguration, l_cut: int) -> np.ndarray:
    """Boltzmann weights of the Landau ladder, normalized over l = 0..l_cut.

    The vertical motion is assumed frozen in n = 1; its quantum is three
    orders of magnitude above k_B T here.
    """
    if cfg.b_z <= 0.0:
        raise DegenerateField("thermal populations need b_z > 0")
    if l_cut < 0:
        raise ValueError("l_cut must be non-negative")
    x = HBAR * cyclotron_frequency(cfg.b_z) / (BOLTZMANN * cfg.temperature)
    weights = np.exp(-x * np.arange(l_cut + 1))
    return weights / weights.sum()


@dataclass(frozen=True)
class TransitionLine:
    """One microwave line: initial product label with its thermal weight,
    final eigenstate, frequency, squared moment, and the Landau-index jump
    of the dominant components."""

    initial_label: tuple[int, int]
    weight: float
    final_index: int
    final_label: tuple[int, int]
    frequency_ghz: float
    moment_sq: float          # m^2
    sideband_order: int


class _Lines(NamedTuple):
    """Transition catalog of one spectrum as parallel arrays, one entry per
    line, in catalog order: by initial Landau index, then by final state;
    and the eigenstate each thermal label (1,l) starts from."""

    initial_states: np.ndarray  # eigenstate index of (1,l), l = 0..l_cut
    initial_l: np.ndarray       # Landau index of the initial label (1, l)
    final_index: np.ndarray
    final_n: np.ndarray         # dominant product label of the final state
    final_l: np.ndarray
    weight: np.ndarray          # thermal weight of the initial label
    frequency_ghz: np.ndarray
    moment_sq: np.ndarray       # m^2


def _catalog(
    spec: CoupledSpectrum,
    vs: VerticalSpectrum,
    populations: np.ndarray,
    mw_band_ghz: tuple[float, float],
) -> _Lines:
    """All lines out of the thermally occupied (1,l) states inside the band.

    Every eigenstate is labeled in one pass: the initial state of (1,l) is
    the eigenstate with the largest weight on |1,l>, and a final state is
    labeled by its strongest product component.
    """
    f_min, f_max = mw_band_ghz
    n_init = len(populations)
    if n_init > spec.basis.l_max + 1:
        raise ValueError(
            f"{n_init} thermal labels but the basis stops at "
            f"l_max = {spec.basis.l_max}")
    starts = np.argmax(spec.weights(n=1, l=slice(n_init)), axis=0)
    no_int, no_float = np.empty(0, dtype=int), np.empty(0)
    parts = [(no_int, no_int, no_float, no_float)]
    for l0 in range(n_init):
        k_init = int(starts[l0])
        freqs = (spec.eigenvalues - spec.eigenvalues[k_init]) / GHZ
        ks = np.nonzero((freqs >= f_min) & (freqs <= f_max))[0]
        ks = ks[ks != k_init]
        if not ks.size:
            continue
        moments = spec.moments(vs.z_matrix, k_init)[ks]
        # float_power squares through libm pow, as a float's ** does;
        # np.square rounds differently in about one value in a thousand
        parts.append((np.full(ks.size, l0), ks, freqs[ks],
                      np.float_power(moments, 2)))
    initial_l, final_index, freqs, moment_sq = map(np.concatenate,
                                                   zip(*parts))
    dominant_n, dominant_l, _ = spec.dominant_labels()
    return _Lines(
        initial_states=starts,
        initial_l=initial_l,
        final_index=final_index,
        final_n=dominant_n[final_index],
        final_l=dominant_l[final_index],
        weight=np.asarray(populations, dtype=float)[initial_l],
        frequency_ghz=freqs,
        moment_sq=moment_sq,
    )


def transition_catalog(
    spec: CoupledSpectrum,
    vs: VerticalSpectrum,
    populations: np.ndarray,
    mw_band_ghz: tuple[float, float],
) -> list[TransitionLine]:
    """All lines out of the thermally occupied (1,l) states with transition
    frequencies inside the band."""
    f_min, f_max = mw_band_ghz
    if f_min >= f_max:
        raise ValueError("empty frequency band")
    t = _catalog(spec, vs, populations, mw_band_ghz)
    return [
        TransitionLine(
            initial_label=(1, l0),
            weight=weight,
            final_index=k,
            final_label=(n_f, l_f),
            frequency_ghz=freq,
            moment_sq=moment_sq,
            sideband_order=l_f - l0,
        )
        for l0, weight, k, n_f, l_f, freq, moment_sq in zip(
            t.initial_l.tolist(), t.weight.tolist(), t.final_index.tolist(),
            t.final_n.tolist(), t.final_l.tolist(), t.frequency_ghz.tolist(),
            t.moment_sq.tolist())
    ]


class LineCenters(NamedTuple):
    """Line-center traces of a map as parallel arrays, one entry per place
    where the line of a label (1, initial_l) -> (final_n, final_l) crosses
    the drive along E_perp: by sweep row, then by label in the order the
    labels first appear along E_perp, then by E_perp. The center is
    interpolated linearly between two neighbouring points of the label,
    and area is that of the lower one."""

    sweep_value: np.ndarray
    e_perp_v_cm: np.ndarray
    initial_l: np.ndarray       # the labels in the basis's label dtype
    final_n: np.ndarray
    final_l: np.ndarray
    area: np.ndarray


def _line_centers(pixels, e_grid: np.ndarray, mw_frequency_ghz: float,
                  area_floor: float) -> tuple[np.ndarray, ...]:
    """The line centers of one sweep row as (e_perp, initial l, final n,
    final l, area) arrays. pixels holds each E_perp column's traced lines
    as five arrays: initial l, final n, final l, frequency and area.

    The lines at or above area_floor are grouped by label, ranked by first
    appearance, and ordered within a label by (E_perp, frequency, area).
    Each pair of neighbours whose detunings from the drive change sign, or
    whose first sits on the drive, gives one center."""
    l0, n_f, l_f, freq, area = map(np.concatenate, zip(*pixels))
    e = np.repeat(e_grid, [pixel[4].size for pixel in pixels])
    keep = area >= area_floor
    l0, n_f, l_f, freq, area, e = (column[keep] for column in
                                   (l0, n_f, l_f, freq, area, e))
    if not area.size:
        return e, l0, n_f, l_f, area
    base = int(max(l0.max(), n_f.max(), l_f.max())) + 1
    key = (l0.astype(np.int64) * base + n_f) * base + l_f
    _, first, label = np.unique(key, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))[label]
    order = np.lexsort((area, freq, e, rank))
    rank, detuning = rank[order], freq[order] - mw_frequency_ghz
    d0, d1 = detuning[:-1], detuning[1:]
    cross = np.nonzero((rank[:-1] == rank[1:])
                       & ((d0 == 0.0) | (d0 * d1 < 0.0)))[0]
    d0, d1 = d0[cross], d1[cross]
    frac = np.divide(d0, d0 - d1, out=np.zeros(cross.size), where=d0 != 0.0)
    at, e = order[cross], e[order]
    return (e[cross] + frac * (e[cross + 1] - e[cross]),
            l0[at], n_f[at], l_f[at], area[at])


@dataclass(frozen=True)
class AbsorptionMap:
    """Simulated absorption over (swept field) x (tuning field).

    intensity is normalized to unit maximum; failed pixels are NaN and
    listed in failures as (sweep index, e_perp index, message).
    """

    sweep_name: str
    sweep_values: np.ndarray
    e_perp_v_cm: np.ndarray
    intensity: np.ndarray
    lines: LineCenters = field(repr=False)
    config: FieldConfiguration | None = None
    mw_frequency_ghz: float = 0.0
    failures: list[tuple[int, int, str]] = field(default_factory=list)
    peak_raw: float = 1.0   # intensity * peak_raw restores physical units
    # Landau cut each pixel was solved on (-1 where it failed), capped at
    # landau_cap = basis.l_max, and its certificate: the largest weight on
    # the top two rungs of a state the pixel's output uses (NaN if failed)
    landau_cut: np.ndarray | None = field(default=None, repr=False)
    edge_weight: np.ndarray | None = field(default=None, repr=False)
    landau_cap: int = 0
    l_cut_clamped: int = 0   # pixels whose automatic thermal cut hit the cap
    vertical: dict | None = None   # vertical.solver_report of the columns

    def basis_report(self) -> dict:
        """The Landau cuts in summary: pixels per cut, the pixels that
        reached the cap with the certificate still failing and their worst
        edge weight, and the pixels whose thermal cut was clamped."""
        solved = self.landau_cut >= 0
        cuts, counts = np.unique(self.landau_cut[solved], return_counts=True)
        flagged = ((self.landau_cut == self.landau_cap)
                   & (self.edge_weight > _EDGE_WEIGHT_LIMIT))
        return {
            "l_max_cap": self.landau_cap,
            "edge_weight_limit": _EDGE_WEIGHT_LIMIT,
            "pixels_by_l_max": [[int(c), int(n)]
                                for c, n in zip(cuts, counts)],
            "cap_uncertified_pixels": int(flagged.sum()),
            "cap_uncertified_worst_edge_weight":
                float(self.edge_weight[flagged].max()) if flagged.any()
                else None,
            "thermal_cut_clamped_pixels": self.l_cut_clamped,
        }


def _auto_l_cut(cfg: FieldConfiguration, l_max: int) -> int:
    """Smallest ladder cut that holds the neglected Boltzmann tail below
    about 3e-4 of the total population."""
    x = HBAR * cyclotron_frequency(cfg.b_z) / (BOLTZMANN * cfg.temperature)
    return int(min(l_max, max(5, math.ceil(8.0 / max(x, 1e-6)))))


def _first_landau_cut(cfg: FieldConfiguration, l_cut: int, f_top_ghz: float,
                      cap: int) -> int:
    """Landau cut a pixel is first solved on: the thermal cut, the rungs a
    line at the top of the band can climb (f / f_c, f_c = omega_c / 2 pi),
    and four rungs of margin, at most cap."""
    f_c = cyclotron_frequency(cfg.b_z) / (2.0 * math.pi)   # Hz
    return min(cap, l_cut + math.ceil(f_top_ghz * 1e9 / f_c) + 4)


def _deposit(
    spec: CoupledSpectrum,
    vs: VerticalSpectrum,
    lines: _Lines,
    mw_frequency_ghz: float,
    width_ghz: float,
) -> float:
    """Absorption at one pixel: the sum over lines within 8 widths of the
    drive of area x Gaussian(frequency detuning) x |local Stark slope|.

    The slope is the Hellmann-Feynman diagonal form
    e (zbar_final - zbar_initial) / h with zbar the eigenstate-weighted z_nn.
    """
    if not lines.final_index.size:
        return 0.0
    zbar = (spec.weights().sum(axis=2)               # m, per eigenstate
            @ np.diag(vs.z_matrix)[:spec.basis.n_max])

    detuning = (lines.frequency_ghz - mw_frequency_ghz) / width_ghz
    near = np.abs(detuning) <= _DEPOSIT_WINDOW
    slope = np.abs(ELEMENTARY_CHARGE
                   * (zbar[lines.final_index[near]]
                      - zbar[lines.initial_states[lines.initial_l[near]]])
                   * V_PER_CM) / GHZ          # GHz per V/cm
    area = lines.weight[near] * lines.moment_sq[near]
    total = 0.0
    for a, d, k in zip(area.tolist(), detuning[near].tolist(), slope.tolist()):
        gaussian = math.exp(-0.5 * d**2) / (width_ghz * SQRT_2PI)
        total += a * gaussian * k
    return total


def absorption_map(
    mat: MaterialProperties,
    base_cfg: FieldConfiguration,
    sweep_name: str,
    sweep_values: np.ndarray,
    e_perp_values_v_cm: np.ndarray,
    mw_frequency_ghz: float,
    broadening: BroadeningModel = BroadeningModel(),
    basis: ProductBasis = ProductBasis(),
    l_cut: int | None = None,
    band_ghz: float = DEFAULT_BAND_GHZ,
    threads: int = 1,
) -> AbsorptionMap:
    """Simulate a 2D absorption map over a magnetic-field axis x E_perp.

    sweep_name must be "b_y" or "b_z"; the tuning axis is always E_perp, so
    sweeping it as the outer axis too is rejected. The map is computed one
    E_perp column at a time: one vertical solve and one HamiltonianBlocks
    serve every pixel of the column, on every Landau cut.

    basis.l_max is a cap on the Landau ladder. Each pixel is first solved
    on the cut _first_landau_cut gives for its field point, and climbs by
    the jumps _certify predicts until every state that reaches the
    output (the thermal initial states, and the final states of lines
    deposited or traced) holds at most _EDGE_WEIGHT_LIMIT on the top two
    rungs. A pixel that still fails at the cap keeps the cap's result and
    is counted in basis_report(). No pixel starts from another's cut, so
    the cuts do not depend on the grid order or on threads.

    threads is the number of threads that run columns: the calling thread
    and threads - 1 helpers (no more than the columns need) each take the
    next column from one shared iterator and write its pixels into the
    map's arrays. threads=1 starts no thread, and up to one thread per
    core helps. For the whole call, and process-wide, every loaded OpenBLAS
    runs on one thread (the previous count is restored on return), so the
    result is bit-identical for any threads value and any BLAS thread
    setting of the environment.
    """
    if sweep_name not in ("b_y", "b_z"):
        raise ValueError(
            f"sweep axis must be b_y or b_z, not {sweep_name!r}; the second "
            "axis is already e_perp"
        )
    if threads < 1:
        raise ValueError("threads must be at least 1")
    sweep_values = np.asarray(sweep_values, dtype=float)
    e_grid = np.asarray(e_perp_values_v_cm, dtype=float)
    if sweep_values.size == 0 or e_grid.size == 0:
        raise ValueError("sweep and e_perp axes must be non-empty")
    if (e_grid < 0.0).any():
        raise ValueError("e_perp must be non-negative")
    band = (mw_frequency_ghz - band_ghz, mw_frequency_ghz + band_ghz)
    if band[0] >= band[1]:
        raise ValueError("empty frequency band")
    cap = basis.l_max
    if l_cut is not None and not 0 <= l_cut <= cap:
        raise ValueError(f"l_cut = {l_cut} outside 0..basis.l_max = {cap}")

    shape = (sweep_values.size, e_grid.size)
    intensity = np.full(shape, np.nan)
    landau_cut = np.full(shape, -1)
    edge_weight = np.full(shape, np.nan)
    clamped = np.zeros(shape, dtype=bool)
    # each pixel's traced lines as five arrays (initial l, final n, final l
    # in the basis's narrow label dtype, frequency, area), none where it
    # failed; and its error, None where unset
    traced = np.empty(shape, dtype=object)
    traced.fill((*(np.empty(0, basis.label_dtype) for _ in range(3)),
                 np.empty(0), np.empty(0)))
    errors = np.empty(shape, dtype=object)
    solvers = [None] * e_grid.size   # each column's VerticalSolver

    def run_pixel(blocks: HamiltonianBlocks, i: int, j: int):
        """Write pixel (i, j), solved on the first Landau cut that passes
        the edge-weight certificate or on the cap, or its error."""
        cfg = base_cfg.replace(**{sweep_name: float(sweep_values[i]),
                                  "e_perp": blocks.vs.e_perp})
        try:
            # cap + 1 where the automatic cut wants more rungs than cap
            wanted = _auto_l_cut(cfg, cap + 1) if l_cut is None else l_cut
            cut = min(wanted, cap)
            populations = thermal_populations(cfg, cut)
            width = broadening.width_ghz(cfg)
            landau = _first_landau_cut(cfg, cut, band[1], cap)
            while landau is not None:
                spec = blocks.solve(cfg, landau)
                lines = _catalog(spec, blocks.vs, populations, band)
                area = lines.weight * lines.moment_sq
                # The traces below drop lines under 1e-6 of the strongest
                # area on the map; a line under 1e-6 of its own pixel's
                # strongest is one.
                keep = area >= 1e-6 * area.max(initial=0.0)
                near = (np.abs((lines.frequency_ghz - mw_frequency_ghz)
                               / width) <= _DEPOSIT_WINDOW)
                # the thermal initial states, and the final states of every
                # deposited or traced line
                states = np.union1d(lines.initial_states,
                                    lines.final_index[near | keep])
                edge, landau = _certify(spec, states, cap)
                if landau is not None:
                    del spec, lines   # not alive during the larger solve
        except HeliumJcmError as exc:
            errors[i, j] = exc
            return
        intensity[i, j] = _deposit(spec, blocks.vs, lines, mw_frequency_ghz,
                                   width)
        landau_cut[i, j] = spec.basis.l_max
        edge_weight[i, j] = edge
        clamped[i, j] = wanted > cap
        traced[i, j] = (*(labels[keep].astype(basis.label_dtype)
                          for labels in (lines.initial_l, lines.final_n,
                                         lines.final_l)),
                        lines.frequency_ghz[keep], area[keep])

    def run_column(j: int):
        e_perp = float(e_grid[j] * V_PER_CM)
        try:
            vs = solve_vertical(mat, e_perp, basis.n_max)
            blocks = HamiltonianBlocks(vs, basis)
        except HeliumJcmError as exc:
            errors[:, j] = exc
            return
        solvers[j] = vs.solver
        for i in range(sweep_values.size):
            run_pixel(blocks, i, j)

    columns = iter(range(e_grid.size))
    next_column = threading.Lock()

    def run_columns():
        while True:
            with next_column:
                j = next(columns, None)
            if j is None:
                return
            run_column(j)

    helpers = min(threads, e_grid.size) - 1
    with _single_threaded_blas, ThreadPoolExecutor(max(helpers, 1)) as pool:
        futures = [pool.submit(run_columns) for _ in range(helpers)]
        run_columns()
        for future in futures:   # re-raises a helper's unexpected exception
            future.result()
    failures = [(i, j, failure_text(exc))
                for (i, j), exc in np.ndenumerate(errors) if exc is not None]

    # Line-center traces: along E_perp at fixed sweep value, find where each
    # labeled line crosses the drive frequency. Lines carrying under 1e-6 of
    # the strongest area are invisible on any map and are dropped here.
    area_floor = 1e-6 * max((pixel[4].max() for pixel in traced.flat
                             if pixel[4].size), default=0.0)
    rows = []
    for i in range(sweep_values.size):
        centers = _line_centers(traced[i], e_grid, mw_frequency_ghz,
                                area_floor)
        traced[i] = None   # the row's pixel arrays are done with
        rows.append((np.full(centers[0].size, sweep_values[i]), *centers))
    lines = LineCenters(*map(np.concatenate, zip(*rows)))

    peak = np.nanmax(intensity) if np.isfinite(intensity).any() else np.nan
    if peak and np.isfinite(peak) and peak > 0.0:
        intensity = intensity / peak
    else:
        peak = 1.0
    for array in (intensity, landau_cut, edge_weight):
        array.setflags(write=False)
    return AbsorptionMap(
        sweep_name=sweep_name,
        sweep_values=sweep_values,
        e_perp_v_cm=e_grid,
        intensity=intensity,
        lines=lines,
        config=base_cfg,
        mw_frequency_ghz=mw_frequency_ghz,
        failures=failures,
        peak_raw=float(peak),
        landau_cut=landau_cut,
        edge_weight=edge_weight,
        landau_cap=cap,
        l_cut_clamped=int(clamped.sum()),
        vertical=solver_report(s for s in solvers if s is not None),
    )
