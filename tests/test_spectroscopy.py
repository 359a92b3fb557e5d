"""Thermal weights, linewidths, the transition catalog, and the simulated
absorption maps."""

import math
import sys
import threading
from dataclasses import dataclass, field

import numpy as np
import pytest
from scipy.constants import (
    e as QE,
    h as PLANCK,
    hbar as HBAR,
    k as KB,
    m_e as ME,
)

from heliumjcm import (
    AbsorptionMap,
    BroadeningModel,
    ConvergenceFailure,
    DegenerateField,
    FieldConfiguration,
    HamiltonianBlocks,
    ProductBasis,
    absorption_map,
    coupled,
    solve_vertical,
    spectroscopy,
    thermal_populations,
    transition_catalog,
    vertical,
)
from heliumjcm.materials import ELEMENTARY_CHARGE, GHZ, V_PER_CM
from heliumjcm.spectroscopy import SQRT_2PI, TransitionLine


def test_thermal_populations_boltzmann():
    cfg = FieldConfiguration.from_v_cm(15.0, 0.584, temperature=0.33)
    pops = thermal_populations(cfg, 40)
    assert pops.sum() == pytest.approx(1.0, rel=1e-12)
    x = HBAR * QE * 0.584 / ME / (KB * 0.33)
    assert pops[1] / pops[0] == pytest.approx(math.exp(-x), rel=1e-9)
    # frozen operating point
    assert pops[0] == pytest.approx(0.90721, abs=2e-4)
    with pytest.raises(DegenerateField):
        thermal_populations(cfg.replace(b_z=0.0), 10)
    with pytest.raises(ValueError):
        thermal_populations(cfg, -1)


def test_population_ordering():
    cold = thermal_populations(
        FieldConfiguration.from_v_cm(15.0, 0.584, temperature=0.1), 30)
    warm = thermal_populations(
        FieldConfiguration.from_v_cm(15.0, 0.584, temperature=0.4), 30)
    assert cold[0] > warm[0]
    assert np.all(np.diff(warm) < 0.0)


def test_broadening_base_only_without_coupling_field():
    model = BroadeningModel()
    cfg = FieldConfiguration.from_v_cm(15.0, 0.584, 0.0)
    assert model.width_ghz(cfg) == model.base_width_ghz


def test_broadening_even_and_monotone_in_b_y():
    model = BroadeningModel()
    cfg = FieldConfiguration.from_v_cm(15.0, 0.584, 0.3)
    assert model.width_ghz(cfg) == model.width_ghz(cfg.replace(b_y=-0.3))
    widths = [model.width_ghz(cfg.replace(b_y=b)) for b in (0.1, 0.3, 0.6)]
    assert widths[0] < widths[1] < widths[2]
    assert widths[0] > model.base_width_ghz


def test_broadening_thermal_gate():
    # the thermal term only enters once the Landau splitting drops below
    # k_B T; above that the in-plane motion is frozen
    gated = BroadeningModel(include_thermal=True)
    ungated = BroadeningModel(include_thermal=False)
    quantum = FieldConfiguration.from_v_cm(15.0, 0.584, 0.3, 0.33)
    classical = FieldConfiguration.from_v_cm(15.0, 0.10, 0.3, 0.35)
    assert gated.width_ghz(quantum) == ungated.width_ghz(quantum)
    assert gated.width_ghz(classical) > ungated.width_ghz(classical)


def test_broadening_many_electron_term():
    cfg = FieldConfiguration.from_v_cm(15.0, 0.584, 0.2, 0.33)
    model = BroadeningModel(areal_density_cm2=1e7)
    e_f = 4.3e-6 * 1e7**0.75
    want = math.hypot(0.2, 0.74 * (0.2 / 0.584) * e_f)
    assert model.width_ghz(cfg) == pytest.approx(want, rel=1e-12)
    # denser pool, broader line
    assert BroadeningModel(areal_density_cm2=1e8).width_ghz(cfg) > \
        model.width_ghz(cfg)


def test_catalog_uncoupled_limit(vs15):
    # without the coupling field the dipole only changes n, so every line
    # out of (1,l) lands on (n,l) at the bare vertical frequency
    cfg = FieldConfiguration.from_v_cm(15.0, 0.584, 0.0, 0.33)
    spec = HamiltonianBlocks(vs15, ProductBasis(6, 12)).solve(cfg)
    pops = thermal_populations(cfg, 4)
    lines = transition_catalog(spec, vs15, pops, (60.0, 115.0))
    strong = [ln for ln in lines if ln.moment_sq > 1e-22]
    assert strong
    for ln in strong:
        assert ln.sideband_order == 0
        n_f = ln.final_label[0]
        assert ln.final_label[1] == ln.initial_label[1]
        assert ln.frequency_ghz == pytest.approx(
            vs15.transition_frequency_ghz(1, n_f), abs=1e-9)
    # weights follow the thermal ladder
    by_l = {ln.initial_label[1]: ln.weight for ln in strong
            if ln.final_label[0] == 2}
    assert by_l[1] / by_l[0] == pytest.approx(pops[1] / pops[0], rel=1e-12)


def test_catalog_sidebands(vs15):
    # the coupling field opens sidebands one cyclotron quantum away
    cfg = FieldConfiguration.from_v_cm(15.0, 0.584, 0.1, 0.33)
    spec = HamiltonianBlocks(vs15, ProductBasis(6, 20)).solve(cfg)
    pops = thermal_populations(cfg, 6)
    lines = transition_catalog(spec, vs15, pops, (55.0, 110.0))
    out0 = [ln for ln in lines if ln.initial_label == (1, 0)
            and ln.moment_sq > 1e-24]
    main = next(ln for ln in out0 if ln.final_label == (2, 0))
    upper = next(ln for ln in out0 if ln.final_label == (2, 1))
    f_c = QE * 0.584 / ME / (2.0 * math.pi) / 1e9
    sep = upper.frequency_ghz - main.frequency_ghz
    assert upper.sideband_order == 1
    assert sep == pytest.approx(f_c, rel=0.01)
    assert upper.moment_sq < main.moment_sq


def test_catalog_band_filter(vs15):
    cfg = FieldConfiguration.from_v_cm(15.0, 0.584, 0.0, 0.33)
    spec = HamiltonianBlocks(vs15, ProductBasis(6, 10)).solve(cfg)
    pops = thermal_populations(cfg, 3)
    lines = transition_catalog(spec, vs15, pops, (85.0, 95.0))
    assert all(85.0 <= ln.frequency_ghz <= 95.0 for ln in lines)
    with pytest.raises(ValueError):
        transition_catalog(spec, vs15, pops, (95.0, 85.0))


def test_catalog_rejects_labels_above_basis(vs15):
    # an l_cut above the ladder used to be clamped without a word; with
    # per-pixel Landau cuts that would hide a cut below l_cut
    cfg = FieldConfiguration.from_v_cm(15.0, 0.584, 0.1, 0.33)
    spec = HamiltonianBlocks(vs15, ProductBasis(6, 10)).solve(cfg)
    assert transition_catalog(spec, vs15, thermal_populations(cfg, 10),
                              (60.0, 120.0))
    with pytest.raises(ValueError, match="l_max = 10"):
        transition_catalog(spec, vs15, thermal_populations(cfg, 11),
                           (60.0, 120.0))


MAP_BASIS = ProductBasis(6, 16)


@pytest.fixture(scope="module")
def small_map(he3):
    base = FieldConfiguration.from_v_cm(15.0, 0.584, temperature=0.33)
    return absorption_map(
        he3, base, "b_y", np.array([0.05, 0.08]),
        np.arange(26.0, 33.01, 0.1), 90.0,
        BroadeningModel(areal_density_cm2=1e7), MAP_BASIS)


def test_map_normalization(small_map):
    assert isinstance(small_map, AbsorptionMap)
    assert np.nanmax(small_map.intensity) == pytest.approx(1.0, rel=1e-12)
    assert small_map.peak_raw > 0.0
    assert not small_map.failures


def test_map_sum_rule(small_map):
    # the kappa factor makes each line integrate over E_perp to its
    # weighted squared moment, so a row integral equals the summed areas
    # of the lines that cross the drive inside the window
    e, lines = small_map.e_perp_v_cm, small_map.lines
    for i, b_y in enumerate(small_map.sweep_values):
        raw = small_map.intensity[i] * small_map.peak_raw
        integral = np.trapezoid(raw, e)
        crossing = sum(lines.area[lines.sweep_value == b_y].tolist())
        assert integral == pytest.approx(crossing, rel=0.01)


def test_map_line_trace_round_trip(he3, small_map):
    # re-solving at a traced center must put the line back on the drive
    # to well within the linewidth
    lines = small_map.lines
    [at, *_] = np.nonzero((lines.sweep_value == 0.08) & (lines.initial_l == 0)
                          & (lines.final_n == 2) & (lines.final_l == 0))[0]
    e_perp = float(lines.e_perp_v_cm[at])
    vs = solve_vertical(he3, e_perp * 100.0)
    cfg = FieldConfiguration.from_v_cm(e_perp, 0.584, 0.08, 0.33)
    spec = HamiltonianBlocks(vs, MAP_BASIS).solve(cfg)
    k0, k1 = spec.locate(1, 0), spec.locate(2, 0)
    f = (spec.eigenvalues[k1] - spec.eigenvalues[k0]) / (1e9 * PLANCK)
    width = BroadeningModel(areal_density_cm2=1e7).width_ghz(cfg)
    assert abs(f - 90.0) < 0.02 * width


def test_map_even_in_b_y(he3):
    base = FieldConfiguration.from_v_cm(15.0, 0.584, temperature=0.33)
    kwargs = dict(e_perp_values_v_cm=np.array([28.5, 29.3, 30.0]),
                  mw_frequency_ghz=90.0, basis=ProductBasis(4, 10),
                  l_cut=5)
    plus = absorption_map(he3, base, "b_y", np.array([0.1]), **kwargs)
    minus = absorption_map(he3, base, "b_y", np.array([-0.1]), **kwargs)
    np.testing.assert_allclose(plus.intensity, minus.intensity, rtol=1e-9)


def test_map_threads_deterministic(he3):
    base = FieldConfiguration.from_v_cm(15.0, 0.584, temperature=0.33)
    kwargs = dict(
        sweep_values=np.array([0.0, 0.05, 0.1]),
        e_perp_values_v_cm=np.array([28.0, 29.0, 29.5, 30.0]),
        mw_frequency_ghz=90.0, basis=ProductBasis(4, 10), l_cut=5)
    serial = absorption_map(he3, base, "b_y", threads=1, **kwargs)
    assert serial.lines.area.size
    for threads in (2, 4):
        pooled = absorption_map(he3, base, "b_y", threads=threads, **kwargs)
        assert np.array_equal(serial.intensity, pooled.intensity)
        for want, got in zip(serial.lines, pooled.lines):
            assert want.dtype == got.dtype
            assert np.array_equal(want, got)


def test_single_threaded_map_starts_no_thread(he3, monkeypatch):
    # the calling thread runs columns too, so threads = N starts N - 1
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    base = FieldConfiguration.from_v_cm(15.0, 0.584, temperature=0.33)
    kwargs = dict(sweep_values=np.array([0.05]),
                  e_perp_values_v_cm=np.array([28.0, 29.0, 30.0]),
                  mw_frequency_ghz=90.0, basis=ProductBasis(4, 10), l_cut=5)
    absorption_map(he3, base, "b_y", threads=1, **kwargs)
    assert not started
    absorption_map(he3, base, "b_y", threads=2, **kwargs)
    assert len(started) == 1
    # no more helpers than there are columns to share
    absorption_map(he3, base, "b_y", threads=8, **kwargs)
    assert len(started) == 3


@dataclass(frozen=True)
class _BlasProbe(BroadeningModel):
    """Records the OpenBLAS thread counts seen while a pixel is computed."""

    seen: list = field(default_factory=list, compare=False)

    def width_ghz(self, cfg):
        self.seen.append([get() for get, _ in vertical._openblas_functions(
            vertical._THREAD_GROUPS)])
        return super().width_ghz(cfg)


def test_map_pins_blas_and_restores_thread_count(he3):
    controls = vertical._openblas_functions(vertical._THREAD_GROUPS)
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    original = [get() for get, _ in controls]
    base = FieldConfiguration.from_v_cm(15.0, 0.584, temperature=0.33)
    probe = _BlasProbe()
    try:
        for _, set_threads in controls:
            set_threads(2)
        absorption_map(he3, base, "b_y", np.array([0.0, 0.1]),
                       np.array([28.0, 29.0, 30.0]), 90.0, probe,
                       ProductBasis(4, 8), l_cut=5, threads=2)
        after = [get() for get, _ in controls]
    finally:
        for (_, set_threads), count in zip(controls, original):
            set_threads(count)
    assert after == [2] * len(controls)
    assert probe.seen == [[1] * len(controls)] * 6


def test_concurrent_maps_share_one_pin(he3):
    # overlapping maps in several threads: each pixel sees one BLAS thread,
    # and the count in force before the first map is back after the last
    controls = vertical._openblas_functions(vertical._THREAD_GROUPS)
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    original = [get() for get, _ in controls]
    base = FieldConfiguration.from_v_cm(15.0, 0.584, temperature=0.33)
    probes = [_BlasProbe() for _ in range(4)]
    errors = []

    def run(probe):
        try:
            for _ in range(3):
                absorption_map(he3, base, "b_y", np.array([0.0, 0.1]),
                               np.array([28.0, 29.0]), 90.0, probe,
                               ProductBasis(2, 3), l_cut=2, threads=2)
        except Exception as exc:   # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    try:
        for _, set_threads in controls:
            set_threads(2)
        sys.setswitchinterval(1e-6)
        workers = [threading.Thread(target=run, args=(p,)) for p in probes]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
        alive = [w.is_alive() for w in workers]
        after = [get() for get, _ in controls]
    finally:
        sys.setswitchinterval(interval)
        for (_, set_threads), count in zip(controls, original):
            set_threads(count)
    assert not any(alive) and not errors
    assert after == [2] * len(controls)
    for probe in probes:
        assert probe.seen == [[1] * len(controls)] * 12


def test_map_rejects_threads_below_one(he3):
    base = FieldConfiguration.from_v_cm(15.0, 0.584)
    with pytest.raises(ValueError):
        absorption_map(he3, base, "b_y", np.array([0.1]), np.array([29.0]),
                       90.0, threads=0)


def test_map_failed_pixels_recorded_as_nan(he3):
    # a degenerate pixel is recorded, not fatal
    base = FieldConfiguration.from_v_cm(15.0, 0.5, 0.1)
    amap = absorption_map(
        he3, base, "b_z", np.array([0.0, 0.5]), np.array([28.0, 30.0]),
        90.0, basis=ProductBasis(4, 8), l_cut=5)
    assert len(amap.failures) == 2
    assert np.isnan(amap.intensity[0]).all()
    assert np.isfinite(amap.intensity[1]).all()


def test_map_failed_column_recorded_in_every_pixel(he3, monkeypatch):
    # the vertical solve of column 0 fails, and every pixel of that column
    # carries its error
    solve = spectroscopy.solve_vertical

    def unsolved_at_zero(mat, e_perp, n_max):
        if e_perp == 0.0:
            raise ConvergenceFailure("no solve at 0 V/cm")
        return solve(mat, e_perp, n_max)

    monkeypatch.setattr(spectroscopy, "solve_vertical", unsolved_at_zero)
    base = FieldConfiguration.from_v_cm(15.0, 0.584, temperature=0.33)
    maps = [absorption_map(he3, base, "b_y", np.array([0.0, 0.1]),
                           np.array([0.0, 30.0]), 90.0,
                           basis=ProductBasis(8, 8), l_cut=5, threads=threads)
            for threads in (1, 2)]
    amap = maps[0]
    assert [(i, j) for i, j, _ in amap.failures] == [(0, 0), (1, 0)]
    assert all(msg == "ConvergenceFailure: no solve at 0 V/cm"
               for _, _, msg in amap.failures)
    assert np.isnan(amap.intensity[:, 0]).all()
    assert (amap.landau_cut[:, 0] == -1).all()
    assert np.isnan(amap.edge_weight[:, 0]).all()
    assert np.isfinite(amap.intensity[:, 1]).all()
    assert (amap.landau_cut[:, 1] >= 0).all()
    assert np.isfinite(amap.edge_weight[:, 1]).all()
    pooled = maps[1]
    assert pooled.failures == amap.failures
    for name in ("intensity", "landau_cut", "edge_weight"):
        assert np.array_equal(getattr(pooled, name), getattr(amap, name),
                              equal_nan=True), name


def test_map_worker_exception_propagates(he3, monkeypatch):
    # an error that is not a recorded pixel failure ends the map
    def broken(*args):
        raise RuntimeError("deposit broke")

    monkeypatch.setattr(spectroscopy, "_deposit", broken)
    base = FieldConfiguration.from_v_cm(15.0, 0.584, temperature=0.33)
    with pytest.raises(RuntimeError, match="deposit broke"):
        absorption_map(he3, base, "b_y", np.array([0.1]),
                       np.array([28.0, 30.0]), 90.0,
                       basis=ProductBasis(4, 8), l_cut=5, threads=2)


@pytest.mark.parametrize("l_cut", [-1, 9])
def test_map_rejects_l_cut_outside_basis(he3, l_cut):
    base = FieldConfiguration.from_v_cm(15.0, 0.584)
    with pytest.raises(ValueError, match="l_cut"):
        absorption_map(he3, base, "b_y", np.array([0.1]), np.array([29.0]),
                       90.0, basis=ProductBasis(4, 8), l_cut=l_cut)


def test_map_rejects_bad_axis(he3):
    base = FieldConfiguration.from_v_cm(15.0, 0.584)
    with pytest.raises(ValueError):
        absorption_map(he3, base, "e_perp", np.array([0.1]),
                       np.array([29.0]), 90.0)
    with pytest.raises(ValueError):
        absorption_map(he3, base, "b_y", np.array([]), np.array([29.0]),
                       90.0)


def test_map_rejects_negative_e_perp(he3, monkeypatch):
    # refused before any column is solved
    monkeypatch.setattr(spectroscopy, "solve_vertical", None)
    base = FieldConfiguration.from_v_cm(15.0, 0.584)
    with pytest.raises(ValueError, match="e_perp must be non-negative"):
        absorption_map(he3, base, "b_y", np.array([0.1]),
                       np.array([-5.0, 29.0]), 90.0)


# -- per-line reference for the vectorized catalog and deposit ---------------

def _reference_catalog(spec, vs, populations, band):
    """The catalog as one locate per initial label, one dominant and one
    TransitionLine per line."""
    nb, lb = spec.basis.n_max, spec.basis.l_max
    lines = []
    for l0, weight in enumerate(populations):
        if l0 > lb:
            break
        k_init = spec.locate(1, l0)
        c = spec.eigenvectors[:, k_init].reshape(nb, lb + 1)
        moments = spec.eigenvectors.T @ (vs.z_matrix[:nb, :nb] @ c).reshape(-1)
        freqs = (spec.eigenvalues - spec.eigenvalues[k_init]) / GHZ
        for k in np.nonzero((freqs >= band[0]) & (freqs <= band[1]))[0]:
            if k == k_init:
                continue
            n_f, l_f, _ = spec.dominant(int(k))
            lines.append(TransitionLine(
                initial_label=(1, l0),
                weight=float(weight),
                final_index=int(k),
                final_label=(n_f, l_f),
                frequency_ghz=float(freqs[k]),
                moment_sq=float(moments[k] ** 2),
                sideband_order=l_f - l0,
            ))
    return lines


def _reference_pixel(spec, vs, populations, mw, width, band_ghz):
    """(intensity, lines) of one pixel, depositing line by line in catalog
    order."""
    lines = _reference_catalog(spec, vs, populations,
                               (mw - band_ghz, mw + band_ghz))
    nb, lb = spec.basis.n_max, spec.basis.l_max
    weights_n = (spec.eigenvectors.T.reshape(-1, nb, lb + 1) ** 2).sum(axis=2)
    zbar = weights_n @ np.diag(vs.z_matrix)[:nb]
    total = 0.0
    for line in lines:
        k_init = spec.locate(1, line.initial_label[1])
        slope = abs(ELEMENTARY_CHARGE * (zbar[line.final_index] - zbar[k_init])
                    * V_PER_CM) / GHZ
        detuning = (line.frequency_ghz - mw) / width
        if abs(detuning) > 8.0:
            continue
        gaussian = math.exp(-0.5 * detuning**2) / (width * SQRT_2PI)
        total += line.weight * line.moment_sq * gaussian * slope
    return total, lines


@pytest.mark.parametrize("sweep, value, base, model, basis, want_cut", [
    # fig6 regime: five thermal labels, coupling field swept
    ("b_y", 0.3, FieldConfiguration.from_v_cm(29.0, 0.584, temperature=0.33),
     BroadeningModel(areal_density_cm2=5e6), ProductBasis(6, 20), 5),
    # fig8 low-field corner: the automatic cut reaches the top of the ladder
    ("b_z", 0.05, FieldConfiguration.from_v_cm(29.0, 1.0, 0.2, 0.37),
     BroadeningModel(areal_density_cm2=1e7), ProductBasis(4, 20), 20),
])
def test_vectorized_catalog_matches_per_line_reference(
        he3, sweep, value, base, model, basis, want_cut):
    amap = absorption_map(he3, base, sweep, np.array([value]),
                          np.array([29.0]), 90.0, model, basis)
    cfg = base.replace(**{sweep: value})
    cut = spectroscopy._auto_l_cut(cfg, basis.l_max)
    assert cut == want_cut
    pops = thermal_populations(cfg, cut)
    width = model.width_ghz(cfg)
    # the map diagonalizes with single-threaded BLAS, on the Landau cut it
    # recorded for the pixel; so must the reference
    solved = ProductBasis(basis.n_max, int(amap.landau_cut[0, 0]))
    with vertical._single_threaded_blas:
        vs = solve_vertical(he3, 2900.0, basis.n_max)
        spec = HamiltonianBlocks(vs, solved).solve(cfg)
    want_value, want_lines = _reference_pixel(spec, vs, pops, 90.0, width,
                                              30.0)
    assert len(want_lines) > 10 and want_value > 0.0
    assert transition_catalog(spec, vs, pops, (60.0, 120.0)) == want_lines
    assert amap.peak_raw == want_value
    # every line out of every initial state, the whole spectrum as band
    everything = (-1e5, 1e5)
    assert transition_catalog(spec, vs, pops, everything) == \
        _reference_catalog(spec, vs, pops, everything)


# -- per-pixel Landau cuts ----------------------------------------------------

def _cap_pixels(mat, amap, sweep, model, basis, band_ghz=30.0):
    """Raw intensity of every pixel of amap solved on the whole basis,
    through the map's own catalog and deposit."""
    mw = amap.mw_frequency_ghz
    band = (mw - band_ghz, mw + band_ghz)
    raw = np.empty(amap.intensity.shape)
    with vertical._single_threaded_blas:
        for j, e in enumerate(amap.e_perp_v_cm):
            vs = solve_vertical(mat, float(e * V_PER_CM), basis.n_max)
            blocks = HamiltonianBlocks(vs, basis)
            for i, value in enumerate(amap.sweep_values):
                cfg = amap.config.replace(**{sweep: float(value),
                                             "e_perp": vs.e_perp})
                pops = thermal_populations(
                    cfg, spectroscopy._auto_l_cut(cfg, basis.l_max))
                spec = blocks.solve(cfg)
                lines = spectroscopy._catalog(spec, vs, pops, band)
                raw[i, j] = spectroscopy._deposit(spec, vs, lines, mw,
                                                  model.width_ghz(cfg))
    return raw


def test_landau_cut_map_agrees_with_cap_solves(he3):
    # fig6 regime up to b_y = 0.6 T: the first cut fails at strong coupling
    # and the pixel climbs; every certified pixel matches the full basis
    base = FieldConfiguration.from_v_cm(29.0, 0.584, temperature=0.33)
    model = BroadeningModel(areal_density_cm2=5e6)
    basis = ProductBasis(6, 50)
    amap = absorption_map(he3, base, "b_y", np.array([0.0, 0.3, 0.6]),
                          np.array([27.0, 29.0, 31.0]), 90.0, model, basis,
                          threads=2)
    raw = _cap_pixels(he3, amap, "b_y", model, basis)

    first = spectroscopy._first_landau_cut(
        base, spectroscopy._auto_l_cut(base, 50), 120.0, 50)
    assert first == 17
    assert (amap.landau_cut > first).any()
    assert (amap.landau_cut < 50).any()
    certified = amap.edge_weight <= spectroscopy._EDGE_WEIGHT_LIMIT
    assert certified.all()
    assert amap.peak_raw == pytest.approx(raw.max(), rel=1e-9)
    assert np.abs(amap.intensity - raw / raw.max()).max() <= 1e-9
    at_cap = amap.landau_cut == 50
    assert np.array_equal(amap.intensity[at_cap],
                          raw[at_cap] / amap.peak_raw)


def test_cap_pixels_bit_identical_to_cap_solve(he3):
    # fig8 low-field corner: the first cut is the cap and the thermal cut
    # is clamped to it; those pixels solve exactly the full-basis matrix
    base = FieldConfiguration.from_v_cm(29.0, 1.0, 0.2, 0.37)
    model = BroadeningModel(areal_density_cm2=1e7)
    basis = ProductBasis(4, 30)
    amap = absorption_map(he3, base, "b_z", np.array([0.05, 0.5]),
                          np.array([20.0, 29.0]), 90.0, model, basis)
    raw = _cap_pixels(he3, amap, "b_z", model, basis)

    assert (amap.landau_cut[0] == 30).all()
    assert (amap.landau_cut[1] < 30).all()
    at_cap = amap.landau_cut == 30
    assert np.array_equal(amap.intensity[at_cap],
                          raw[at_cap] / amap.peak_raw)
    assert np.abs(amap.intensity - raw / raw.max()).max() <= 1e-9
    report = amap.basis_report()
    assert report["thermal_cut_clamped_pixels"] == 2
    flagged = at_cap & (amap.edge_weight > spectroscopy._EDGE_WEIGHT_LIMIT)
    assert report["cap_uncertified_pixels"] == flagged.sum()
    assert sum(n for _, n in report["pixels_by_l_max"]) == 4


def test_every_dense_map_solve_goes_through_diagonalize(he3, monkeypatch):
    calls = {"diagonalize": 0, "eigh": 0}
    solves = []   # (b_y, diagonalize calls, eigh calls) of each blocks.solve
    diagonalize, eigh = coupled.diagonalize, coupled._eigh_in_place
    solve = coupled.HamiltonianBlocks.solve

    def counted_diagonalize(h, basis, **kwargs):
        calls["diagonalize"] += 1
        return diagonalize(h, basis, **kwargs)

    def counted_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    def counted_solve(self, cfg, l_max=None):
        before = dict(calls)
        spec = solve(self, cfg, l_max)
        solves.append((cfg.b_y, *(calls[k] - before[k] for k in calls)))
        return spec

    monkeypatch.setattr(coupled, "diagonalize", counted_diagonalize)
    monkeypatch.setattr(coupled, "_eigh_in_place", counted_eigh)
    monkeypatch.setattr(coupled.HamiltonianBlocks, "solve", counted_solve)
    base = FieldConfiguration.from_v_cm(29.0, 0.584, temperature=0.33)
    amap = absorption_map(he3, base, "b_y", np.array([0.0, 0.6]),
                          np.array([28.0, 30.0]), 90.0,
                          basis=ProductBasis(6, 30))
    assert not amap.failures
    # every dense solve goes through diagonalize, and only there
    assert calls["eigh"] == calls["diagonalize"] > 0
    # a b_y = 0 pixel is read off its diagonal: neither call
    flat = [s for s in solves if s[0] == 0.0]
    assert flat and all(s[1:] == (0, 0) for s in flat)
    # the b_y = 0.6 T pixels fail their first cut and are solved again,
    # each solve one diagonalize and one eigh
    tilted = [s for s in solves if s[0] != 0.0]
    assert len(tilted) > amap.intensity.shape[1]
    assert all(s[1:] == (1, 1) for s in tilted)
    assert len(tilted) == calls["diagonalize"]


def test_absorption_map_keeps_traced_lines_as_arrays(he3, traced_memory):
    # At b_z = 0.05-0.1 T and 0.37 K the thermal cut reaches the 41-rung
    # cap, so each of the 16 pixels traces several hundred lines. The
    # reference is the map as it was returned with its 2,359 traces as a
    # list of dicts, one per center. With each pixel's lines kept as a
    # tuple of Python numbers per line and the traces built as dicts, the
    # call's peak was 2.64 references; with five arrays per pixel, 1.40;
    # with the traces built as columns one sweep row at a time, it is 1.00.
    # The bound is 2.2, as it was against the map that held the dicts.
    base = FieldConfiguration.from_v_cm(0.0, 0.2, b_y=0.2, temperature=0.37)

    def run(sweep, e_perp):
        return absorption_map(he3, base, "b_z", sweep, e_perp, 90.0,
                              basis=ProductBasis(3, 40))

    run(np.array([0.05]), np.array([2.0]))   # one-time allocations
    amap, held, peak = traced_memory(
        lambda: run(np.linspace(0.05, 0.1, 8), np.array([2.0, 58.0])))
    assert not amap.failures
    assert amap.lines.area.size > 1000
    columns = sum(column.nbytes for column in amap.lines)
    _, dicts, _ = traced_memory(lambda: _line_dicts(amap.lines))
    assert peak < 2.2 * (held - columns + dicts)


def _line_dicts(lines) -> list[dict]:
    """Line centers as the map once returned them: one dict per center."""
    return [{"sweep_value": s, "e_perp_v_cm": e, "initial": [1, l0],
             "final": [n_f, l_f], "area": area}
            for s, e, l0, n_f, l_f, area in zip(
                *(column.tolist() for column in lines))]


def _reference_centers(pixels, e_grid, mw_frequency_ghz, area_floor):
    """The line centers of one sweep row as the map built them with a dict
    of lists per label: (e_perp, initial l, final n, final l, area) tuples
    in the order of spectroscopy._line_centers."""
    by_label = {}
    for j, pixel in enumerate(pixels):
        for l0, n_f, l_f, freq, area in zip(
                *(column.tolist() for column in pixel)):
            if area < area_floor:
                continue
            by_label.setdefault(((1, l0), (n_f, l_f)), []).append(
                (float(e_grid[j]), freq, area))
    centers = []
    for ((_, l0), (n_f, l_f)), points in by_label.items():
        points.sort()
        for (e0, f0, a0), (e1, f1, _) in zip(points, points[1:]):
            d0, d1 = f0 - mw_frequency_ghz, f1 - mw_frequency_ghz
            if d0 == 0.0 or d0 * d1 < 0.0:
                frac = 0.0 if d0 == 0.0 else d0 / (d0 - d1)
                centers.append((e0 + frac * (e1 - e0), l0, n_f, l_f, a0))
    return centers


def _pixel(*lines):
    """One pixel's traced lines from (l0, n_f, l_f, frequency, area)
    tuples, as the map keeps them."""
    columns = list(zip(*lines)) or [()] * 5
    return (*(np.array(c, dtype=np.uint8) for c in columns[:3]),
            *(np.array(c, dtype=float) for c in columns[3:]))


def _as_tuples(centers) -> list[tuple]:
    return list(zip(*(column.tolist() for column in centers)))


def test_line_centers_match_the_dict_reference():
    # label (0, 2, 0) has two final states in pixel 0, on either side of
    # the drive, and sits on the drive in pixel 1; label (3, 1, 3) appears
    # first and is missing from pixel 1, a middle column; label (1, 3, 1)
    # keeps one point above the floor, so it has no pair; pixel 3 failed
    e_grid = np.array([10.0, 10.5, 11.25, 12.0])
    pixels = [
        _pixel((3, 1, 3, 95.0, 1e-3), (0, 2, 0, 89.0, 2e-3),
               (0, 2, 0, 91.5, 5e-4), (1, 3, 1, 88.0, 1e-9)),
        _pixel((0, 2, 0, 90.0, 1e-3), (1, 3, 1, 91.0, 3e-3)),
        _pixel((0, 2, 0, 89.5, 1e-3), (3, 1, 3, 85.0, 4e-3),
               (0, 2, 0, 92.0, 0.0), (1, 3, 1, 89.0, 1e-9)),
        _pixel(),
    ]
    e_perp, l0, n_f, l_f, area = spectroscopy._line_centers(
        pixels, e_grid, 90.0, 1e-6)
    want = _reference_centers(pixels, e_grid, 90.0, 1e-6)
    assert repr(_as_tuples((e_perp, l0, n_f, l_f, area))) == repr(want)
    assert want == [(10.625, 3, 1, 3, 1e-3), (10.0, 0, 2, 0, 2e-3),
                    (10.5, 0, 2, 0, 1e-3)]
    assert l0.dtype == n_f.dtype == l_f.dtype == np.uint8
    empty = spectroscopy._line_centers([_pixel()], e_grid[:1], 90.0, 0.0)
    assert [c.size for c in empty] == [0] * 5


def test_map_line_centers_match_the_dict_reference(he3, monkeypatch):
    # the traces of a low-field map, row by row, are the reference's bit
    # for bit and in order
    rows = []
    line_centers = spectroscopy._line_centers

    def recorded(pixels, *args):
        centers = line_centers(pixels, *args)
        rows.append((list(pixels), args, centers))
        return centers

    monkeypatch.setattr(spectroscopy, "_line_centers", recorded)
    base = FieldConfiguration.from_v_cm(0.0, 0.2, b_y=0.2, temperature=0.37)
    amap = absorption_map(he3, base, "b_z", np.linspace(0.05, 0.1, 4),
                          np.array([2.0, 30.0, 58.0]), 90.0,
                          basis=ProductBasis(3, 40))
    assert len(rows) == 4
    for pixels, args, centers in rows:
        want = _reference_centers(pixels, *args)
        assert want
        got = _as_tuples(centers)
        assert repr(got) == repr(want)
    assert _as_tuples(amap.lines) == [
        (s, *c) for s, (_, _, centers) in zip(amap.sweep_values.tolist(),
                                               rows)
        for c in _as_tuples(centers)]
