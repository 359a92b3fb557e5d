"""Vertical (image-charge) solver: hydrogenic limit, grid convergence,
matrix-element quality, Stark utilities."""

import gc

import numpy as np
import pytest
from scipy.constants import e as QE

from heliumjcm import (
    ConvergenceFailure,
    GridSpec,
    GridTooSmall,
    find_transition_field,
    solve_vertical,
    stark_slope,
    truncation_report,
    vertical,
)
from heliumjcm.vertical import V_PER_CM


def test_hydrogenic_energies_and_dipoles(he3):
    # zero tilt: E_n = -R/n^2 and z_nn = 1.5 n^2 r_B analytically
    vs = solve_vertical(he3, 0.0, n_max=4)
    r, a = he3.rydberg_energy, he3.bohr_radius
    for n in range(1, 5):
        assert vs.energy(n) == pytest.approx(-r / n**2, rel=1e-3)
        assert vs.z_elem(n, n) == pytest.approx(1.5 * n**2 * a, rel=1e-3)


def test_grid_doubling_converged(he3):
    base = solve_vertical(he3, 1500.0, n_max=6, grid=GridSpec(150.0, 4000))
    fine = solve_vertical(he3, 1500.0, n_max=6, grid=GridSpec(150.0, 8000))
    shift = np.abs(fine.energies - base.energies) / np.abs(fine.energies)
    assert shift.max() < 1e-5


def test_orthonormality(vs15):
    dz = vs15.grid[1] - vs15.grid[0]
    overlap = vs15.wavefunctions @ vs15.wavefunctions.T * dz
    assert np.allclose(overlap, np.eye(vs15.n_max), atol=1e-8)


def test_matrix_elements_match_quadrature(vs15):
    # recompute a few elements by direct quadrature, independent of the
    # solver's own assembly path
    dz = vs15.grid[1] - vs15.grid[0]
    psi = vs15.wavefunctions
    z = vs15.grid
    for (n, m) in ((1, 1), (1, 2), (2, 3), (2, 2)):
        direct = float(np.sum(psi[n - 1] * z * psi[m - 1]) * dz)
        assert vs15.z_elem(n, m) == pytest.approx(direct, rel=1e-10)
    direct2 = float(np.sum(psi[0] * z**2 * psi[0]) * dz)
    assert vs15.z2_elem(1, 1) == pytest.approx(direct2, rel=1e-10)


def test_phase_convention(vs15):
    # wavefunctions positive at the wall pins every off-diagonal sign;
    # the couplings out of n = 1 and out of n = 2 all come out negative
    # for these tilted-well states
    assert vs15.wavefunctions[:, 0].min() > 0.0
    assert vs15.z_elem(1, 2) < 0.0
    assert vs15.z_elem(1, 3) < 0.0
    assert vs15.z_elem(2, 3) < 0.0


def test_energies_increase_with_tilt(he3, vs15):
    vs_hi = solve_vertical(he3, 2500.0)
    assert vs_hi.energy(1) > vs15.energy(1)
    assert vs_hi.transition_energy(1, 2) > vs15.transition_energy(1, 2)


def test_transition_frequency_oracle(vs15):
    # frozen regression anchor for the calibrated He3 table
    assert vs15.transition_frequency_ghz(1, 2) == pytest.approx(
        79.2369, abs=2e-3)
    assert vs15.transition_frequency_ghz(1, 3) == pytest.approx(
        107.4097, abs=2e-3)


def test_truncation_residual_decreases_with_basis(he3):
    residuals = []
    for n_max in (4, 6, 10, 14):
        vs = solve_vertical(he3, 1500.0, n_max=n_max)
        residuals.append(truncation_report(vs)[0])
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
    # the n = 1 sum rule keeps a slow continuum tail; n = 2 converges fast
    vs = solve_vertical(he3, 1500.0, n_max=20)
    assert truncation_report(vs)[1] < 5e-3


def test_hellmann_feynman_slope(he3, vs15):
    # dE_n/dE_perp = e z_nn within 0.5%
    delta = 5.0 * V_PER_CM
    lo = solve_vertical(he3, 1500.0 - delta)
    hi = solve_vertical(he3, 1500.0 + delta)
    for n in (1, 2, 3):
        numeric = (hi.energy(n) - lo.energy(n)) / (2.0 * delta)
        assert numeric == pytest.approx(QE * vs15.z_elem(n, n), rel=5e-3)


def test_stark_slope_oracle(he3):
    assert stark_slope(he3, 23.0 * V_PER_CM, 1, 2) == pytest.approx(
        0.7413, abs=2e-3)
    # slope falls with field as the well stiffens
    assert stark_slope(he3, 29.3 * V_PER_CM, 1, 2) < \
        stark_slope(he3, 23.0 * V_PER_CM, 1, 2)
    assert stark_slope(he3, 23.0 * V_PER_CM, 2, 2) == 0.0


def test_find_transition_field_round_trip(he3):
    e90 = find_transition_field(he3, 90.0, 1, 2)
    vs = solve_vertical(he3, e90)
    assert vs.transition_frequency_ghz(1, 2) == pytest.approx(90.0, abs=1e-3)
    with pytest.raises(ValueError):
        find_transition_field(he3, 90.0, 1, 2, bracket_v_cm=(1.0, 2.0))


def test_dvdz_positive_and_ordered(vs15):
    # the barrier-gradient diagonal shrinks for softer, higher states
    vals = [vs15.dvdz(n) for n in range(1, 5)]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_grid_guards(he3):
    with pytest.raises(ValueError):
        solve_vertical(he3, 1500.0, n_max=1)
    with pytest.raises(ValueError):
        solve_vertical(he3, 1500.0, n_max=6, grid=GridSpec(150.0, 20))
    # a box shorter than the n = 6 state leaks norm into the tail
    with pytest.raises(GridTooSmall):
        solve_vertical(he3, 0.0, n_max=6, grid=GridSpec(40.0, 2000))


@pytest.fixture
def scipy_fallback(monkeypatch):
    """Hides numpy's dstebz/dstein, as on a numpy without OpenBLAS."""
    if vertical._lapack_tridiagonal() is None:
        pytest.skip("numpy's BLAS exports no dstebz/dstein")
    monkeypatch.setattr(vertical, "_lapack_tridiagonal", lambda: None)


def _solve_or_error(he3, e_v_cm, n_max, n_points):
    try:
        vs = solve_vertical(he3, e_v_cm * V_PER_CM, n_max,
                            GridSpec(n_points=n_points))
    except GridTooSmall as exc:
        return str(exc)
    return [arr.tobytes() for arr in (vs.energies, vs.wavefunctions,
                                      vs.z_matrix, vs.z2_matrix)]


@pytest.mark.parametrize("n_points", [200, 4000])
def test_solver_paths_bit_identical(he3, request, n_points):
    # numpy's LAPACK and scipy's eigh_tridiagonal give the same bits
    cases = [(e, n_max) for e in (0.0, 2.0, 15.0, 29.0, 58.0)
             for n_max in (2, 6, 8)]
    direct = [_solve_or_error(he3, e, n_max, n_points) for e, n_max in cases]
    request.getfixturevalue("scipy_fallback")
    for (e, n_max), first in zip(cases, direct):
        assert _solve_or_error(he3, e, n_max, n_points) == first, (e, n_max)
    assert any(isinstance(first, list) for first in direct)


@pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "scipy"])
@pytest.mark.parametrize("f", [float("nan"), float("inf")])
def test_non_finite_tilt_is_a_convergence_failure(request, fallback, f):
    if fallback:
        request.getfixturevalue("scipy_fallback")
    with pytest.raises(ConvergenceFailure) as failed:
        vertical._solve_reduced(f, 150.0, 400, 4)
    assert str(failed.value) == ("tridiagonal eigensolver failed: array "
                                 "must not contain infs or NaNs")


@pytest.mark.parametrize("fallback", [False, True], ids=["lapack", "scipy"])
def test_more_states_than_points_is_a_convergence_failure(request, fallback):
    if fallback:
        request.getfixturevalue("scipy_fallback")
    with pytest.raises(ConvergenceFailure) as failed:
        vertical._solve_reduced(0.0, 150.0, 16, 17)
    assert str(failed.value) == ("tridiagonal eigensolver failed: "
                                 "select_range out of bounds")


def test_lapack_solve_leaves_no_reference_cycles(he3):
    # arrays passed to dstebz/dstein must be freed by reference counting,
    # not left for the cyclic collector, or peak memory follows its timing
    if vertical._lapack_tridiagonal() is None:
        pytest.skip("numpy's BLAS exports no dstebz/dstein")
    solve_vertical(he3, 1500.0)
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            solve_vertical(he3, 1500.0)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("f", [0.0, 0.05, 0.3])
def test_eigenvalues_alone_match_scipy(f):
    # the coarse Richardson grid stops after dstebz: its eigenvalues equal
    # eigh_tridiagonal(eigvals_only=True) and those of the full solve
    from scipy.linalg import eigh_tridiagonal

    if vertical._lapack_tridiagonal() is None:
        pytest.skip("numpy's BLAS exports no dstebz/dstein")
    n_points, z_max = 2000, 150.0
    dz = z_max / (n_points + 1)
    zeta = dz * np.arange(1, n_points + 1)
    diag = 2.0 / dz**2 - 2.0 / zeta + f * zeta
    off = np.full(n_points - 1, -1.0 / dz**2)
    for k in (1, 6, 12):
        alone = vertical._lowest_eigenpairs(diag, off, k, eigvals_only=True)
        want = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                select_range=(0, k - 1))
        assert alone.tobytes() == want.tobytes()
        vals, _ = vertical._lowest_eigenpairs(diag, off, k)
        assert alone.tobytes() == vals.tobytes()


def _symmetric(n, rng):
    m = rng.standard_normal((n, n))
    return m + m.T


@pytest.mark.parametrize("fallback", [False, True],
                         ids=["dsyevd", "numpy"])
def test_dense_solve_in_place_matches_eigh(monkeypatch, fallback):
    # dsyevd in the caller's buffer gives np.linalg.eigh's bytes at the
    # sizes the maps solve and on spectra with ties; where no library
    # exports dsyevd, np.linalg.eigh itself runs and a is left as it was
    if fallback:
        monkeypatch.setattr(vertical, "_lapack_syevd", lambda: None)
    elif vertical._lapack_syevd() is None:
        pytest.skip("numpy's BLAS exports no dsyevd")
    rng = np.random.default_rng(3)
    matrices = [_symmetric(n, rng) for n in (1, 36, 108, 186, 306)]
    matrices.append(np.kron(np.eye(3), _symmetric(12, rng)))   # triples
    matrices.append(np.eye(5))
    with vertical._single_threaded_blas:
        for h in matrices:
            want_vals, want_vecs = np.linalg.eigh(h)
            a = np.array(h, order="F")
            vals, vecs = vertical._eigh_in_place(a)
            assert vals.tobytes() == want_vals.tobytes()
            assert (np.ascontiguousarray(vecs).tobytes()
                    == want_vecs.tobytes())
            if fallback:
                assert a.tobytes() == np.array(h, order="F").tobytes()
            else:
                assert vecs is a
    # both paths take the same arrays
    with pytest.raises(ValueError):
        vertical._eigh_in_place(_symmetric(3, rng))   # C-ordered
