"""Vertical (image-charge) solver: hydrogenic limit, agreement with the
finite-difference reference, matrix-element quality, Stark utilities."""

import gc
import io

import numpy as np
import pytest
from scipy.constants import e as QE

from heliumjcm import (
    ConvergenceFailure,
    GridTooSmall,
    diagonalize,
    find_transition_field,
    solve_vertical,
    stark_slope,
    truncation_report,
    vertical,
)
from heliumjcm.materials import ProductBasis
from heliumjcm.vertical import V_PER_CM, GridSpec, reference_solve


def test_hydrogenic_energies_and_dipoles(he3):
    # zero tilt: E_n = -R/n^2 and z_nn = 1.5 n^2 r_B analytically
    vs = solve_vertical(he3, 0.0, n_max=4)
    r, a = he3.rydberg_energy, he3.bohr_radius
    for n in range(1, 5):
        assert vs.energy(n) == pytest.approx(-r / n**2, rel=1e-3)
        assert vs.z_elem(n, n) == pytest.approx(1.5 * n**2 * a, rel=1e-3)


def test_grid_doubling_converged(he3):
    base = reference_solve(he3, 1500.0, n_max=6, grid=GridSpec(150.0, 4000))
    fine = reference_solve(he3, 1500.0, n_max=6, grid=GridSpec(150.0, 8000))
    shift = np.abs(fine.energies - base.energies) / np.abs(fine.energies)
    assert shift.max() < 1e-5


@pytest.fixture(scope="module")
def fd15(he3):
    # the finite-difference reference at 15 V/cm, on the default grid
    return reference_solve(he3, 1500.0)


def test_orthonormality(fd15):
    dz = fd15.grid[1] - fd15.grid[0]
    overlap = fd15.wavefunctions @ fd15.wavefunctions.T * dz
    assert np.allclose(overlap, np.eye(fd15.n_max), atol=1e-8)


def test_spectral_orthonormality(vs15):
    c = vs15.coefficients
    assert vs15.grid is None and vs15.wavefunctions is None
    assert np.abs(c @ c.T - np.eye(vs15.n_max)).max() < 1e-13


def test_matrix_elements_match_quadrature(fd15):
    # recompute a few elements by direct quadrature, independent of the
    # solver's own assembly path
    dz = fd15.grid[1] - fd15.grid[0]
    psi = fd15.wavefunctions
    z = fd15.grid
    for (n, m) in ((1, 1), (1, 2), (2, 3), (2, 2)):
        direct = float(np.sum(psi[n - 1] * z * psi[m - 1]) * dz)
        assert fd15.z_elem(n, m) == pytest.approx(direct, rel=1e-10)
    direct2 = float(np.sum(psi[0] * z**2 * psi[0]) * dz)
    assert fd15.z2_elem(1, 1) == pytest.approx(direct2, rel=1e-10)


def test_phase_convention(fd15):
    # wavefunctions positive at the wall pins every off-diagonal sign;
    # the couplings out of n = 1 and out of n = 2 all come out negative
    # for these tilted-well states
    assert fd15.wavefunctions[:, 0].min() > 0.0
    assert fd15.z_elem(1, 2) < 0.0
    assert fd15.z_elem(1, 3) < 0.0
    assert fd15.z_elem(2, 3) < 0.0


def test_spectral_phase_convention(vs15):
    # psi'(0) is sum_k c_k sqrt((k+1)(k+2)) / (2 s): positive at the wall,
    # which gives the off-diagonal signs of the reference
    c = vs15.coefficients
    k = np.arange(c.shape[1])
    assert (c @ np.sqrt((k + 1.0) * (k + 2.0))).min() > 0.0
    assert vs15.z_elem(1, 2) < 0.0
    assert vs15.z_elem(1, 3) < 0.0
    assert vs15.z_elem(2, 3) < 0.0


def _reduced(vs):
    r_b, r_e = vs.material.bohr_radius, vs.material.rydberg_energy
    return (vs.energies / r_e, vs.z_matrix / r_b, vs.z2_matrix / r_b**2,
            vs.dvdz_diag * r_b / r_e)


@pytest.mark.parametrize("e_v_cm", [2.0, 15.0, 30.0, 58.0])
def test_spectral_matches_extrapolated_grid(he3, e_v_cm):
    # z and z^2 against the grid's (4 z_32k - z_16k) / 3, energies against
    # the (already extrapolated) 32k-point energies
    e_perp = e_v_cm * V_PER_CM
    energies, z, z2, _ = _reduced(solve_vertical(he3, e_perp))
    fine, finer = (_reduced(reference_solve(he3, e_perp,
                                            grid=GridSpec(150.0, n)))
                   for n in (16000, 32000))
    assert np.abs(energies - finer[0]).max() < 1e-9
    for k, ours in ((1, z), (2, z2)):
        reference = (4.0 * finer[k] - fine[k]) / 3.0
        assert np.abs(ours - reference).max() < 1e-8 * np.abs(reference).max()


def test_grid_dvdz_converges_at_second_order(he3):
    # with the wall endpoint of <2/zeta^2>, the grid's dV/dz error falls by
    # about 4 per doubling toward the spectral value
    exact = solve_vertical(he3, 1500.0).dvdz_diag
    errors = [np.abs(reference_solve(he3, 1500.0, grid=GridSpec(150.0, n))
                     .dvdz_diag - exact).max() for n in (4000, 8000, 16000)]
    assert errors[0] / errors[1] >= 3.5 and errors[1] / errors[2] >= 3.5


@pytest.mark.parametrize("n_max", [2, 6, 10, 14, 20])
def test_spectral_basis_converged(he3, n_max):
    # a solve at M agrees with one at 2M on the same scale; the tail check
    # may raise instead, but on this range no solve needs it
    size = vertical._laguerre_size(n_max)
    raised = 0
    for e_v_cm in np.linspace(0.0, 58.0, 30):
        f = he3.stark_parameter(e_v_cm * V_PER_CM)
        try:
            vs = solve_vertical(he3, e_v_cm * V_PER_CM, n_max)
        except ConvergenceFailure:
            raised += 1
            continue
        assert vs.solver.basis_size == size
        ours = _reduced(vs)
        twice = vertical._solve_laguerre(f, n_max, 2 * size, vs.solver.scale)
        assert np.abs(ours[0] - twice[0]).max() < 1e-10
        for a, b in zip(ours[1:], twice[1:4]):
            assert np.abs(a - b).max() < 1e-10 * np.abs(b).max()
    assert raised == 0


def test_spectral_tail_check_raises(he3, monkeypatch):
    # a basis too short for the states it returns is refused
    monkeypatch.setattr(vertical, "_laguerre_size", lambda n_max: 12)
    with pytest.raises(ConvergenceFailure, match="Laguerre functions"):
        solve_vertical(he3, 0.0, n_max=8)


def test_spectral_solves_bit_identical(he3):
    first, again = (solve_vertical(he3, 1500.0, n_max=8) for _ in range(2))
    for name in ("energies", "z_matrix", "z2_matrix", "dvdz_diag",
                 "coefficients"):
        assert getattr(first, name).tobytes() == \
            getattr(again, name).tobytes(), name
    assert first.solver == again.solver


def test_laguerre_quadrature_matches_laggauss():
    # the package builds its nodes and weights without numpy.polynomial
    from numpy.polynomial.laguerre import laggauss
    from scipy.special import eval_genlaguerre

    size = 20
    nodes, weights = laggauss(size + 8)
    phi = np.array([nodes * eval_genlaguerre(j, 2, nodes)
                    / np.sqrt((j + 1.0) * (j + 2.0)) for j in range(size)])
    assert np.abs((phi * weights) @ phi.T - np.eye(size)).max() < 1e-12
    reference = (phi * nodes * weights) @ phi.T
    x = vertical._laguerre_matrices(size)[2]
    assert np.abs(x - reference).max() < 1e-11 * np.abs(reference).max()


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
        reference_solve(he3, 1500.0, n_max=6, grid=GridSpec(150.0, 20))
    # a box shorter than the n = 6 state leaks norm into the tail
    with pytest.raises(GridTooSmall):
        reference_solve(he3, 0.0, n_max=6, grid=GridSpec(40.0, 2000))


@pytest.mark.parametrize("f", [float("nan"), float("inf")])
def test_non_finite_tilt_is_a_convergence_failure(f):
    # the reference's eigh_tridiagonal error, as a ConvergenceFailure
    with pytest.raises(ConvergenceFailure) as failed:
        vertical._solve_reduced(f, 150.0, 400, 4)
    assert str(failed.value) == ("tridiagonal eigensolver failed: array "
                                 "must not contain infs or NaNs")


@pytest.mark.parametrize("e_perp", [float("nan"), float("inf")])
def test_non_finite_field_is_a_spectral_convergence_failure(he3, e_perp):
    # the default solve refuses a nan basis rather than return it
    with pytest.raises(ConvergenceFailure):
        solve_vertical(he3, e_perp)


def test_more_states_than_points_is_a_convergence_failure():
    with pytest.raises(ConvergenceFailure) as failed:
        vertical._solve_reduced(0.0, 150.0, 16, 17)
    assert str(failed.value) == ("tridiagonal eigensolver failed: "
                                 "select_range out of bounds")


def test_lapack_solve_leaves_no_reference_cycles():
    # arrays passed to dsyevd must be freed by reference counting, not
    # left for the cyclic collector, or peak memory follows its timing
    if vertical._lapack() is None:
        pytest.skip("numpy's BLAS exports no dsyevd")
    basis = ProductBasis(4, 8)
    h = _symmetric(basis.size, np.random.default_rng(5))
    with vertical._single_threaded_blas:
        diagonalize(h, basis)
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                diagonalize(h, basis)
                diagonalize(h.copy(), basis, overwrite=True)
            assert gc.collect() == 0
        finally:
            gc.enable()


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
        monkeypatch.setattr(vertical, "_lapack", lambda: None)
    elif vertical._lapack() is None:
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


def _loaded_openblas() -> str:
    with open("/proc/self/maps") as fh:
        for line in fh:
            if "openblas" in line.lower():
                return line.split(None, 5)[5].rstrip("\n")
    pytest.skip("no OpenBLAS loaded")


def test_openblas_under_a_path_with_spaces_is_found(tmp_path, monkeypatch):
    # a maps line ends with the pathname, which may hold spaces; here it is
    # a link to the loaded OpenBLAS, which the loader maps only once
    link = tmp_path / "open blas" / "libopenblas.so"
    link.parent.mkdir()
    link.symlink_to(_loaded_openblas())
    line = f"7f0000000000-7f0000100000 r-xp 00000000 fd:01 42    {link}\n"
    monkeypatch.setattr(vertical, "open", lambda path: io.StringIO(line),
                        raising=False)
    found = vertical._openblas_functions(vertical._THREAD_GROUPS)
    assert len(found) == 1
    getter, _ = found[0]
    assert getter() >= 1


def test_a_group_is_found_whole_or_not_at_all():
    # a group with one symbol the library lacks yields no entry, and the
    # next group is tried; _lapack is None or dsyevd, typed as the table
    # says
    _loaded_openblas()
    missing = ("heliumjcm_no_such_symbol", [], None)
    lacking = [group + (missing,) for group in vertical._THREAD_GROUPS]
    assert vertical._openblas_functions(lacking) == []
    assert (len(vertical._openblas_functions(
                lacking + list(vertical._THREAD_GROUPS)))
            == len(vertical._openblas_functions(vertical._THREAD_GROUPS)))
    syevd = vertical._lapack()
    if syevd is None:
        return
    [(name, argtypes, restype)] = vertical._LAPACK_GROUP
    assert syevd.__name__ == name
    assert list(syevd.argtypes) == argtypes
    assert syevd.restype is restype
