"""Coupled-basis Hamiltonian: assembly invariants, the uncoupled fan,
crossings and avoided crossings."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.constants import hbar as HBAR, h as PLANCK
from scipy.optimize import brentq

from heliumjcm import (
    BasisMismatch,
    BranchTrackingLost,
    FieldConfiguration,
    HamiltonianBlocks,
    NoCrossingInRange,
    ProductBasis,
    assemble_hamiltonian,
    coupling_constant,
    cyclotron_frequency,
    diagonalize,
    find_crossing,
    minimum_gap,
    solve_vertical,
    thermal_populations,
)
from heliumjcm import coupled, materials, spectroscopy
from heliumjcm.vertical import _single_threaded_blas

GHZ = 1e9 * PLANCK


def test_basis_indexing():
    basis = ProductBasis(n_max=3, l_max=4)
    assert basis.size == 15
    assert [basis.index(n, l) for n in range(1, 4)
            for l in range(5)] == list(range(basis.size))
    with pytest.raises(IndexError):
        basis.index(4, 0)
    with pytest.raises(ValueError):
        ProductBasis(0, 4)


def test_hamiltonian_symmetric(vs15):
    # every term is a symmetric matrix, so assembly needs no symmetrization
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 0.2)
    h = assemble_hamiltonian(HamiltonianBlocks(vs15, ProductBasis(6, 12)),
                             cfg)
    assert np.array_equal(h, h.T)


def test_eigenvector_orthonormality(vs15):
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 0.2)
    spec = HamiltonianBlocks(vs15, ProductBasis(6, 12)).solve(cfg)
    gram = spec.eigenvectors.T @ spec.eigenvectors
    assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-8


def test_trace_preserved(vs15):
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 0.2)
    h = assemble_hamiltonian(HamiltonianBlocks(vs15, ProductBasis(6, 12)),
                             cfg)
    spec = diagonalize(h, ProductBasis(6, 12))
    assert spec.eigenvalues.sum() == pytest.approx(np.trace(h), rel=1e-10)


def test_uncoupled_fan_exact(vs15):
    # b_y = 0: the dense solve of the assembled matrix gives exactly
    # E_n + hbar w_c l, sorted (HamiltonianBlocks.solve reads these off the
    # diagonal with no dense solve, so it would not check the solver)
    cfg = FieldConfiguration.from_v_cm(15.0, 0.584, 0.0)
    basis = ProductBasis(4, 11)
    with _single_threaded_blas:
        spec = diagonalize(
            assemble_hamiltonian(HamiltonianBlocks(vs15, basis), cfg), basis)
    w_c = cyclotron_frequency(0.584)
    fan = np.sort([vs15.energy(n) + HBAR * w_c * l
                   for n in range(1, 5) for l in range(12)])
    assert np.allclose(spec.eigenvalues, fan, rtol=1e-12, atol=1e-30)


def test_even_in_coupling_field(vs15):
    basis = ProductBasis(6, 14)
    blocks = HamiltonianBlocks(vs15, basis)
    plus = blocks.solve(FieldConfiguration.from_v_cm(15.0, 0.65, 0.2))
    minus = blocks.solve(FieldConfiguration.from_v_cm(15.0, 0.65, -0.2))
    assert np.allclose(plus.eigenvalues, minus.eigenvalues,
                       rtol=1e-12, atol=1e-30)


def test_basis_mismatch_guards(vs15):
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 0.1)
    with pytest.raises(BasisMismatch):
        assemble_hamiltonian(HamiltonianBlocks(vs15, ProductBasis(8, 10)),
                             cfg)
    with pytest.raises(BasisMismatch):
        assemble_hamiltonian(HamiltonianBlocks(vs15, ProductBasis(4, 10)),
                             cfg.replace(e_perp=2000.0))


def test_ladder_truncation_converged(vs15):
    # doubling the ladder from 50 to 80 rungs moves the levels below the
    # (4,0) threshold by under 10 MHz at a strong coupling field
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 1.0)
    small = HamiltonianBlocks(vs15, ProductBasis(6, 50)).solve(cfg)
    large = HamiltonianBlocks(vs15, ProductBasis(6, 80)).solve(cfg)
    cut = vs15.energy(4)
    k = int(np.searchsorted(small.eigenvalues, cut))
    drift = np.abs(small.eigenvalues[:k] - large.eigenvalues[:k]) / GHZ
    # a dozen dressed levels fit under the n = 4 threshold here; enough
    # to make the comparison meaningful
    assert k >= 10
    assert drift.max() < 0.010


def test_shared_blocks_solve_equals_solve_coupled(vs15):
    # one set of blocks over a b_z, b_y sweep gives the one-shot matrices
    # and spectra exactly
    basis = ProductBasis(6, 20)
    blocks = HamiltonianBlocks(vs15, basis)
    with _single_threaded_blas:
        for b_z, b_y in ((0.65, 0.0), (0.65, 0.2), (1.2, 0.1), (1.2, -0.3)):
            cfg = FieldConfiguration.from_v_cm(15.0, b_z, b_y)
            one_shot_h = assemble_hamiltonian(HamiltonianBlocks(vs15, basis),
                                              cfg)
            assert np.array_equal(assemble_hamiltonian(blocks, cfg),
                                  one_shot_h)
            shared = blocks.solve(cfg)
            one_shot = diagonalize(one_shot_h, basis)
            assert np.array_equal(shared.eigenvalues, one_shot.eigenvalues)
            assert np.array_equal(shared.eigenvectors,
                                  one_shot.eigenvectors)


def test_restricted_blocks_equal_fresh_assembly(vs15):
    # a lower Landau cut gives the matrices and spectra of a
    # ProductBasis(n_max, L) assembly, and its matrix is the full ladder's
    # restricted to l <= L, entry for entry
    blocks = HamiltonianBlocks(vs15, ProductBasis(6, 50))
    with _single_threaded_blas:
        for cut in (0, 1, 17, 30, 49, 50):
            fresh = HamiltonianBlocks(vs15, ProductBasis(6, cut))
            keep = (51 * np.arange(6)[:, None] + np.arange(cut + 1)).ravel()
            for b_z, b_y in ((0.584, 0.0), (0.584, 0.6), (1.2, -0.3)):
                cfg = FieldConfiguration.from_v_cm(15.0, b_z, b_y)
                h = assemble_hamiltonian(blocks, cfg, cut)
                assert np.array_equal(h, assemble_hamiltonian(fresh, cfg))
                assert np.array_equal(h, assemble_hamiltonian(blocks, cfg)[
                    np.ix_(keep, keep)])
                mine, theirs = blocks.solve(cfg, cut), fresh.solve(cfg)
                assert mine.basis == theirs.basis
                assert np.array_equal(mine.eigenvalues, theirs.eigenvalues)
                assert np.array_equal(mine.eigenvectors,
                                      theirs.eigenvectors)
    cfg = FieldConfiguration.from_v_cm(15.0, 0.584, 0.6)
    for cut in (-1, 51):
        with pytest.raises(ValueError):
            assemble_hamiltonian(blocks, cfg, cut)
        with pytest.raises(ValueError):
            blocks.solve(cfg, cut)


def _kron_hamiltonian(vs, cfg, basis):
    """Reference assembly with Kronecker products, in the package's
    constants: diag(E_n + hbar w_c l) + (m w_y^2 / 2) kron(z^2, 1_l)
    + (hbar w_y / sqrt(2) l_B) kron(z, a + a^dagger)."""
    nb, lb = basis.n_max, basis.l_max
    hbar = materials.HBAR
    _, omega_y, l_b = materials.derived_frequencies(cfg)
    w_c = cyclotron_frequency(cfg.b_z)
    h = np.diag((vs.energies[:nb, None]
                 + hbar * w_c * np.arange(float(lb + 1))).ravel())
    s = np.diag(np.sqrt(np.arange(1.0, lb + 1)), 1)
    h += (0.5 * materials.ELECTRON_MASS * omega_y**2
          * np.kron(vs.z2_matrix[:nb, :nb], np.eye(lb + 1)))
    h += hbar * omega_y / (np.sqrt(2.0) * l_b) * np.kron(vs.z_matrix[:nb, :nb],
                                                         s + s.T)
    return h


@pytest.mark.parametrize("n_max", [6, 4])
def test_assembly_is_the_kronecker_sum_bit_for_bit(vs15, n_max):
    # every entry, signed zeros included, on each Landau cut of the cap and
    # with fewer vertical levels than the solve holds
    blocks = HamiltonianBlocks(vs15, ProductBasis(n_max, 50))
    for b_y in (0.6, -0.3, 0.2, 0.0):
        cfg = FieldConfiguration.from_v_cm(15.0, 0.584, b_y)
        for cut in (0, 1, 17, 49, 50):
            h = assemble_hamiltonian(blocks, cfg, cut)
            ref = _kron_hamiltonian(vs15, cfg, ProductBasis(n_max, cut))
            assert h.tobytes() == ref.tobytes()


def test_cap_solve_keeps_no_field_independent_matrices(vs15):
    # a solve holds the matrix it overwrites and the spectrum it returns,
    # and the handle keeps nothing once the spectrum is dropped
    blocks = HamiltonianBlocks(vs15, ProductBasis(6, 50))
    cfg = FieldConfiguration.from_v_cm(15.0, 0.584, 0.6)
    n2 = 8 * blocks.basis.size**2
    tracemalloc.start()
    try:
        spec = blocks.solve(cfg)
        _, peak = tracemalloc.get_traced_memory()
        del spec
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.3 * n2
    assert held < 0.1 * n2


def test_dominant_labels_match_dominant(vs15):
    # a fig3 point: full basis, on the (2,1)/(3,0) avoided crossing
    cfg = FieldConfiguration.from_v_cm(15.0, 1.2, 0.2)
    spec = HamiltonianBlocks(vs15, ProductBasis(6, 50)).solve(cfg)
    n, l, weight = spec.dominant_labels()
    labels = list(zip(n.tolist(), l.tolist(), weight.tolist()))
    assert labels == [spec.dominant(k) for k in range(spec.basis.size)]
    assert len(set(labels)) > 1


def test_locate_and_dominant(vs15):
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 0.05)
    spec = HamiltonianBlocks(vs15, ProductBasis(4, 8)).solve(cfg)
    k = spec.locate(2, 1)
    n, l, w = spec.dominant(k)
    assert (n, l) == (2, 1)
    assert w > 0.9


def test_locate_range_guard_and_weights(vs15):
    # weights() is read-only, the squared eigenvector components in
    # (state, n - 1, l) order; locate refuses labels outside the basis,
    # where weights(n=n, l=l) would wrap a negative index
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 0.2)
    spec = HamiltonianBlocks(vs15, ProductBasis(4, 8)).solve(cfg)
    for n, l in ((0, 0), (5, 0), (1, -1), (1, 9)):
        with pytest.raises(IndexError):
            spec.locate(n, l)
    weights = spec.weights()
    assert not weights.flags.writeable
    assert weights.shape == (36, 4, 9)
    want = spec.eigenvectors.T.reshape(-1, 4, 9) ** 2
    assert weights.tobytes() == want.tobytes()


def test_weights_of_a_selection_are_the_full_array_sliced(vs15):
    # a state selection or a label squares only what it returns, and gives
    # the full array's values; a sum over a selection keeps its bits
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 0.2)
    spec = HamiltonianBlocks(vs15, ProductBasis(4, 8)).solve(cfg)
    full = spec.weights()
    states = np.array([0, 3, 17, 35])
    for got, want in (
            (spec.weights(states), full[states]),
            (spec.weights(5), full[5]),
            (spec.weights(slice(2, 9)), full[2:9]),
            (spec.weights(n=2, l=1), full[:, 1, 1]),
            (spec.weights(n=1, l=slice(5)), full[:, 0, :5]),
            (spec.weights(states, n=4, l=8), full[states, 3, 8]),
            (spec.weights(l=slice(3, 6)), full[:, :, 3:6])):
        assert not got.flags.writeable
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert (spec.weights(states).sum(axis=1).tobytes()
            == full[states].sum(axis=1).tobytes())


@pytest.fixture(scope="module")
def fig6_blocks(he3):
    # fig6 regime: 29 V/cm, capped at l_max = 50
    return HamiltonianBlocks(solve_vertical(he3, 2900.0), ProductBasis(6, 50))


@pytest.mark.parametrize("b_y, next_cut", [
    (0.0, None), (0.1, 20), (0.3, 25), (0.45, 34), (0.6, 50)])
def test_certify_on_catalog_states(fig6_blocks, b_y, next_cut):
    # the thermal initial states and every in-band final state on the cut
    # l <= 17: the edge weight is their largest weight on rungs 16 and 17
    cfg = FieldConfiguration.from_v_cm(29.0, 0.584, b_y, temperature=0.33)
    spec = fig6_blocks.solve(cfg, 17)
    pops = thermal_populations(cfg, spectroscopy._auto_l_cut(cfg, 50))
    lines = spectroscopy._catalog(spec, fig6_blocks.vs, pops, (60.0, 120.0))
    states = np.union1d(lines.initial_states, lines.final_index)
    c = spec.eigenvectors[:, states].reshape(6, 18, -1)
    want_edge = float(((c ** 2).sum(axis=0))[-2:].sum(axis=0).max())
    assert coupled._certify(spec, states, 50) == (want_edge, next_cut)


def test_find_crossing_oracle(vs15):
    # (1,1)/(2,0) at 15 V/cm sits near 2.83 T; exact linear-fan root
    b = find_crossing(vs15, ((1, 1), (2, 0)), (0.5, 5.0))
    assert b == pytest.approx(2.8306, abs=2e-3)
    w_c = cyclotron_frequency(b)
    assert HBAR * w_c == pytest.approx(vs15.transition_energy(1, 2),
                                       rel=1e-3)
    with pytest.raises(NoCrossingInRange):
        find_crossing(vs15, ((1, 1), (2, 0)), (0.5, 1.0))


def test_minimum_gap_matches_coupling(vs20):
    # dressed (2,1)/(3,0) gap equals 2|g_23| near its crossing
    b_star = find_crossing(vs20, ((2, 1), (3, 0)), (0.5, 3.0))
    cfg = FieldConfiguration.from_v_cm(20.0, b_star, 0.1)
    b_min, gap = minimum_gap(
        HamiltonianBlocks(vs20, ProductBasis(6, 12)), cfg, ((2, 1), (3, 0)),
        b_z_range=(0.98 * b_star, 1.02 * b_star), n_steps=41)
    g = coupling_constant(vs20, cfg.replace(b_z=b_min), 2, 3)
    assert gap == pytest.approx(2.0 * abs(g), rel=0.02)
    assert abs(b_min - b_star) < 0.01


def test_minimum_gap_linear_in_coupling_field(vs20):
    b_star = find_crossing(vs20, ((2, 1), (3, 0)), (0.5, 3.0))
    blocks = HamiltonianBlocks(vs20, ProductBasis(6, 12))
    gaps = []
    for b_y in (0.05, 0.1):
        cfg = FieldConfiguration.from_v_cm(20.0, b_star, b_y)
        _, gap = minimum_gap(
            blocks, cfg, ((2, 1), (3, 0)),
            b_z_range=(0.98 * b_star, 1.02 * b_star), n_steps=41)
        gaps.append(gap)
    assert gaps[1] / gaps[0] == pytest.approx(2.0, rel=0.02)


def _eigh_bytes(h):
    vals, vecs = np.linalg.eigh(h)
    return vals.tobytes(), vecs.tobytes()


def test_diagonalize_overwrites_h_only_when_asked(vs15):
    # HamiltonianBlocks.solve lets the dense solve overwrite the matrix it
    # assembled; any other caller's h is left as it was. Both give
    # np.linalg.eigh's bytes, with C-ordered eigenvectors.
    blocks = HamiltonianBlocks(vs15, ProductBasis(6, 50))
    cfg = FieldConfiguration.from_v_cm(15.0, 0.8, 0.3)
    h = assemble_hamiltonian(blocks, cfg)
    kept = h.copy()
    with _single_threaded_blas:
        want = _eigh_bytes(h)
        spectra = [diagonalize(h, blocks.basis)]
        assert h.tobytes() == kept.tobytes()
        spectra.append(blocks.solve(cfg))
        spectra.append(diagonalize(h, blocks.basis, overwrite=True))
    for spec in spectra:
        assert spec.eigenvectors.flags.c_contiguous
        assert (spec.eigenvalues.tobytes(),
                spec.eigenvectors.tobytes()) == want


def test_diagonal_hamiltonian_solved_without_eigh(vs15, monkeypatch):
    # b_y = 0 points of the fig3 sweep have distinct diagonal entries:
    # blocks.solve reads them off with no matrix assembled and no dense
    # solve, and gives eigh's eigenvalues and eigenvectors byte for byte.
    # The b_z = 0 ladder (each E_n tied l_max + 1 times) and random
    # diagonals with exact ties go through the dense solve itself.
    basis = ProductBasis(6, 50)
    blocks = HamiltonianBlocks(vs15, basis)
    untied = [FieldConfiguration.from_v_cm(15.0, b_z, 0.0)
              for b_z in (1.0, 1.2, 1.4)]
    ladder = FieldConfiguration.from_v_cm(15.0, 0.0, 0.0)
    tied = []
    rng = np.random.default_rng(7)
    for n_max, l_max in ((1, 2), (2, 4), (6, 50)):
        small = ProductBasis(n_max, l_max)
        d = rng.integers(-2, 3, small.size) * 1e-23
        tied.append((np.diag(d), small))
    dense_solves = []
    eigh = coupled._eigh_in_place

    def counted_eigh(a):
        dense_solves.append(a.shape)
        return eigh(a)

    def _spec_bytes(spec):
        return spec.eigenvalues.tobytes(), spec.eigenvectors.tobytes()

    with _single_threaded_blas:
        want = [_eigh_bytes(assemble_hamiltonian(blocks, cfg))
                for cfg in untied + [ladder]]
        tied_want = [_eigh_bytes(h) for h, _ in tied]
        monkeypatch.setattr(coupled, "_eigh_in_place", counted_eigh)
        assert _spec_bytes(blocks.solve(ladder)) == want[-1]
        for (h, b), w in zip(tied, tied_want):
            assert _spec_bytes(diagonalize(h, b)) == w
        assert len(dense_solves) == 1 + len(tied)

        def forbidden(*args, **kwargs):
            raise AssertionError("untied b_y = 0 point left the read-off")

        monkeypatch.setattr(coupled, "_eigh_in_place", forbidden)
        monkeypatch.setattr(coupled, "assemble_hamiltonian", forbidden)
        for cfg, w in zip(untied, want):
            assert _spec_bytes(blocks.solve(cfg)) == w


def _fan_blocks(vs15):
    return HamiltonianBlocks(vs15, ProductBasis(6, 50))


# the sweep itself, as the module defines it: _cap_gap calls it directly,
# so no recorder or fault patched into coupled reaches the reference sweep
_TRACK_PAIR = coupled._track_pair


def _cap_gap(blocks, cfg, pair, b_z_range=None, n_steps=81):
    """minimum_gap's sweep on the full ladder, without the certified cut."""
    if b_z_range is None:
        center = coupled._crossing_field(blocks.vs, pair)
        b_z_range = (0.95 * center, 1.05 * center)
    values = np.linspace(*b_z_range, n_steps)
    return _TRACK_PAIR(blocks, blocks.basis.l_max, cfg, pair, values)[0]


@pytest.fixture
def landau_cuts(monkeypatch):
    """The Landau cuts minimum_gap sweeps on, in order."""
    cuts = []

    def recorded(blocks, landau, *args):
        cuts.append(landau)
        return _TRACK_PAIR(blocks, landau, *args)

    monkeypatch.setattr(coupled, "_track_pair", recorded)
    return cuts


@pytest.mark.parametrize("pair", [((2, 0), (1, 1)), ((3, 0), (2, 1))])
def test_minimum_gap_certified_cut_matches_cap(vs15, pair, landau_cuts):
    # the fan pairs at 15 V/cm and b_y = 0.1 T: the first cut (l <= 5)
    # fails the certificate, the sweep climbs and stops below the cap
    blocks = _fan_blocks(vs15)
    cfg = FieldConfiguration.from_v_cm(15.0, 0.0, 0.1)
    with _single_threaded_blas:
        b_min, gap = minimum_gap(blocks, cfg, pair)
        want_b, want_gap = _cap_gap(blocks, cfg, pair)
    assert landau_cuts[0] == 5
    assert 5 < landau_cuts[-1] < 50
    assert b_min == want_b
    assert gap == pytest.approx(want_gap, rel=1e-12)


def test_minimum_gap_at_cap_is_the_full_ladder(vs15, landau_cuts):
    # (4,0)/(3,1) at b_y = 0.3 T climbs 5 -> 50; the cap result is the
    # full ladder's bit for bit
    blocks = _fan_blocks(vs15)
    cfg = FieldConfiguration.from_v_cm(15.0, 0.0, 0.3)
    with _single_threaded_blas:
        got = minimum_gap(blocks, cfg, ((4, 0), (3, 1)))
        want = _cap_gap(blocks, cfg, ((4, 0), (3, 1)))
    assert landau_cuts == [5, 50]
    assert got == want


def test_minimum_gap_tracking_loss_is_the_full_ladders(vs15):
    # a sweep too coarse to follow the branches raises the error text the
    # full ladder gives
    blocks = HamiltonianBlocks(vs15, ProductBasis(6, 30))
    cfg = FieldConfiguration.from_v_cm(15.0, 0.0, 0.5)
    with _single_threaded_blas, pytest.raises(BranchTrackingLost) as lost:
        minimum_gap(blocks, cfg, ((3, 0), (2, 1)), (0.5, 2.0), n_steps=4)
    assert str(lost.value) == (
        "overlap 0.479 below 0.5 at b_z = 1.0000 T; refine the sweep")


def test_minimum_gap_refuses_pair_on_one_eigenstate(vs20):
    # at 20 V/cm, b_z = 1.16 T, b_y = 0.3 T both (2,1) and (3,0) locate
    # eigenstate 5, on the first cut and at the cap
    blocks = HamiltonianBlocks(vs20, ProductBasis(6, 50))
    cfg = FieldConfiguration.from_v_cm(20.0, 1.16, 0.3)
    with _single_threaded_blas, pytest.raises(BranchTrackingLost,
                                              match="same eigenstate"):
        minimum_gap(blocks, cfg, ((2, 1), (3, 0)), (1.16, 1.2), n_steps=5)


def test_minimum_gap_loss_below_cap_moves_to_cap(vs15, monkeypatch):
    # a branch lost on a cut below the cap sends the sweep straight to the
    # cap, whose result stands
    landau_cuts = []

    def lossy(blocks, landau, *args):
        landau_cuts.append(landau)
        if landau < 20:
            raise BranchTrackingLost("lost below the cap")
        return _TRACK_PAIR(blocks, landau, *args)

    monkeypatch.setattr(coupled, "_track_pair", lossy)
    blocks = HamiltonianBlocks(vs15, ProductBasis(6, 20))
    cfg = FieldConfiguration.from_v_cm(15.0, 0.0, 0.1)
    with _single_threaded_blas:
        got = minimum_gap(blocks, cfg, ((2, 0), (1, 1)))
        want = _cap_gap(blocks, cfg, ((2, 0), (1, 1)))
    assert landau_cuts == [5, 20]
    assert got == want


def test_minimum_gap_default_window_at_any_field(he3):
    # at 300 V/cm (6,0) and (1,1) cross near 23.18 T: the default window is
    # +-5% around the closed-form root, wherever it lies
    vs = solve_vertical(he3, 30000.0)
    blocks = HamiltonianBlocks(vs, ProductBasis(6, 12))
    cfg = FieldConfiguration.from_v_cm(300.0, 0.0, 0.1)
    pair = ((6, 0), (1, 1))
    b_star = find_crossing(vs, pair, (1e-3, 80.0))
    assert b_star == pytest.approx(23.18, abs=0.01)
    with _single_threaded_blas:
        got = minimum_gap(blocks, cfg, pair)
        want = minimum_gap(blocks, cfg, pair, (0.95 * b_star, 1.05 * b_star))
    assert got == want and got[1] > 0.0
    # equal l never cross, and (1,0)/(2,1) only at a negative field
    for pair in (((1, 0), (2, 0)), ((1, 0), (2, 1))):
        with pytest.raises(NoCrossingInRange, match="b_z > 0"):
            minimum_gap(blocks, cfg, pair)


def _brentq_crossing(vs, pair, b_z_range):
    """The bracketing root search find_crossing used before its closed
    form, stopped at 1e-4 T."""
    (n_a, l_a), (n_b, l_b) = pair

    def gap(b_z):
        w_c = cyclotron_frequency(b_z)
        return (vs.energy(n_a) + HBAR * w_c * l_a
                - vs.energy(n_b) - HBAR * w_c * l_b)

    return brentq(gap, *b_z_range, xtol=1e-4)


@pytest.mark.parametrize("pair, b_z_range", [
    (((2, 0), (1, 1)), (1e-3, 20.0)),
    (((3, 0), (2, 1)), (1e-3, 20.0)),
    (((2, 0), (1, 1)), (0.05, 5.0)),
    (((3, 0), (2, 1)), (0.05, 5.0)),
    (((1, 1), (2, 0)), (0.5, 5.0)),
    (((4, 0), (3, 1)), (0.5, 3.0)),
    (((2, 3), (3, 2)), (0.5, 3.0)),
])
def test_find_crossing_closed_form_matches_root_search(vs15, pair,
                                                       b_z_range):
    got = find_crossing(vs15, pair, b_z_range)
    assert abs(got - _brentq_crossing(vs15, pair, b_z_range)) < 1e-12


def test_find_crossing_edge_cases(vs15):
    # equal l: the gap is a constant, so no crossing
    with pytest.raises(NoCrossingInRange, match="do not cross"):
        find_crossing(vs15, ((1, 0), (2, 0)), (0.05, 5.0))
    # the same n: the levels meet at b_z = 0 only
    assert find_crossing(vs15, ((2, 0), (2, 1)), (0.0, 1.0)) == 0.0
    with pytest.raises(NoCrossingInRange):
        find_crossing(vs15, ((2, 0), (2, 1)), (0.1, 1.0))
    with pytest.raises(ValueError, match="lo < hi"):
        find_crossing(vs15, ((2, 0), (1, 1)), (3.0, 2.0))
    # a root exactly on either end of the interval is returned as that end
    levels = {1: 0.0, 2: HBAR * cyclotron_frequency(2.0)}
    stub = SimpleNamespace(energy=levels.__getitem__)
    assert find_crossing(stub, ((1, 1), (2, 0)), (0.5, 2.0)) == 2.0
    assert find_crossing(stub, ((1, 1), (2, 0)), (2.0, 3.0)) == 2.0
    # here the closed form rounds to one ulp below lo, where the gap
    # already has the sign of hi: the result is held at lo
    levels = {1: -2.7545065016949124e-23, 2: 2.067480775245445e-23}
    stub = SimpleNamespace(energy=levels.__getitem__)
    lo = 0.8665771769277962
    assert find_crossing(stub, ((1, 3), (2, 0)), (lo, 1.0)) == lo
