"""Closed-form side: coupling constants, dressed pairs, perturbative
shifts against the dense diagonalization, interference moments."""

import math

import numpy as np
import pytest
from scipy.constants import e as QE, hbar as HBAR, h as PLANCK, m_e as ME

from heliumjcm import (
    DegenerateField,
    FieldConfiguration,
    HamiltonianBlocks,
    NearResonance,
    ProductBasis,
    admixed_state,
    bethe_cancellation_check,
    coupling_constant,
    doublet_cancellation_field,
    dressed_pair,
    find_crossing,
    full_transition_shift_ghz,
    interference_moments,
    perturbative_shift,
    tilde_energy,
    transition_shift_ghz,
    truncation_report,
)

GHZ = 1e9 * PLANCK


def test_coupling_constant_formula(vs15):
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 0.2)
    w_y = QE * 0.2 / ME
    l_b = math.sqrt(HBAR / (QE * 0.65))
    want = HBAR * w_y / (math.sqrt(2.0) * l_b) * vs15.z_elem(1, 2)
    assert coupling_constant(vs15, cfg, 1, 2) == pytest.approx(want,
                                                               rel=1e-12)
    # linear in b_y, sign included
    half = coupling_constant(vs15, cfg.replace(b_y=0.1), 1, 2)
    assert coupling_constant(vs15, cfg, 1, 2) == pytest.approx(2.0 * half,
                                                               rel=1e-12)
    assert coupling_constant(vs15, cfg.replace(b_y=-0.2), 1, 2) == \
        pytest.approx(-coupling_constant(vs15, cfg, 1, 2), rel=1e-12)


def test_coupling_oracle(vs15):
    # strong-coupling operating point: |g|/h about 12.2 GHz
    cfg = FieldConfiguration.from_v_cm(15.0, 2.8306, 1.5)
    assert abs(coupling_constant(vs15, cfg, 2, 1)) / GHZ == pytest.approx(
        12.218, abs=0.01)


def test_dressed_pair_is_exact_2x2(vs15):
    cfg = FieldConfiguration.from_v_cm(20.0, 1.1408, 0.1)
    dp = dressed_pair(vs15, cfg, (2, 3), l=0)
    eps_a = tilde_energy(vs15, cfg, 3, 0)
    eps_b = tilde_energy(vs15, cfg, 2, 1)
    v = coupling_constant(vs15, cfg, 2, 3)
    h = np.array([[eps_b, v], [v, eps_a]])
    vals = np.linalg.eigvalsh(h)
    assert dp.energies[1] == pytest.approx(vals[0], rel=1e-12)
    assert dp.energies[0] == pytest.approx(vals[1], rel=1e-12)
    # branch amplitudes are a proper rotation
    c, s = dp.amp_plus[(3, 0)], dp.amp_plus[(2, 1)]
    assert c**2 + s**2 == pytest.approx(1.0, rel=1e-12)
    assert dp.amp_minus[(3, 0)] * c + dp.amp_minus[(2, 1)] * s == \
        pytest.approx(0.0, abs=1e-12)


def test_dressed_pair_resonance_limit(vs20):
    # the diamagnetic shifts move the tilde crossing slightly off the bare
    # one, so scan for the splitting minimum; there it equals 2|V| and the
    # mixing angle is a right angle
    b_star = find_crossing(vs20, ((2, 1), (3, 0)), (0.5, 3.0))
    best = None
    for b_z in np.linspace(0.97 * b_star, 1.03 * b_star, 121):
        cfg = FieldConfiguration.from_v_cm(20.0, float(b_z), 0.1)
        dp = dressed_pair(vs20, cfg, (2, 3), l=0)
        if best is None or dp.splitting < best.splitting:
            best = dp
    assert best.splitting == pytest.approx(2.0 * abs(best.g), rel=1e-3)
    assert abs(abs(best.mixing_angle) - math.pi / 2.0) < 0.05


def test_dressed_pair_decoupled_limit(vs20):
    # far off resonance the upper branch is the higher bare level
    cfg_far = FieldConfiguration.from_v_cm(20.0, 2.0, 0.01)
    dp_far = dressed_pair(vs20, cfg_far, (2, 3), l=0)
    eps = {lbl: tilde_energy(vs20, cfg_far, *lbl)
           for lbl in ((2, 1), (3, 0))}
    hi = max(eps, key=eps.get)
    assert abs(dp_far.amp_plus[hi]) > 0.999
    assert dp_far.energies[0] == pytest.approx(eps[hi], rel=1e-4)


def test_perturbative_shift_scales_quadratically(vs15):
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 0.1)
    s1 = perturbative_shift(vs15, cfg, 1, 0)
    s2 = perturbative_shift(vs15, cfg.replace(b_y=0.2), 1, 0)
    assert s2 == pytest.approx(4.0 * s1, rel=1e-12)
    assert perturbative_shift(vs15, cfg.replace(b_y=0.0), 1, 0) == 0.0


def test_near_resonance_guard(vs15):
    # at 0.65 T the (2,1)/(3,0) denominator sits 10 GHz away; by 0.4 T of
    # coupling field three couplings overrun it
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 0.4)
    with pytest.raises(NearResonance) as info:
        perturbative_shift(vs15, cfg, 2, 1)
    assert info.value.coupling != 0.0
    assert abs(info.value.denominator) <= 3.0 * abs(info.value.coupling)
    # the same configuration is fine at weak coupling
    perturbative_shift(vs15, cfg.replace(b_y=0.1), 2, 1)
    with pytest.raises(DegenerateField):
        perturbative_shift(vs15, cfg.replace(b_z=0.0), 1, 0)


def test_transition_shift_signs(vs15):
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 0.2)
    assert transition_shift_ghz(vs15, cfg, 0) > 0.0
    assert transition_shift_ghz(vs15, cfg, 1) < 0.0


def test_perturbative_vs_full_at_weak_coupling(vs15):
    # both routes agree to leading order; the quartic resummation terms
    # stay negligible below 0.1 T
    blocks = HamiltonianBlocks(vs15, ProductBasis(6, 50))
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 0.1)
    d0 = transition_shift_ghz(vs15, cfg, 0)
    for l, full in zip((0, 1), full_transition_shift_ghz(blocks, cfg, (0, 1))):
        pert = transition_shift_ghz(vs15, cfg, l)
        assert abs(full - pert) < 0.08 * abs(d0)


def test_full_shift_levels_from_one_solve(vs15):
    # a sequence of l reads every level from one spectrum, with the same
    # bits as one call per level
    basis = ProductBasis(6, 20)
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 0.2)
    blocks = HamiltonianBlocks(vs15, basis)
    single = [full_transition_shift_ghz(blocks, cfg, [l])[0] for l in (0, 1)]
    assert all(type(value) is float for value in single)
    assert full_transition_shift_ghz(blocks, cfg, (0, 1)) == single
    fresh = HamiltonianBlocks(vs15, basis)
    assert full_transition_shift_ghz(fresh, cfg, [0, 1]) == single


def test_full_shift_even_in_b_y(vs15):
    blocks = HamiltonianBlocks(vs15, ProductBasis(6, 30))
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 0.15)
    [plus] = full_transition_shift_ghz(blocks, cfg, [0])
    [minus] = full_transition_shift_ghz(blocks, cfg.replace(b_y=-0.15), [0])
    assert plus == pytest.approx(minus, rel=1e-10)


def test_bethe_residual_equals_sum_rule_defect(vs15):
    # raw minus reduced is exactly the truncated part of the z^2 sum rule
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 0.1)
    for n in (1, 2):
        raw, reduced, residual = bethe_cancellation_check(vs15, cfg, n, 0)
        assert residual == pytest.approx(truncation_report(vs15)[n - 1],
                                         rel=1e-9)
        assert raw != reduced
    assert bethe_cancellation_check(
        vs15, cfg.replace(b_y=0.0), 1, 0) == (0.0, 0.0, 0.0)


def test_admixed_state_matches_diagonalization(vs15):
    # first-order amplitudes against the dense eigenvector at weak coupling
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, 0.02)
    basis = ProductBasis(6, 12)
    spec = HamiltonianBlocks(vs15, basis).solve(cfg)
    amps = admixed_state(vs15, cfg, 2, 1)
    k = spec.locate(2, 1)
    vec = spec.eigenvectors[:, k]
    norm = vec[basis.index(2, 1)]
    for (n, l), amp in amps.items():
        if (n, l) == (2, 1) or abs(amp) < 1e-5:
            continue
        exact = vec[basis.index(n, l)] / norm
        assert amp == pytest.approx(exact, rel=0.05), (n, l)


def test_admixture_same_level_coefficients(vs20):
    # ladder admixtures within one vertical level have the pure
    # (B_y/B_z) z_nn geometry: the l + 1 partner gets -z22/l_B of it, the
    # l - 1 partner +z22/(sqrt2 l_B), from the +-hbar w_c denominators
    cfg = FieldConfiguration.from_v_cm(20.0, 0.9, 0.01)
    l_b = math.sqrt(HBAR / (QE * 0.9))
    amps = admixed_state(vs20, cfg, 2, 1)
    geometry = (0.01 / 0.9) * vs20.z_elem(2, 2) / l_b
    assert amps[(2, 2)] == pytest.approx(-geometry, rel=1e-12)
    assert amps[(2, 0)] == pytest.approx(geometry / math.sqrt(2.0),
                                         rel=1e-12)


def test_interference_moment_identity(vs20):
    cfg = FieldConfiguration.from_v_cm(20.0, 1.1408, 0.3)
    im = interference_moments(HamiltonianBlocks(vs20, ProductBasis(6, 16)),
                              cfg)
    l_b = math.sqrt(HBAR / (QE * 1.1408))
    mixed = vs20.z_elem(2, 2) * vs20.z_elem(2, 1) \
        / (math.sqrt(2.0) * l_b) * (0.3 / 1.1408)
    assert im.z_plus == pytest.approx(mixed + vs20.z_elem(3, 1), rel=1e-12)
    assert im.z_minus == pytest.approx(mixed - vs20.z_elem(3, 1), rel=1e-12)
    assert im.upper_energy > im.lower_energy
    # leading order tracks the exact moments: the cancelling branch is the
    # upper one under this phase convention
    assert abs(im.upper_moment) < abs(im.lower_moment)


def test_interference_moments_doublet_is_two_states(vs20):
    # at b_z = 1.16 T, b_y = 0.3 T both (2,1) and (3,0) locate state 5: the
    # (3,0) partner is the strongest on |3,0> other than the (2,1) state
    basis = ProductBasis(6, 50)
    cfg = FieldConfiguration.from_v_cm(20.0, 1.16, 0.3)
    blocks = HamiltonianBlocks(vs20, basis)
    spec = blocks.solve(cfg)
    k1 = spec.locate(2, 1)
    assert k1 == spec.locate(3, 0) == 5
    weights_30 = spec.eigenvectors[basis.index(3, 0), :] ** 2
    weights_30[k1] = -1.0
    k2 = int(np.argmax(weights_30))
    upper, lower = sorted((k1, k2), key=lambda k: -spec.eigenvalues[k])
    im = interference_moments(blocks, cfg)
    assert (im.upper_index, im.lower_index) == (upper, lower) == (6, 5)


def test_cancellation_field_closed_form(he3):
    b = doublet_cancellation_field(he3, 1.18, 3.91 * he3.bohr_radius, 0.5)
    l_b = math.sqrt(HBAR / (QE * 1.18))
    want = math.sqrt(2.0) * l_b * 1.18 * 0.5 / (3.91 * he3.bohr_radius)
    assert b == pytest.approx(want, rel=1e-12)
    with pytest.raises(DegenerateField):
        doublet_cancellation_field(he3, 0.0, 1e-9, 0.5)
    with pytest.raises(ValueError):
        doublet_cancellation_field(he3, 1.18, -1e-9, 0.5)
