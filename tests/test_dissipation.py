"""Ripplon bath, two-ripplon decay rates, elastic enhancement."""

import math

import pytest
from scipy.constants import hbar as HBAR, h as PLANCK

from heliumjcm import (
    DegenerateField,
    FieldConfiguration,
    NotDownward,
    RipplonBath,
    StrongCouplingReport,
    coupling_constant,
    find_crossing,
    resonant_wavenumber,
    scba_elastic_rate,
    strong_coupling_report,
    two_ripplon_rate,
)

GHZ = 1e9 * PLANCK


def test_bath_dispersion(he3):
    bath = RipplonBath.from_material(he3)
    assert bath.surface_tension == he3.surface_tension
    q = 3e9
    assert bath.omega(q) == pytest.approx(
        math.sqrt(he3.surface_tension * q**3 / he3.mass_density), rel=1e-12)
    # group velocity is the analytic 1.5 w/q of the q^(3/2) branch
    dq = q * 1e-6
    numeric = (bath.omega(q + dq) - bath.omega(q - dq)) / (2.0 * dq)
    assert bath.group_velocity(q) == pytest.approx(numeric, rel=1e-9)


def test_bath_occupation():
    bath = RipplonBath(1.55e-4, 82.0, temperature=0.0)
    assert bath.occupation(1e10) == 0.0
    warm = RipplonBath(1.55e-4, 82.0, temperature=0.35)
    omega = warm.omega(3e9)
    n = warm.occupation(omega)
    assert n == pytest.approx(
        1.0 / math.expm1(HBAR * omega / (1.380649e-23 * 0.35)), rel=1e-12)
    with pytest.raises(ValueError):
        RipplonBath(0.0, 82.0)
    with pytest.raises(ValueError):
        RipplonBath(1.55e-4, 82.0, temperature=-0.1)


def test_resonant_wavenumber_round_trip(he3, vs15):
    bath = RipplonBath.from_material(he3)
    delta = vs15.transition_energy(1, 2)
    q = resonant_wavenumber(bath, delta)
    # each ripplon carries half the drop
    assert 2.0 * HBAR * bath.omega(q) == pytest.approx(delta, rel=1e-12)
    # frozen scale for the 79 GHz transition: about 3.2e7 per cm
    assert q / 100.0 == pytest.approx(3.20e7, rel=0.01)
    with pytest.raises(NotDownward):
        resonant_wavenumber(bath, -delta)


def test_rate_guards(he3, vs15):
    bath = RipplonBath.from_material(he3)
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65)
    with pytest.raises(NotDownward):
        two_ripplon_rate(vs15, bath, cfg, (1, 0), (2, 0))
    with pytest.raises(NotDownward):
        two_ripplon_rate(vs15, bath, cfg, (1, 0), (1, 0))
    with pytest.raises(DegenerateField):
        two_ripplon_rate(vs15, bath, cfg.replace(b_z=0.0), (2, 0), (1, 0))
    with pytest.raises(ValueError):
        two_ripplon_rate(vs15, bath, cfg, (2, -1), (1, 0))


def test_rate_oracles(he3, vs15):
    # at the (1,1)/(2,0) crossing both decays release the same energy
    bath = RipplonBath.from_material(he3)
    b_star = find_crossing(vs15, ((1, 1), (2, 0)), (0.5, 5.0))
    cfg = FieldConfiguration.from_v_cm(15.0, b_star)
    vertical = two_ripplon_rate(vs15, bath, cfg, (2, 0), (1, 0))
    ladder = two_ripplon_rate(vs15, bath, cfg, (1, 1), (1, 0))
    # converged dV/dz (the finite-difference reference at 16,000 and
    # 32,000 points gives the same rates to 0.3%)
    assert vertical == pytest.approx(3.50e5, rel=0.01)
    assert ladder == pytest.approx(1.72e6, rel=0.01)


def test_rate_ratio_identity(he3, vs15):
    # equal energy drops cancel everything but the barrier-gradient
    # diagonals, so the ratio is exactly dv_11 / dv_22
    bath = RipplonBath.from_material(he3)
    b_star = find_crossing(vs15, ((1, 1), (2, 0)), (0.5, 5.0))
    cfg = FieldConfiguration.from_v_cm(15.0, b_star)
    vertical = two_ripplon_rate(vs15, bath, cfg, (2, 0), (1, 0))
    ladder = two_ripplon_rate(vs15, bath, cfg, (1, 1), (1, 0))
    assert ladder / vertical == pytest.approx(
        vs15.dvdz(1) / vs15.dvdz(2), rel=1e-12)


def test_rate_scales_linearly_with_barrier(he3, vs15):
    import heliumjcm
    taller = heliumjcm.material_for("he3",
                                    barrier_height=2.0 * he3.barrier_height)
    vs_tall = heliumjcm.solve_vertical(taller, 1500.0)
    bath = RipplonBath.from_material(he3)
    bath_tall = RipplonBath.from_material(taller)
    cfg = FieldConfiguration.from_v_cm(15.0, 1.0)
    base = two_ripplon_rate(vs15, bath, cfg, (2, 0), (1, 0))
    tall = two_ripplon_rate(vs_tall, bath_tall, cfg, (2, 0), (1, 0))
    # the barrier height enters the prefactor once; the spectrum itself
    # does not depend on it in this rigid-wall model
    assert tall == pytest.approx(2.0 * base, rel=1e-9)


def test_stimulated_factor(he3, vs15):
    bath = RipplonBath.from_material(he3, temperature=0.35)
    cfg = FieldConfiguration.from_v_cm(15.0, 1.0)
    bare = two_ripplon_rate(vs15, bath, cfg, (2, 0), (1, 0))
    dressed = two_ripplon_rate(vs15, bath, cfg, (2, 0), (1, 0),
                               include_occupation=True)
    q = resonant_wavenumber(bath, vs15.transition_energy(1, 2))
    want = (1.0 + bath.occupation(bath.omega(q))) ** 2
    assert dressed / bare == pytest.approx(want, rel=1e-12)
    assert dressed > bare


def test_elastic_enhancement():
    cfg = FieldConfiguration.from_v_cm(15.0, 2.2)
    nu_b = scba_elastic_rate(1e6, cfg)
    assert nu_b == pytest.approx(4.963e8, rel=1e-3)
    with pytest.raises(DegenerateField):
        scba_elastic_rate(1e6, cfg.replace(b_z=0.0))
    with pytest.raises(ValueError):
        scba_elastic_rate(-1.0, cfg)


def test_strong_coupling_report(he3, vs15):
    b_star = find_crossing(vs15, ((1, 1), (2, 0)), (0.5, 5.0))
    cfg = FieldConfiguration.from_v_cm(15.0, b_star, 1.5)
    rep = strong_coupling_report(vs15, cfg)
    assert isinstance(rep, StrongCouplingReport)
    assert rep.g_ghz == pytest.approx(
        abs(coupling_constant(vs15, cfg, 2, 1)) / GHZ, rel=1e-12)
    assert rep.g_ghz == pytest.approx(12.218, abs=0.01)
    # the ratio uses the worse of the two inelastic rates and leaves the
    # elastic broadening out
    worst = max(rep.rate_vertical, rep.rate_ladder)
    assert rep.ratio == pytest.approx(rep.g_ghz * GHZ / HBAR / worst,
                                      rel=1e-12)
    assert rep.ratio > 1e4
    assert rep.elastic_rate > worst
    # pair order does not matter
    flipped = strong_coupling_report(vs15, cfg, pair=(1, 2))
    assert flipped == rep
    with pytest.raises(ValueError):
        strong_coupling_report(vs15, cfg, pair=(2, 2))
