"""Material table and field-configuration plumbing."""

import math

import pytest
import scipy.constants
from scipy.constants import e as QE, hbar as HBAR, h as PLANCK, m_e as ME

from heliumjcm import (
    DegenerateField,
    FieldConfiguration,
    MaterialProperties,
    cyclotron_frequency,
    derived_frequencies,
    material_for,
    materials,
)

MEV = 1e-3 * 1.602176634e-19


def test_he3_calibration(he3):
    # binding energy 0.36 meV and everything derived from it
    assert he3.rydberg_energy == pytest.approx(0.36 * MEV, rel=1e-12)
    assert he3.rydberg_energy / PLANCK == pytest.approx(87.0476e9, rel=1e-5)
    assert he3.bohr_radius == pytest.approx(10.2875e-9, rel=1e-5)


def test_he4_calibration(he4):
    assert he4.rydberg_energy == pytest.approx(0.63 * MEV, rel=1e-12)
    assert he4.bohr_radius == pytest.approx(7.7766e-9, rel=1e-5)


def test_internal_relations_hold_exactly(he3, he4):
    for mat in (he3, he4):
        lam = mat.lambda_coupling
        assert mat.rydberg_energy == pytest.approx(
            ME * lam**2 / (2.0 * HBAR**2), rel=1e-13)
        assert mat.bohr_radius == pytest.approx(
            HBAR**2 / (lam * ME), rel=1e-13)
        # epsilon is derived back from lambda, so the image-charge formula
        # must round-trip
        e0 = 8.8541878128e-12
        lam_back = QE**2 / (16.0 * math.pi * e0) \
            * (mat.epsilon - 1.0) / (mat.epsilon + 1.0)
        assert lam_back == pytest.approx(lam, rel=1e-9)


def test_literature_epsilon_flagged_inconsistent(he3, he4):
    # the bulk dielectric constants miss the calibrated coupling by ~2%,
    # which the table records instead of hiding
    assert not he3.literature_epsilon_consistent
    assert not he4.literature_epsilon_consistent
    assert 0.01 < he3.literature_epsilon_residual < 0.03
    assert 0.01 < he4.literature_epsilon_residual < 0.03


def test_isotope_names_case_insensitive():
    assert material_for("HE3").isotope == "He3"
    assert material_for(" he4 ").isotope == "He4"
    with pytest.raises(ValueError):
        material_for("he5")


def test_material_overrides():
    mat = material_for("he3", barrier_height=2.0e-19,
                       surface_tension=2e-4, mass_density=90.0)
    assert mat.barrier_height == 2.0e-19
    assert mat.surface_tension == 2e-4
    assert mat.mass_density == 90.0
    # recalibrating the binding energy moves every derived length
    heavier = material_for("he3", rydberg_energy=0.40 * MEV)
    assert heavier.bohr_radius < material_for("he3").bohr_radius


def test_inconsistent_table_rejected(he3):
    with pytest.raises(ValueError):
        MaterialProperties(
            isotope="He3",
            epsilon=he3.epsilon,
            lambda_coupling=he3.lambda_coupling,
            rydberg_energy=he3.rydberg_energy * 1.01,   # breaks the relation
            bohr_radius=he3.bohr_radius,
            barrier_height=he3.barrier_height,
            surface_tension=he3.surface_tension,
            mass_density=he3.mass_density,
            literature_epsilon_residual=0.0,
            literature_epsilon_consistent=True,
        )


def test_stark_parameter(he3):
    f = he3.stark_parameter(1500.0)
    assert f == pytest.approx(QE * 1500.0 * he3.bohr_radius
                              / he3.rydberg_energy, rel=1e-13)
    with pytest.raises(ValueError):
        he3.stark_parameter(-1.0)


def test_field_configuration_units():
    cfg = FieldConfiguration.from_v_cm(15.0, 0.65, b_y=0.2, temperature=0.3)
    assert cfg.e_perp == pytest.approx(1500.0)
    assert cfg.e_perp_v_cm == pytest.approx(15.0)
    assert cfg.replace(b_y=-0.2).b_y == -0.2   # negative coupling field ok
    # b_y and temperature default as the constructor's do
    assert FieldConfiguration.from_v_cm(15.0, 0.65) == \
        FieldConfiguration(cfg.e_perp, 0.65)
    with pytest.raises(ValueError):
        FieldConfiguration(-1.0, 0.5)
    with pytest.raises(ValueError):
        FieldConfiguration(1500.0, -0.5)
    with pytest.raises(ValueError):
        FieldConfiguration(1500.0, 0.5, temperature=0.0)


def test_derived_frequencies():
    cfg = FieldConfiguration(1500.0, 1.0, 0.5)
    w_c, w_y, l_b = derived_frequencies(cfg)
    assert w_c == pytest.approx(QE / ME, rel=1e-12)
    assert w_y == pytest.approx(0.5 * QE / ME, rel=1e-12)
    assert l_b == pytest.approx(math.sqrt(HBAR / QE), rel=1e-12)
    assert l_b == pytest.approx(25.656e-9, rel=1e-4)
    with pytest.raises(DegenerateField):
        derived_frequencies(FieldConfiguration(1500.0, 0.0, 0.5))


def test_cyclotron_frequency():
    assert cyclotron_frequency(0.0) == 0.0
    # 27.99 GHz per tesla for a free electron
    assert cyclotron_frequency(1.0) / (2.0 * math.pi) == pytest.approx(
        27.9925e9, rel=1e-4)


@pytest.mark.parametrize("name, scipy_name", [
    ("ELEMENTARY_CHARGE", "e"),
    ("ELECTRON_MASS", "m_e"),
    ("VACUUM_PERMITTIVITY", "epsilon_0"),
    ("PLANCK", "h"),
    ("HBAR", "hbar"),
    ("BOLTZMANN", "k"),
])
def test_constants_equal_scipy(name, scipy_name):
    # the package writes the constants out instead of importing scipy
    assert getattr(materials, name) == getattr(scipy.constants, scipy_name)
