"""Physical constants, helium isotope data, and field configurations.

Boundary convention: public fields are SI (J, m, T, K, V/m) unless the name
says otherwise; helpers are provided for the units customary in this problem
(GHz, V/cm). All internal solvers scale to energies in units of the binding
Rydberg R_e and lengths in units of the effective Bohr radius r_B; the scale
factors live on MaterialProperties so the conversion happens in exactly one
place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateField

# CODATA 2022, the values scipy.constants 1.17 carries, written out so that
# importing the package does not import scipy.
ELEMENTARY_CHARGE = 1.602176634e-19     # C
ELECTRON_MASS = 9.1093837139e-31        # kg
VACUUM_PERMITTIVITY = 8.8541878188e-12  # F/m
PLANCK = 6.62607015e-34                 # J s
HBAR = PLANCK / (2.0 * math.pi)         # J s
BOLTZMANN = 1.380649e-23                # J/K

GHZ = 1e9 * PLANCK          # J per GHz of frequency
V_PER_CM = 100.0            # V/m per V/cm
EV = ELEMENTARY_CHARGE      # J per eV

# Ground-state binding energy of the image-charge well per isotope.  These
# two numbers calibrate the whole vertical problem; everything spectral
# depends on them only through Lambda.
_RYDBERG_J = {
    "He3": 0.36e-3 * EV,
    "He4": 0.63e-3 * EV,
}

# Bulk dielectric constants of the liquids near 0.3 K, used only for the
# consistency flag below, never for the spectra themselves.
_EPSILON_LITERATURE = {"He3": 1.0428, "He4": 1.0572}

# Ripplon bath parameters near 0.3 K.
_SURFACE_TENSION_N_M = {"He3": 1.55e-4, "He4": 3.78e-4}
_MASS_DENSITY_KG_M3 = {"He3": 82.0, "He4": 145.0}

# Repulsive barrier at the vapor-liquid interface; order 1 eV.  Enters only
# the two-ripplon decay prefactor, never the wavefunctions (rigid wall).
_BARRIER_J = 1.0 * EV

_ISOTOPES = tuple(sorted(_RYDBERG_J))


def _lambda_from_epsilon(epsilon: float) -> float:
    """Image-charge strength (J m) from the dielectric constant."""
    return (ELEMENTARY_CHARGE**2 / (16.0 * math.pi * VACUUM_PERMITTIVITY)) * (
        (epsilon - 1.0) / (epsilon + 1.0)
    )


def _epsilon_from_lambda(lam: float) -> float:
    ratio = lam * 16.0 * math.pi * VACUUM_PERMITTIVITY / ELEMENTARY_CHARGE**2
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"lambda {lam} J m is outside the physical range")
    return (1.0 + ratio) / (1.0 - ratio)


@dataclass(frozen=True)
class MaterialProperties:
    """Isotope constants defining the electron-on-helium problem.

    lambda_coupling is authoritative: rydberg_energy, bohr_radius and epsilon
    are stored redundantly for convenience but must satisfy the closed-form
    relations, which __post_init__ enforces to near machine precision.
    literature_epsilon_consistent records whether the bulk dielectric
    constant would reproduce lambda_coupling within 1%; with the calibration
    used here it does not, and the residual is exposed for documentation.
    """

    isotope: str
    epsilon: float
    lambda_coupling: float      # J m
    rydberg_energy: float       # J
    bohr_radius: float          # m
    barrier_height: float       # J
    surface_tension: float      # N/m
    mass_density: float         # kg/m^3
    literature_epsilon_residual: float
    literature_epsilon_consistent: bool

    def __post_init__(self):
        if self.isotope not in _ISOTOPES:
            raise ValueError(f"unknown isotope {self.isotope!r}")
        for name in ("epsilon", "lambda_coupling", "rydberg_energy",
                     "bohr_radius", "barrier_height", "surface_tension",
                     "mass_density"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.epsilon <= 1.0:
            raise ValueError("epsilon must exceed 1")
        lam = self.lambda_coupling
        checks = (
            ("rydberg_energy", ELECTRON_MASS * lam**2 / (2.0 * HBAR**2),
             self.rydberg_energy),
            ("bohr_radius", HBAR**2 / (lam * ELECTRON_MASS), self.bohr_radius),
            ("epsilon route", _lambda_from_epsilon(self.epsilon), lam),
        )
        for name, want, got in checks:
            if abs(want - got) > 1e-12 * abs(want):
                raise ValueError(f"{name} inconsistent with lambda_coupling")

    def stark_parameter(self, e_perp: float) -> float:
        """Dimensionless tilt f = e E_perp r_B / R_e of the scaled potential
        -2/zeta + f zeta. e_perp in V/m."""
        if e_perp < 0.0:
            raise ValueError("e_perp must be non-negative")
        return ELEMENTARY_CHARGE * e_perp * self.bohr_radius / self.rydberg_energy


def material_for(
    isotope: str,
    barrier_height: float | None = None,
    surface_tension: float | None = None,
    mass_density: float | None = None,
    rydberg_energy: float | None = None,
) -> MaterialProperties:
    """Build the material table for an isotope (case-insensitive "He3"
    or "He4").

    The image-charge strength is calibrated from the measured binding
    energy (overridable for sensitivity studies); the dielectric constant
    is then derived back from it, so the MaterialProperties invariants hold
    exactly. barrier_height, surface_tension, mass_density only affect decay
    rates and default to literature values near 0.3 K (SI units).
    """
    canonical = {"he3": "He3", "he4": "He4"}.get(isotope.strip().lower())
    if canonical is None:
        raise ValueError(f"unknown isotope {isotope!r}; expected one of {_ISOTOPES}")
    isotope = canonical
    r_e = _RYDBERG_J[isotope] if rydberg_energy is None else float(rydberg_energy)
    if r_e <= 0.0:
        raise ValueError("rydberg_energy must be positive")
    lam = math.sqrt(2.0 * HBAR**2 * r_e / ELECTRON_MASS)
    lam_lit = _lambda_from_epsilon(_EPSILON_LITERATURE[isotope])
    residual = abs(lam_lit - lam) / lam
    return MaterialProperties(
        isotope=isotope,
        epsilon=_epsilon_from_lambda(lam),
        lambda_coupling=lam,
        rydberg_energy=r_e,
        bohr_radius=HBAR**2 / (lam * ELECTRON_MASS),
        barrier_height=_BARRIER_J if barrier_height is None else float(barrier_height),
        surface_tension=(_SURFACE_TENSION_N_M[isotope]
                         if surface_tension is None else float(surface_tension)),
        mass_density=(_MASS_DENSITY_KG_M3[isotope]
                      if mass_density is None else float(mass_density)),
        literature_epsilon_residual=residual,
        literature_epsilon_consistent=residual <= 0.01,
    )


@dataclass(frozen=True)
class FieldConfiguration:
    """Experiment knobs: tuning field E_perp (V/m), quantizing field b_z (T),
    coupling field b_y (T), bath temperature (K).

    b_y may be negative; every observable is even in it, which the tests
    exploit, so only its magnitude matters physically.
    """

    e_perp: float
    b_z: float
    b_y: float = 0.0
    temperature: float = 0.35

    def __post_init__(self):
        if self.e_perp < 0.0:
            raise ValueError("e_perp must be non-negative")
        if self.b_z < 0.0:
            raise ValueError("b_z must be non-negative")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")

    @property
    def e_perp_v_cm(self) -> float:
        return self.e_perp / V_PER_CM

    @classmethod
    def from_v_cm(cls, e_perp_v_cm: float, *args, **kwargs
                  ) -> "FieldConfiguration":
        """The constructor with E_perp in V/cm; b_z, b_y and temperature
        and their defaults are the constructor's."""
        return cls(e_perp_v_cm * V_PER_CM, *args, **kwargs)

    def replace(self, **kw) -> "FieldConfiguration":
        from dataclasses import replace as _replace
        return _replace(self, **kw)


def derived_frequencies(cfg: FieldConfiguration) -> tuple[float, float, float]:
    """(omega_c, omega_y, l_B): cyclotron and coupling angular frequencies
    (rad/s) and the magnetic length (m).

    Raises DegenerateField at b_z = 0 where the magnetic length diverges.
    """
    if cfg.b_z == 0.0:
        raise DegenerateField("l_B is undefined at b_z = 0")
    omega_c = cyclotron_frequency(cfg.b_z)
    omega_y = cyclotron_frequency(cfg.b_y)
    l_b = math.sqrt(HBAR / (ELEMENTARY_CHARGE * cfg.b_z))
    return omega_c, omega_y, l_b


def cyclotron_frequency(b_z: float) -> float:
    """e B / m_e in rad/s for any field component B, of either sign and at
    B = 0: omega_c from b_z, and the coupling frequency omega_y from b_y."""
    return ELEMENTARY_CHARGE * b_z / ELECTRON_MASS
