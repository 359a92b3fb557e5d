"""Ripplon-limited decay and elastic scattering rates.

The dominant inelastic channel is simultaneous emission of two short-wave
ripplons carrying half the released energy each, with opposite momenta of
magnitude far above 1/l_B. The electron couples through the barrier step:
pressing the surface down by xi shifts the wall, so the second-order vertex
is proportional to the expectation of the confining-potential gradient in
the initial and final vertical states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateField, NotDownward
from .materials import (
    BOLTZMANN,
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    GHZ,
    HBAR,
    FieldConfiguration,
    MaterialProperties,
    cyclotron_frequency,
)
from .vertical import VerticalSpectrum


@dataclass(frozen=True)
class RipplonBath:
    """Capillary-wave bath of one helium surface.

    surface_tension in N/m, mass_density in kg/m^3, temperature in K.
    The dispersion is the deep-water capillary branch; gravity is
    irrelevant at the wavenumbers reached here.
    """

    surface_tension: float
    mass_density: float
    temperature: float = 0.0

    def __post_init__(self):
        if self.surface_tension <= 0.0 or self.mass_density <= 0.0:
            raise ValueError("bath parameters must be positive")
        if self.temperature < 0.0:
            raise ValueError("temperature must be non-negative")

    @classmethod
    def from_material(cls, mat: MaterialProperties,
                      temperature: float = 0.0) -> "RipplonBath":
        return cls(surface_tension=mat.surface_tension,
                   mass_density=mat.mass_density,
                   temperature=temperature)

    def omega(self, q: float) -> float:
        """Ripplon angular frequency at wavenumber q (rad/s)."""
        return math.sqrt(self.surface_tension * q**3 / self.mass_density)

    def group_velocity(self, q: float) -> float:
        """d omega / d q = 1.5 omega / q for the q^(3/2) branch."""
        return 1.5 * self.omega(q) / q

    def occupation(self, omega: float) -> float:
        """Bose occupation at the bath temperature; zero at T = 0."""
        if self.temperature == 0.0:
            return 0.0
        return 1.0 / math.expm1(HBAR * omega
                                / (BOLTZMANN * self.temperature))


def resonant_wavenumber(bath: RipplonBath, delta_e: float) -> float:
    """Wavenumber of each of the two emitted ripplons (1/m).

    Energy conservation with equal sharing fixes omega(q) = delta_e / 2 hbar,
    and the capillary dispersion inverts in closed form.
    """
    if delta_e <= 0.0:
        raise NotDownward("two-ripplon emission needs a positive energy drop")
    return ((bath.mass_density / bath.surface_tension) ** (1.0 / 3.0)
            * (delta_e / (2.0 * HBAR)) ** (2.0 / 3.0))


def two_ripplon_rate(
    vs: VerticalSpectrum,
    bath: RipplonBath,
    cfg: FieldConfiguration,
    from_state: tuple[int, int],
    to_state: tuple[int, int],
    include_occupation: bool = False,
) -> float:
    """Decay rate (1/s) of |n, l> into |n', l'> by two-ripplon emission.

    The rate is evaluated for the lowest in-plane orbital, where the
    momentum sum over final ripplon pairs collapses onto the density of
    states at the resonant wavenumber:

        rate = m V0 / (4 pi l_B^2 rho^2 hbar^2)
               * <dV/dz>_nn <dV/dz>_n'n' * q^3 / (omega^2 v_g)

    with everything at q = resonant_wavenumber. Stimulated enhancement by
    thermal ripplons multiplies by (1 + N)^2 when requested; the default is
    spontaneous emission only.
    """
    if cfg.b_z <= 0.0:
        raise DegenerateField("rates are defined on the Landau ladder")
    n_from, l_from = from_state
    n_to, l_to = to_state
    if min(l_from, l_to) < 0:
        raise ValueError("Landau indices must be non-negative")
    omega_c = cyclotron_frequency(cfg.b_z)
    delta_e = ((vs.energy(n_from) + HBAR * omega_c * l_from)
               - (vs.energy(n_to) + HBAR * omega_c * l_to))
    if delta_e <= 0.0:
        raise NotDownward(
            f"{from_state} -> {to_state} raises the energy by "
            f"{-delta_e / GHZ:.3f} GHz at b_z = {cfg.b_z:g} T"
        )
    q = resonant_wavenumber(bath, delta_e)
    omega = bath.omega(q)
    magnetic_length_sq = HBAR / (ELEMENTARY_CHARGE * cfg.b_z)
    prefactor = (ELECTRON_MASS * vs.material.barrier_height
                 / (4.0 * math.pi * magnetic_length_sq
                    * bath.mass_density**2 * HBAR**2))
    rate = (prefactor * vs.dvdz(n_from) * vs.dvdz(n_to)
            * q**3 / (omega**2 * bath.group_velocity(q)))
    if include_occupation:
        rate *= (1.0 + bath.occupation(omega)) ** 2
    return rate


def scba_elastic_rate(nu_0: float, cfg: FieldConfiguration) -> float:
    """Elastic collision broadening on the Landau ladder (1/s).

    The zero-field single-ripplon collision rate nu_0 is enhanced by the
    Landau density-of-states peak to sqrt(2 omega_c nu_0 / pi) in the
    self-consistent Born treatment.
    """
    if nu_0 < 0.0:
        raise ValueError("nu_0 must be non-negative")
    if cfg.b_z <= 0.0:
        raise DegenerateField("elastic enhancement needs b_z > 0")
    return math.sqrt(2.0 * cyclotron_frequency(cfg.b_z) * nu_0 / math.pi)


@dataclass(frozen=True)
class StrongCouplingReport:
    """Coherent coupling versus the fastest decay at one operating point.

    rate_vertical is |n_hi, 0> -> |n_lo, 0>, rate_ladder is
    |n_lo, 1> -> |n_lo, 0>; ratio compares g / hbar to the larger of the
    two inelastic rates. The elastic rate is reported for context but kept
    out of the ratio, since it broadens without destroying the excitation.
    """

    g_ghz: float
    rate_vertical: float
    rate_ladder: float
    elastic_rate: float
    ratio: float


def strong_coupling_report(
    vs: VerticalSpectrum,
    cfg: FieldConfiguration,
    pair: tuple[int, int] = (2, 1),
    nu_0: float = 1e6,
    include_occupation: bool = False,
) -> StrongCouplingReport:
    """Compare the sideband coupling of a level pair with its decay rates.

    include_occupation applies the thermal-ripplon factor (1 + N)^2 of
    two_ripplon_rate to both rates.
    """
    from .analytics import coupling_constant

    n_hi, n_lo = max(pair), min(pair)
    if n_hi == n_lo:
        raise ValueError("pair must name two different levels")
    bath = RipplonBath.from_material(vs.material, cfg.temperature)
    g = abs(coupling_constant(vs, cfg, n_hi, n_lo))
    rate_v = two_ripplon_rate(vs, bath, cfg, (n_hi, 0), (n_lo, 0),
                              include_occupation)
    rate_l = two_ripplon_rate(vs, bath, cfg, (n_lo, 1), (n_lo, 0),
                              include_occupation)
    return StrongCouplingReport(
        g_ghz=g / GHZ,
        rate_vertical=rate_v,
        rate_ladder=rate_l,
        elastic_rate=scba_elastic_rate(nu_0, cfg),
        ratio=(g / HBAR) / max(rate_v, rate_l),
    )
