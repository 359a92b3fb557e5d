"""Closed-form layer for the coupled problem: coupling constants, two-level
dressed pairs, perturbative level shifts with their cancellation structure,
first-order admixed states, and the interference of the doublet transition
moments. Fast estimators, and independent cross-checks for the dense
diagonalization.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import coupled
from .errors import DegenerateField, NearResonance
from .materials import (
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    GHZ,
    HBAR,
    FieldConfiguration,
    MaterialProperties,
    cyclotron_frequency,
    derived_frequencies,
)
from .vertical import VerticalSpectrum

# A perturbative formula is refused when a denominator E_nn' +- hbar w_c
# comes within this many couplings of zero.
_GUARD_FACTOR = 3.0

def coupling_constant(
    vs: VerticalSpectrum, cfg: FieldConfiguration, n: int, n_prime: int
) -> float:
    """g_nn' in J, signed with the z_nn' phase convention (psi > 0 at the
    wall). Equals (hbar w_y / sqrt(2)) z_nn' / l_B."""
    _, omega_y, l_b = derived_frequencies(cfg)
    return HBAR * omega_y / (math.sqrt(2.0) * l_b) * vs.z_elem(n, n_prime)


def tilde_energy(
    vs: VerticalSpectrum, cfg: FieldConfiguration, n: int, l: int
) -> float:
    """Product-state energy with its diamagnetic diagonal shift, J.

    E_n + hbar w_c l + m w_y^2 (z^2)_nn / 2, with the diamagnetic shift
    quadratic in w_y as the operator m w_y^2 z^2 / 2 dictates.
    """
    omega_c = cyclotron_frequency(cfg.b_z)
    omega_y = cyclotron_frequency(cfg.b_y)
    return (vs.energy(n) + HBAR * omega_c * l
            + 0.5 * ELECTRON_MASS * omega_y**2 * vs.z2_elem(n, n))


@dataclass(frozen=True)
class DressedPair:
    """Two-level dressed doublet built from |n,l+1> and |n',l>.

    energies = (E_plus, E_minus) in J; amplitudes map product labels to the
    eigenvector components of each branch. e_delta = (tilde E_{n,l+1} -
    tilde E_{n',l}) / 2 and e_sigma their mean.
    """

    pair: tuple[tuple[int, int], tuple[int, int]]
    mixing_angle: float
    energies: tuple[float, float]
    g: float
    e_delta: float
    e_sigma: float
    amp_plus: dict
    amp_minus: dict

    @property
    def splitting(self) -> float:
        return self.energies[0] - self.energies[1]


def dressed_pair(
    vs: VerticalSpectrum,
    cfg: FieldConfiguration,
    pair: tuple[int, int],
    l: int,
) -> DressedPair:
    """Exact 2x2 diagonalization of the |n,l+1>, |n',l> block.

    The mixing angle is resolved by atan2 so it reduces to the familiar
    +-pi/2 at resonance and to 0 or pi in the decoupled limit, where the
    upper branch coincides with the higher bare level.
    """
    n, n_prime = pair
    if l < 0:
        raise ValueError("l must be non-negative")
    eps_a = tilde_energy(vs, cfg, n_prime, l)        # |n',l>
    eps_b = tilde_energy(vs, cfg, n, l + 1)          # |n,l+1>
    g = coupling_constant(vs, cfg, n, n_prime)
    v = g * math.sqrt(l + 1.0)

    e_sigma = 0.5 * (eps_a + eps_b)
    e_delta = 0.5 * (eps_b - eps_a)
    half_split = math.hypot(e_delta, v)
    theta = math.atan2(v, -e_delta)

    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    label_a, label_b = (n_prime, l), (n, l + 1)
    return DressedPair(
        pair=(label_b, label_a),
        mixing_angle=theta,
        energies=(e_sigma + half_split, e_sigma - half_split),
        g=g,
        e_delta=e_delta,
        e_sigma=e_sigma,
        amp_plus={label_a: c, label_b: s},
        amp_minus={label_a: -s, label_b: c},
    )


def _resonance_guard(
    vs: VerticalSpectrum,
    cfg: FieldConfiguration,
    n: int,
) -> float:
    """Raise NearResonance if any denominator E_nn' +- hbar w_c comes within
    _GUARD_FACTOR couplings of zero; returns hbar w_c."""
    if cfg.b_z <= 0.0:
        raise DegenerateField("Landau structure requires b_z > 0")
    hw_c = HBAR * cyclotron_frequency(cfg.b_z)
    for n_prime in range(1, vs.n_max + 1):
        if n_prime == n:
            continue
        g = coupling_constant(vs, cfg, n, n_prime)
        e_nn = vs.energy(n) - vs.energy(n_prime)
        for denom in (e_nn + hw_c, e_nn - hw_c):
            if abs(denom) <= _GUARD_FACTOR * abs(g):
                raise NearResonance(
                    f"state {n} is within {_GUARD_FACTOR} couplings of the "
                    f"crossing with {n_prime} "
                    f"(|denominator| = {abs(denom) / GHZ:.3f} GHz, "
                    f"|g| = {abs(g) / GHZ:.3f} GHz)",
                    denominator=denom,
                    coupling=g,
                )
    return hw_c


def perturbative_shift(
    vs: VerticalSpectrum,
    cfg: FieldConfiguration,
    n: int,
    l: int,
) -> float:
    """Off-resonant energy shift of |n,l> to second order in b_y, J.

    Sum over n' != n of |z_nn'|^2 (1 + hbar w_c l / (E_nn' + hbar w_c)
    + hbar w_c (l+1) / (E_nn' - hbar w_c)) times m w_y^2 / 2; the |z_nn|^2
    diamagnetic piece has already cancelled against the same-state ladder
    terms. The guard rejects configurations near a crossing where the
    formula diverges.
    """
    if l < 0:
        raise ValueError("l must be non-negative")
    hw_c = _resonance_guard(vs, cfg, n)
    omega_y = cyclotron_frequency(cfg.b_y)
    total = 0.0
    for n_prime in range(1, vs.n_max + 1):
        if n_prime == n:
            continue
        e_nn = vs.energy(n) - vs.energy(n_prime)
        z_sq = vs.z_elem(n, n_prime) ** 2
        total += z_sq * (1.0
                         + hw_c * l / (e_nn + hw_c)
                         + hw_c * (l + 1.0) / (e_nn - hw_c))
    return 0.5 * ELECTRON_MASS * omega_y**2 * total


def transition_shift_ghz(
    vs: VerticalSpectrum,
    cfg: FieldConfiguration,
    l: int,
) -> float:
    """Perturbative shift of the 1 -> 2 transition for Landau level l, GHz.

    l = 0 is the vacuum (Lamb-type) shift, l >= 1 the light shifts.
    """
    return (perturbative_shift(vs, cfg, 2, l)
            - perturbative_shift(vs, cfg, 1, l)) / GHZ


def full_transition_shift_ghz(
    blocks: coupled.HamiltonianBlocks,
    cfg: FieldConfiguration,
    l_values: Sequence[int],
) -> list[float]:
    """Same observable from the dense diagonalization, GHz: the b_y-induced
    change of the (1,l) -> (2,l) transition frequency, one shift per level
    of l_values, all read from one solve.
    """
    spec = blocks.solve(cfg)
    bare = blocks.vs.transition_frequency_ghz(1, 2)
    return [
        float((spec.eigenvalues[spec.locate(2, l)]
               - spec.eigenvalues[spec.locate(1, l)]) / GHZ) - bare
        for l in l_values
    ]


def bethe_cancellation_check(
    vs: VerticalSpectrum,
    cfg: FieldConfiguration,
    n: int,
    l: int,
) -> tuple[float, float, float]:
    """(raw shift, reduced shift, residual) for state |n,l>.

    The raw form is first-order diamagnetic plus the full second-order ladder
    sum including n' = n; the reduced form is perturbative_shift. Their
    difference is exactly the part of the (z^2)_nn sum rule lost to basis
    truncation, so the residual is normalized by the diamagnetic term
    m w_y^2 (z^2)_nn / 2 to make that comparison direct.
    """
    if cfg.b_y == 0.0:
        return 0.0, 0.0, 0.0
    hw_c = _resonance_guard(vs, cfg, n)
    omega_y = cyclotron_frequency(cfg.b_y)
    prefactor = 0.5 * ELECTRON_MASS * omega_y**2

    diamagnetic = prefactor * vs.z2_elem(n, n)
    ladder = 0.0
    for n_prime in range(1, vs.n_max + 1):
        e_nn = vs.energy(n) - vs.energy(n_prime)
        z_sq = vs.z_elem(n, n_prime) ** 2
        ladder += z_sq * ((l + 1.0) / (e_nn - hw_c) + l / (e_nn + hw_c))
    raw = diamagnetic + prefactor * hw_c * ladder

    reduced = perturbative_shift(vs, cfg, n, l)
    residual = abs(raw - reduced) / diamagnetic
    return raw, reduced, residual


def admixed_state(
    vs: VerticalSpectrum,
    cfg: FieldConfiguration,
    n: int,
    l: int,
) -> dict[tuple[int, int], float]:
    """First-order dressed state built on |n,l>, as unnormalized amplitudes.

    Keys are product labels; the base state carries amplitude 1. Neighbors
    |n',l+1> get (hbar w_y / sqrt(2) l_B) z_nn' sqrt(l+1) / (E_nn' - hbar w_c)
    and |n',l-1> the sqrt(l) partner with the opposite denominator sign,
    including n' = n (the same-manifold ladder admixture).
    """
    if l < 0:
        raise ValueError("l must be non-negative")
    hw_c = _resonance_guard(vs, cfg, n)
    _, omega_y, l_b = derived_frequencies(cfg)
    scale = HBAR * omega_y / (math.sqrt(2.0) * l_b)

    amplitudes = {(n, l): 1.0}
    if scale == 0.0:
        return amplitudes
    for n_prime in range(1, vs.n_max + 1):
        e_nn = vs.energy(n) - vs.energy(n_prime)
        z = vs.z_elem(n, n_prime)
        amplitudes[(n_prime, l + 1)] = (
            amplitudes.get((n_prime, l + 1), 0.0)
            + scale * z * math.sqrt(l + 1.0) / (e_nn - hw_c)
        )
        if l > 0:
            amplitudes[(n_prime, l - 1)] = (
                amplitudes.get((n_prime, l - 1), 0.0)
                + scale * z * math.sqrt(float(l)) / (e_nn + hw_c)
            )
    return amplitudes


@dataclass(frozen=True)
class InterferenceMoments:
    """Doublet transition moments from the ground state near the (2,1)/(3,0)
    resonance.

    z_plus / z_minus are the leading-order closed forms
    (z22 z21 / sqrt(2) l_B)(B_y/B_z) +- z31 (in m, phases fixed by psi > 0 at
    the wall, under which the minus branch is the cancelling one). The exact
    fields carry the dense-diagonalization moments <k|z|1,0> and energies of
    the two doublet eigenstates, upper/lower by energy.
    """

    z_plus: float
    z_minus: float
    upper_moment: float
    lower_moment: float
    upper_energy: float
    lower_energy: float
    upper_index: int
    lower_index: int


def interference_moments(
    blocks: coupled.HamiltonianBlocks,
    cfg: FieldConfiguration,
) -> InterferenceMoments:
    """Closed-form and exact doublet moments at the configured fields."""
    vs = blocks.vs
    _, _, l_b = derived_frequencies(cfg)
    ratio = cfg.b_y / cfg.b_z
    mixed = vs.z_elem(2, 2) * vs.z_elem(2, 1) / (math.sqrt(2.0) * l_b) * ratio
    z_plus = mixed + vs.z_elem(3, 1)
    z_minus = mixed - vs.z_elem(3, 1)

    spec = blocks.solve(cfg)
    ground = spec.locate(1, 0)
    k1 = spec.locate(2, 1)
    masked = spec.weights(n=3, l=0).copy()
    masked[k1] = -1.0
    k2 = int(np.argmax(masked))
    if spec.eigenvalues[k1] >= spec.eigenvalues[k2]:
        upper, lower = k1, k2
    else:
        upper, lower = k2, k1
    moments = spec.moments(vs.z_matrix, ground)
    return InterferenceMoments(
        z_plus=z_plus,
        z_minus=z_minus,
        upper_moment=float(moments[upper]),
        lower_moment=float(moments[lower]),
        upper_energy=float(spec.eigenvalues[upper]),
        lower_energy=float(spec.eigenvalues[lower]),
        upper_index=upper,
        lower_index=lower,
    )


def doublet_cancellation_field(
    mat: MaterialProperties,
    b_z: float,
    z22: float,
    moment_ratio: float,
) -> float:
    """b_y (T) where the leading-order doublet moments interfere to zero.

    Closed form sqrt(2) l_B b_z moment_ratio / z22 with z22 in m and
    moment_ratio = |z31 / z21|; all inputs enter as magnitudes so the result
    is phase-convention free.
    """
    if b_z <= 0.0:
        raise DegenerateField("cancellation field requires b_z > 0")
    if z22 <= 0.0 or moment_ratio < 0.0:
        raise ValueError("z22 must be positive and moment_ratio non-negative")
    l_b = math.sqrt(HBAR / (ELEMENTARY_CHARGE * b_z))
    return math.sqrt(2.0) * l_b * b_z * moment_ratio / z22
