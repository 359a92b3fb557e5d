"""Coupled vertical-plus-Landau problem on the truncated product basis |n,l>.

The Hamiltonian (with the cyclotron zero-point energy already dropped) is

    H = E_n delta + hbar w_c l delta + (m w_y^2 / 2) (z^2)_nn' delta_ll'
        + (hbar w_y / sqrt(2) l_B) z_nn' (sqrt(l+1) d_{l',l+1} + sqrt(l) d_{l',l-1})

assembled in SI Joules from its nonzero entries, flat index
k = (n - 1) (l_max + 1) + l: viewed as (n, l, n', l'), the diamagnetic term
fills the l = l' blocks (full matrices in n), the coupling the l' = l +- 1
blocks, and every other entry off the diagonal is zero. CoupledSpectrum is
the one reader of that layout: its weights, indexed (state, n - 1, l) and
squared for the states or labels a caller asks for, serve every label
lookup, the Landau-cut certificate and the line deposit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisMismatch,
    BranchTrackingLost,
    ConvergenceFailure,
    NoCrossingInRange,
)
from .materials import (
    ELECTRON_MASS,
    HBAR,
    FieldConfiguration,
    ProductBasis,
    cyclotron_frequency,
    derived_frequencies,
)
from .vertical import VerticalSpectrum, _eigh_in_place

# minimum_gap loses a branch when successive eigenvectors overlap less than
# this
_OVERLAP_THRESHOLD = 0.5
# A Landau cut is certified when every state that reaches an artifact holds
# at most this weight on the top two rungs of the ladder.
_EDGE_WEIGHT_LIMIT = 1e-10


@dataclass(frozen=True)
class CoupledSpectrum:
    """Eigendecomposition of the coupled Hamiltonian.

    eigenvalues ascending in J (cyclotron zero-point energy excluded),
    eigenvectors in columns, both frozen.
    """

    basis: ProductBasis
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    def weights(self, states=slice(None), n: int | None = None,
                l=slice(None)) -> np.ndarray:
        """Squared eigenvector components, read-only, indexed
        (state, n - 1, l): of the selected states, on the label n (every n
        if None) and the Landau indices l (an int or a slice); an int drops
        its axis. Only the returned components are squared, and nothing is
        cached: an N^2 array held as long as each spectrum fragments the
        map workers' heap (up to +10% peak RSS)."""
        basis = self.basis
        w = self.eigenvectors.T.reshape(-1, basis.n_max, basis.l_max + 1)
        w = w[:, slice(None) if n is None else n - 1, l][states] ** 2
        w.setflags(write=False)
        return w

    def dominant(self, k: int) -> tuple[int, int, float]:
        """(n, l, weight) of the strongest product component of state k."""
        w = self.weights(k)
        n, l = divmod(int(np.argmax(w)), self.basis.l_max + 1)
        return n + 1, l, float(w[n, l])

    def locate(self, n: int, l: int) -> int:
        """Eigenstate index with the largest weight on |n,l>."""
        self.basis.index(n, l)   # IndexError outside the basis
        return int(np.argmax(self.weights(n=n, l=l)))

    def moments(self, z_matrix: np.ndarray, k: int) -> np.ndarray:
        """<k'|z|k> for every eigenstate k', from the vertical z_nn' matrix
        (in its units, m for VerticalSpectrum.z_matrix)."""
        nb, lb = self.basis.n_max, self.basis.l_max
        c = self.eigenvectors[:, k].reshape(nb, lb + 1)
        zc = (z_matrix[:nb, :nb] @ c).reshape(-1)
        return self.eigenvectors.T @ zc

    def dominant_labels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, l, weight) arrays over every eigenstate: dominant(k) for all k
        at once."""
        w = self.weights().reshape(len(self.eigenvalues), -1)
        idx = np.argmax(w, axis=1)
        n, l = np.divmod(idx, self.basis.l_max + 1)
        return n + 1, l, w[np.arange(idx.size), idx]


class HamiltonianBlocks:
    """The coupled problem at one vertical solve: the handle every coupled
    solve goes through.

    It holds the vertical solve vs and the cap basis, and nothing derived
    from them: the diagonal E_n + hbar w_c l needs only b_z, and the
    diamagnetic and coupling entries are one z^2 or z entry times field
    prefactors, so assemble_hamiltonian writes every matrix from vs alone.
    A Landau cut l <= L is the same assembly on fewer rungs, entry for
    entry a ProductBasis(n_max, L) assembly.
    """

    def __init__(
        self,
        vs: VerticalSpectrum,
        basis: ProductBasis = ProductBasis(),
    ):
        if basis.n_max > vs.n_max:
            raise BasisMismatch(
                f"basis wants n_max={basis.n_max}, spectrum has {vs.n_max}"
            )
        self.vs = vs
        self.basis = basis

    def _cut(self, l_max: int | None) -> ProductBasis:
        """The basis of the Landau cut l <= l_max (the cap if None)."""
        if l_max is None or l_max == self.basis.l_max:
            return self.basis
        if not 0 <= l_max < self.basis.l_max:
            raise ValueError(
                f"Landau cut {l_max} outside 0..{self.basis.l_max}")
        return ProductBasis(self.basis.n_max, l_max)

    def _diagonal(self, cfg: FieldConfiguration,
                  basis: ProductBasis) -> np.ndarray:
        """The uncoupled energies E_n + hbar w_c l in J, flat on basis,
        after checking cfg.e_perp against the vertical solve's."""
        vs = self.vs
        if abs(cfg.e_perp - vs.e_perp) > 1e-9 * max(1.0, abs(vs.e_perp)):
            raise BasisMismatch(
                "field configuration e_perp differs from the vertical solve"
            )
        omega_c = cyclotron_frequency(cfg.b_z)
        return (vs.energies[:basis.n_max, None]
                + HBAR * omega_c * np.arange(float(basis.l_max + 1))).ravel()

    def solve(self, cfg: FieldConfiguration,
              l_max: int | None = None) -> CoupledSpectrum:
        """Spectrum at cfg on the Landau cut l <= l_max (the cap if None).
        A b_y = 0 diagonal whose entries are all distinct (every b_z > 0)
        is read off, with no matrix assembled: sorted, with the matching
        unit vectors, np.linalg.eigh's result bit for bit. Any other matrix
        (a tied diagonal's order is eigh's own) is assembled for this solve
        alone, so diagonalize overwrites it instead of working on a copy."""
        if cfg.b_y == 0.0:
            basis = self._cut(l_max)
            d = self._diagonal(cfg, basis)
            order = np.argsort(d)
            vals = d[order]
            if np.isfinite(vals).all() and np.all(np.diff(vals) > 0.0):
                vecs = np.zeros((d.size, d.size))
                vecs[order, np.arange(d.size)] = 1.0
                return CoupledSpectrum(basis, vals, vecs)
        return diagonalize(assemble_hamiltonian(self, cfg, l_max),
                           self._cut(l_max), overwrite=True)


def assemble_hamiltonian(blocks: HamiltonianBlocks, cfg: FieldConfiguration,
                         l_max: int | None = None) -> np.ndarray:
    """Dense Hamiltonian in J at cfg on the Landau cut l <= l_max of blocks
    (the cap if None), exactly symmetric because every term is
    (solve_vertical symmetrizes the z and z^2 matrices).

    Viewed as (n, l, n', l'), the diamagnetic entries are added on the
    l = l' blocks of the diagonal matrix and the coupling entries on the
    l' = l +- 1 blocks, each the scalar prefactor times (ladder entry times
    z entry), as a Kronecker product gives it. No entry gets more than one
    term besides the diagonal, so no sum is reordered, and every other
    entry stays +0.0."""
    basis = blocks._cut(l_max)
    h = np.diag(blocks._diagonal(cfg, basis))
    if cfg.b_y != 0.0:
        nb, rungs = basis.n_max, basis.l_max + 1
        _, omega_y, l_b = derived_frequencies(cfg)
        z2 = (0.5 * ELECTRON_MASS * omega_y**2
              * blocks.vs.z2_matrix[:nb, :nb])
        z = blocks.vs.z_matrix[:nb, :nb]
        coupling = HBAR * omega_y / (np.sqrt(2.0) * l_b)
        ladder = np.sqrt(np.arange(1.0, rungs))   # <l+1| a^dagger |l>
        entries = coupling * (ladder[:, None, None] * z)
        l = np.arange(rungs)
        # indexed by (l, n, n'): the l' = l, l + 1 and l - 1 blocks
        hv = h.reshape(nb, rungs, nb, rungs)
        hv[:, l, :, l] += z2
        hv[:, l[:-1], :, l[1:]] += entries
        hv[:, l[1:], :, l[:-1]] += entries
    return h


def diagonalize(h: np.ndarray, basis: ProductBasis,
                overwrite: bool = False) -> CoupledSpectrum:
    """Dense eigendecomposition of h, bit for bit np.linalg.eigh's (which
    reads the lower triangle).

    h is left as it was, unless overwrite is set: then h must be an exactly
    symmetric C-ordered array, and the dense solver runs in its buffer and
    leaves it holding the eigenvectors, transposed. The eigenvectors
    returned are C-ordered in either case."""
    if h.shape != (basis.size, basis.size):
        raise BasisMismatch(
            f"matrix shape {h.shape} does not match basis size {basis.size}"
        )
    if not np.all(np.isfinite(h)):
        raise ConvergenceFailure("Hamiltonian contains non-finite entries")
    # h.T of a C-ordered symmetric h is h, in Fortran order
    a = h.T if overwrite else np.array(h, order="F")
    try:
        vals, vecs = _eigh_in_place(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"dense eigensolver failed: {exc}") from exc
    return CoupledSpectrum(basis, vals, np.ascontiguousarray(vecs))


def _certify(spec: CoupledSpectrum, states: np.ndarray,
             cap: int) -> tuple[float, int | None]:
    """The Landau-cut certificate of states in spec: (edge weight, next
    cut). The edge weight is the largest weight a state holds on the top
    two rungs. The next cut is None if that passes (at most
    _EDGE_WEIGHT_LIMIT) or spec is at the cap; after a failed certificate
    at cut L, each failing state's weight on rungs L-4..L-3 against L-1..L
    gives its tail decay, extrapolated to the rung where the edge weight
    passes, plus 2. The cap without a decaying tail."""
    landau = spec.basis.l_max
    rungs = spec.weights(states).sum(axis=1)
    edge = rungs[:, -2:].sum(axis=1)
    worst = float(edge.max())
    if worst <= _EDGE_WEIGHT_LIMIT or landau == cap:
        return worst, None
    far = rungs[:, -5:-3].sum(axis=1)
    failing = edge > _EDGE_WEIGHT_LIMIT
    edge, far = edge[failing], far[failing]
    if landau < 4 or not np.all(far > edge):
        return worst, cap
    rungs_needed = 3.0 * np.log(edge / _EDGE_WEIGHT_LIMIT) / np.log(far / edge)
    return worst, min(cap,
                      landau + 2 + math.ceil(min(rungs_needed.max(), cap)))


def _crossing_field(
    vs: VerticalSpectrum,
    pair: tuple[tuple[int, int], tuple[int, int]],
) -> float:
    """b_z (T) where the uncoupled levels (n_a,l_a) and (n_b,l_b) cross, at
    any field: the b_y = 0 energies E_n + hbar w_c l are linear in b_z, so
    it is the closed form (E_b - E_a) / (hbar w_c(1 T) (l_a - l_b)). Raises
    NoCrossingInRange for equal l, where the difference is constant, or a
    root at b_z <= 0."""
    (n_a, l_a), (n_b, l_b) = pair
    if l_a != l_b:
        root = ((vs.energy(n_b) - vs.energy(n_a))
                / (HBAR * cyclotron_frequency(1.0) * (l_a - l_b)))
        if root > 0.0:
            return root
    raise NoCrossingInRange(f"levels {pair} do not cross at any b_z > 0")


def find_crossing(
    vs: VerticalSpectrum,
    pair: tuple[tuple[int, int], tuple[int, int]],
    b_z_range: tuple[float, float],
) -> float:
    """b_z (T) where the uncoupled levels (n_a,l_a) and (n_b,l_b) cross
    inside b_z_range: the closed form of _crossing_field, held inside the
    interval; raises NoCrossingInRange when the difference keeps one sign
    over the interval (equal l included, where it is constant).
    """
    (n_a, l_a), (n_b, l_b) = pair

    def gap(b_z):
        w_c = cyclotron_frequency(b_z)
        return (vs.energy(n_a) + HBAR * w_c * l_a
                - vs.energy(n_b) - HBAR * w_c * l_b)

    lo, hi = b_z_range
    if not 0.0 <= lo < hi:
        raise ValueError("need 0 <= lo < hi for the search range")
    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if g_lo * g_hi > 0.0:
        raise NoCrossingInRange(
            f"levels {pair} do not cross for b_z in {b_z_range} T"
        )
    return min(max(_crossing_field(vs, pair), lo), hi)


def minimum_gap(
    blocks: HamiltonianBlocks,
    cfg_template: FieldConfiguration,
    pair: tuple[tuple[int, int], tuple[int, int]],
    b_z_range: tuple[float, float] | None = None,
    n_steps: int = 81,
) -> tuple[float, float]:
    """(b_z at minimum, gap in J) for the avoided crossing of a level pair.

    Sweeps b_z, following the two dressed branches by eigenvector overlap
    continuity rather than energy order, which swaps at the crossing. When
    b_z_range is omitted a +-5% window around the uncoupled crossing is used,
    at whatever field the closed form puts it (NoCrossingInRange if the
    levels never cross at b_z > 0).
    Raises BranchTrackingLost when successive eigenvectors overlap below
    _OVERLAP_THRESHOLD (0.5), the sign the sweep step is too coarse.

    blocks.basis.l_max is a cap on the Landau ladder. The sweep is first
    solved on the cut l <= (larger l of the pair) + 4. When either tracked
    branch fails _certify at some step, the sweep starts over on the cut
    _certify predicts, as a map pixel climbs. A sweep that loses a branch
    below the cap is redone at the cap, so the error raised is the full
    ladder's, and at the cap the result is the full ladder's, bit for bit.
    """
    if b_z_range is None:
        center = _crossing_field(blocks.vs, pair)
        b_z_range = (0.95 * center, 1.05 * center)
    values = np.linspace(b_z_range[0], b_z_range[1], n_steps)
    cap = blocks.basis.l_max
    landau = min(cap, max(pair[0][1], pair[1][1]) + 4)
    while landau is not None:
        try:
            best, landau = _track_pair(blocks, landau, cfg_template, pair,
                                       values)
        except BranchTrackingLost:
            if landau == cap:
                raise
            landau = cap
    return best


def _track_pair(
    blocks: HamiltonianBlocks,
    landau: int,
    cfg_template: FieldConfiguration,
    pair: tuple[tuple[int, int], tuple[int, int]],
    values: np.ndarray,
) -> tuple[tuple[float, float] | None, int | None]:
    """The sweep of minimum_gap on the cut l <= landau: ((b_z, gap), None),
    or (None, next cut) at the first step where one of the two branches
    fails _certify."""
    spec = blocks.solve(cfg_template.replace(b_z=float(values[0])), landau)
    starts = [spec.locate(*label) for label in pair]
    tracked = [spec.eigenvectors[:, k].copy() for k in starts]
    if starts[0] == starts[1]:
        raise BranchTrackingLost(
            f"branches of {pair} start on the same eigenstate; "
            "widen b_z_range or reduce b_y"
        )

    best = (float(values[0]), float("inf"))
    for step, b_z in enumerate(values):
        if step:
            spec = blocks.solve(cfg_template.replace(b_z=float(b_z)), landau)
        energies = []
        taken = []
        for i, prev in enumerate(tracked):
            overlaps = np.abs(spec.eigenvectors.T @ prev)
            for k in taken:
                overlaps[k] = -1.0
            k = int(np.argmax(overlaps))
            if overlaps[k] < _OVERLAP_THRESHOLD:
                raise BranchTrackingLost(
                    f"overlap {overlaps[k]:.3f} below {_OVERLAP_THRESHOLD} "
                    f"at b_z = {b_z:.4f} T; refine the sweep"
                )
            taken.append(k)
            tracked[i] = spec.eigenvectors[:, k].copy()
            energies.append(spec.eigenvalues[k])
        _, next_cut = _certify(spec, np.array(taken), blocks.basis.l_max)
        if next_cut is not None:
            return None, next_cut
        gap = abs(energies[1] - energies[0])
        if gap < best[1]:
            best = (float(b_z), float(gap))
    return best, None
