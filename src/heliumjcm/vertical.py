"""Vertical eigenproblem: image-charge well plus Stark tilt over a rigid wall.

The dimensionless Hamiltonian -d^2/dzeta^2 - 2/zeta + f*zeta (energies in
R_e, lengths in r_B, f = e E_perp r_B / R_e) is solved on the half-line
zeta > 0 with psi(0) = 0 by solve_vertical, in the orthonormal Laguerre
functions phi_k(x) = x exp(-x/2) L_k^(2)(x) / sqrt((k+1)(k+2)), zeta = s x
(J. P. Boyd, Chebyshev and Fourier Spectral Methods, 2nd ed., Dover 2001,
ch. 17). Every matrix element the package needs (kinetic, 1/zeta, zeta,
zeta^2 and 1/zeta^2) is a polynomial times exp(-x), so Gauss-Laguerre
quadrature with M + 2 nodes gives it exactly; the matrices are built once
per basis size M and a solve is one M x M eigh. The scale s follows n_max
and f (see _laguerre_scale), there is no box, and a basis-tail check raises
rather than return an unconverged solve. Every task of the command line
runs this solve.

reference_solve keeps a finite-difference solve as an independent check of
it, for tests: a symmetric three-point stencil on a uniform GridSpec grid
with Dirichlet walls at 0 and z_max, whose lowest states come from
scipy.linalg.eigh_tridiagonal. Its eigenvalues are Richardson extrapolated
from the full and half resolution grids, and its matrix elements come from
the fine grid with an O(dz^2) error (about 1e-4 relative in z at the
default 4,000 points, eight orders above the Laguerre solve's).

This is the one module that calls OpenBLAS, and one table types every
function it calls: the thread-count controls, and dsyevd, the dense
symmetric solver np.linalg.eigh calls, which runs with its "V", "L" call
and workspace query so that coupled.diagonalize solves a Hamiltonian in its
own buffer instead of in numpy's copy. It is called through ctypes on the
ILP64 symbol of the OpenBLAS numpy already loads; where no loaded library
exports it (a numpy built on MKL or Accelerate, or no /proc), the solve
falls back to np.linalg.eigh, with the same bits. The module also holds
the process-wide one-thread pin that every command-line task runs under.
The command line also asks OpenBLAS for one thread before numpy loads it,
through OPENBLAS_NUM_THREADS (see cli), so that no idle thread pool starts;
the pin is what holds a library or test caller that loaded numpy first to
one thread.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, GridTooSmall
from .materials import GHZ, MaterialProperties, V_PER_CM

# Reference grid: fraction of the box, counted from the outer wall, whose
# probability mass must stay below the leak tolerance for the highest state.
_TAIL_FRACTION = 0.01
_TAIL_TOLERANCE = 1e-6
# Laguerre solve: the largest amplitude a returned state may hold on the
# last _TAIL_FUNCTIONS basis functions; its square bounds the error near
# 1e-10.
_TAIL_FUNCTIONS = 8
_TAIL_AMPLITUDE = 1e-5
# Finite-difference step of stark_slope and root tolerance of
# find_transition_field, V/cm.
_SLOPE_STEP_V_CM = 0.1
_ROOT_TOL_V_CM = 1e-3


class VerticalSolver(NamedTuple):
    """How a vertical solve was made: in the Laguerre basis of basis_size
    functions at scale (r_B per unit of x), where tail is the largest
    amplitude of a returned state on the basis's last _TAIL_FUNCTIONS
    functions."""

    basis_size: int
    scale: float
    tail: float


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of the finite-difference reference: extent in units of
    r_B and interior point count."""

    z_max: float = 150.0
    n_points: int = 4000

    def __post_init__(self):
        if self.z_max <= 0.0:
            raise ValueError("z_max must be positive")
        if self.n_points < 16:
            raise ValueError("n_points must be at least 16")


@dataclass(frozen=True)
class VerticalSpectrum:
    """Lowest bound states of the vertical motion and their matrix elements.

    All arrays are SI: energies in J, z_matrix in m, z2_matrix in m^2,
    dvdz_diag in J/m; the Laguerre solve also keeps its basis coefficients
    (n_max, M), orthonormal rows, and the finite-difference reference
    (solver None) its grid in m and wavefunctions in m^-1/2 normalized so
    that sum(psi_n psi_m) dz = delta_nm. Index convention: row/column i
    holds state n = i + 1. Arrays are frozen after construction.
    """

    material: MaterialProperties
    e_perp: float               # V/m
    solver: VerticalSolver | None
    energies: np.ndarray        # (n_max,)
    z_matrix: np.ndarray        # (n_max, n_max)
    z2_matrix: np.ndarray       # (n_max, n_max)
    dvdz_diag: np.ndarray       # (n_max,)
    grid: np.ndarray | None = None            # (n_points,), reference only
    wavefunctions: np.ndarray | None = None   # (n_max, n_points), reference
    coefficients: np.ndarray | None = None    # (n_max, M), Laguerre only

    @property
    def n_max(self) -> int:
        return len(self.energies)

    def _check(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"state index {n} outside 1..{self.n_max}")
        return n - 1

    def energy(self, n: int) -> float:
        return float(self.energies[self._check(n)])

    def z_elem(self, n: int, m: int) -> float:
        return float(self.z_matrix[self._check(n), self._check(m)])

    def z2_elem(self, n: int, m: int) -> float:
        return float(self.z2_matrix[self._check(n), self._check(m)])

    def dvdz(self, n: int) -> float:
        return float(self.dvdz_diag[self._check(n)])

    def transition_energy(self, n: int, m: int) -> float:
        """E_m - E_n in J."""
        return self.energy(m) - self.energy(n)

    def transition_frequency_ghz(self, n: int, m: int) -> float:
        return self.transition_energy(n, m) / GHZ


# Every OpenBLAS function the package calls, as (name, argument types,
# result type), in the groups _openblas_functions looks up. LAPACK is
# numpy's bundled OpenBLAS's, with 64-bit integers: Fortran passes every
# argument by reference, and each CHARACTER*1 argument adds a hidden
# trailing size_t length.
_REF, _LEN = ctypes.c_void_p, ctypes.c_size_t
_LAPACK_GROUP = (("scipy_dsyevd_64_", [_REF] * 11 + [_LEN] * 2, None),)
# (get, set) thread counts: numpy's bundled OpenBLAS (64-bit integer
# interface), scipy's, and an unprefixed system OpenBLAS.
_THREAD_GROUPS = (
    (("scipy_openblas_get_num_threads64_", [], ctypes.c_int),
     ("scipy_openblas_set_num_threads64_", [ctypes.c_int], None)),
    (("scipy_openblas_get_num_threads", [], ctypes.c_int),
     ("scipy_openblas_set_num_threads", [ctypes.c_int], None)),
    (("openblas_get_num_threads64_", [], ctypes.c_int),
     ("openblas_set_num_threads64_", [ctypes.c_int], None)),
    (("openblas_get_num_threads", [], ctypes.c_int),
     ("openblas_set_num_threads", [ctypes.c_int], None)),
)


def _openblas_functions(groups) -> list[tuple]:
    """For every OpenBLAS mapped into this process, in path order, the
    functions of the first group in groups that it exports in full, each
    typed by its (name, argument types, result type) entry; empty where
    none is loaded or /proc is unavailable."""
    try:
        with open("/proc/self/maps") as fh:
            # the pathname is the sixth field, and may hold spaces
            paths = sorted({line.split(None, 5)[5].rstrip("\n") for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for group in groups:
            funcs = tuple(getattr(lib, name, None) for name, _, _ in group)
            if None not in funcs:
                for func, (_, argtypes, restype) in zip(funcs, group):
                    func.argtypes, func.restype = argtypes, restype
                found.append(funcs)
                break
    return found


@functools.cache
def _lapack():
    """dsyevd from a loaded OpenBLAS, or None where no loaded library
    exports it; _eigh_in_place then falls back to np.linalg.eigh."""
    found = _openblas_functions([_LAPACK_GROUP])
    return found[0][0] if found else None


class _SingleThreadedBlas:
    """Context manager pinning every loaded OpenBLAS to one thread and
    restoring each library's previous count on exit.

    The setting is process-wide, so nested or concurrent entries share one
    pin: the first entry sets it and the last exit restores it. Inside it
    coupled.diagonalize and solve_vertical give the same bits whatever the
    BLAS thread setting of the environment.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list[tuple] = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = [
                    (setter, getter())
                    for getter, setter in _openblas_functions(_THREAD_GROUPS)]
                for setter, _ in self._saved:
                    setter(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for setter, count in self._saved:
                    setter(count)
                self._saved = []


_single_threaded_blas = _SingleThreadedBlas()


# Every LAPACK argument goes by reference: scalars through byref, arrays by
# address (an array's .ctypes would sit in a reference cycle and keep the
# array alive until the cyclic collector runs).
def _ref(value, ctype=ctypes.c_int64):
    return ctypes.byref(ctype(value))


def _eigh_in_place(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (columns) of the symmetric
    matrix a, a writable Fortran-ordered float64 square whose lower
    triangle is read: what np.linalg.eigh(a) returns, bit for bit.

    dsyevd runs in a's own buffer, after the workspace query numpy makes,
    and leaves the eigenvectors there, so a is returned as them; a solve
    holds a and the workspace (about 2 N^2 doubles) where np.linalg.eigh
    holds a, its copy of a, the workspace and its output. Where no loaded
    library exports dsyevd, np.linalg.eigh(a) is returned and a is left as
    it was."""
    if not (a.dtype == np.float64 and a.ndim == 2
            and a.shape[0] == a.shape[1] and a.flags.f_contiguous
            and a.flags.writeable):
        raise ValueError("need a writable Fortran-ordered float64 square")
    syevd = _lapack()
    if syevd is None:
        return np.linalg.eigh(a)
    n = a.shape[0]
    w, info = np.empty(n), np.zeros(1, np.int64)

    def call(work, iwork, lwork, liwork):
        syevd(b"V", b"L", _ref(n), a.ctypes.data, _ref(max(n, 1)),
              w.ctypes.data, work.ctypes.data, _ref(lwork),
              iwork.ctypes.data, _ref(liwork), info.ctypes.data, 1, 1)

    work, iwork = np.zeros(1), np.zeros(1, np.int64)
    call(work, iwork, -1, -1)   # the sizes, in work[0] and iwork[0]
    work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), np.int64)
    call(work, iwork, work.size, iwork.size)
    if info[0] < 0:
        raise ValueError(f"illegal value in argument {-info[0]} of dsyevd")
    if info[0] > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w, a


@functools.cache
def _laguerre_matrices(size: int) -> tuple[np.ndarray, ...]:
    """(K, V1, X, X2, V2) of the first size Laguerre functions phi_k:
    the integrals over x > 0 of phi_j' phi_k', phi_j phi_k / x,
    x phi_j phi_k, x^2 phi_j phi_k and phi_j phi_k / x^2, read-only.

    Each integrand is exp(-x) times a polynomial of degree at most
    2 size + 2, so Gauss-Laguerre quadrature with size + 2 nodes is exact.
    The nodes are the eigenvalues of the Laguerre Jacobi matrix (diagonal
    2k + 1, off-diagonal k) and the weights 1 / sum_j (exp(-x/2) L_j(x))^2
    over the orthonormal Laguerre polynomials L_j, with exp(-x/2) folded
    into every function evaluated; numpy.polynomial is not imported, as it
    would add to every run's memory."""
    nodes = size + 2
    k = np.arange(1.0, nodes)
    x = np.linalg.eigvalsh(np.diag(2.0 * np.arange(nodes) + 1.0)
                           - np.diag(k, 1) - np.diag(k, -1))
    half = np.exp(-0.5 * x)
    prev, poly, total = np.zeros(nodes), half, half**2
    for j in range(nodes - 1):
        prev, poly = poly, ((2 * j + 1 - x) * poly - j * prev) / (j + 1)
        total += poly**2
    weight = 1.0 / total
    # ell_k = exp(-x/2) L_k^(2)(x) / sqrt((k+1)(k+2)), by its orthonormal
    # three-term recurrence, and phi_k = x ell_k,
    # phi_k' = (k + 1 - x/2) ell_k - sqrt(k (k+2)) ell_{k-1}
    ell = np.empty((size + 1, nodes))
    ell[0] = half / math.sqrt(2.0)
    ell[1] = (3.0 - x) * ell[0] / math.sqrt(3.0)
    for j in range(1, size):
        ell[j + 1] = ((2 * j + 3 - x) * ell[j]
                      - math.sqrt(j * (j + 2)) * ell[j - 1]) \
            / math.sqrt((j + 1) * (j + 3))
    order = np.arange(size)[:, None]
    root_w = np.sqrt(weight)
    phi = x * ell[:size] * root_w
    dphi = ((order + 1 - 0.5 * x) * ell[:size]
            - np.sqrt(order * (order + 2)) * np.vstack((ell[:1] * 0.0,
                                                        ell[:size - 1]))) \
        * root_w
    matrices = []
    for left, right in ((dphi, dphi), (phi / x, phi), (phi * x, phi),
                        (phi * x**2, phi), (phi / x, phi / x)):
        m = left @ right.T
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        matrices.append(m)
    return tuple(matrices)


def _laguerre_size(n_max: int) -> int:
    """Basis size M of a Laguerre solve for n_max states."""
    return 3 * n_max + 42


def _laguerre_scale(f: float, n_max: int, size: int) -> float:
    """Scale s (r_B per unit of x) that puts the classical turning point of
    state n_max at x = (0.1 n_max + 0.2) size.

    The turning point solves -2/zeta + f zeta = E at the estimated energy
    E = min(f^(2/3) a_n, 1.5 n^2 f) - 1/n^2: the triangular well's WKB level,
    a_n = (3 pi (n - 1/4) / 2)^(2/3), or the first-order Stark shift of the
    hydrogenic level where that is lower. Both overestimate E, by at most a
    factor 1.4 in the turning point. With this scale a solve at M agrees
    with one at 2M to 5e-11 for n_max 2 to 24 and 0 to 300 V/cm."""
    a_n = (1.5 * math.pi * (n_max - 0.25)) ** (2.0 / 3.0)
    energy = min(f ** (2.0 / 3.0) * a_n, 1.5 * n_max**2 * f) - 1.0 / n_max**2
    turning = 4.0 / (math.sqrt(energy**2 + 8.0 * f) - energy)
    return turning / ((0.1 * n_max + 0.2) * size)


def _solve_laguerre(f: float, n_max: int, size: int, scale: float):
    """Eigenpairs of the reduced Hamiltonian in size Laguerre functions at
    scale: (energies, z, z^2, <2/zeta^2> + f, coefficients, tail), reduced
    units, coefficients (n_max, size) with psi > 0 at the wall."""
    k, v1, x, x2, v2 = _laguerre_matrices(size)
    h = k / scale**2 - (2.0 / scale) * v1 + (f * scale) * x
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"Laguerre eigensolver failed: {exc}") \
            from exc
    vals, vecs = vals[:n_max], vecs[:, :n_max]
    # psi'(0) is proportional to sum_k c_k sqrt((k+1)(k+2))
    wall = np.sqrt((np.arange(size) + 1.0) * (np.arange(size) + 2.0)) @ vecs
    vecs = vecs * np.sign(wall)
    z_red = scale * (vecs.T @ x @ vecs)
    z2_red = scale**2 * (vecs.T @ x2 @ vecs)
    dvdz_red = (2.0 / scale**2) * np.einsum("ki,kl,li->i", vecs, v2, vecs) + f
    tail = float(np.abs(vecs[-_TAIL_FUNCTIONS:]).max())
    return (vals, 0.5 * (z_red + z_red.T), 0.5 * (z2_red + z2_red.T),
            dvdz_red, vecs.T, tail)


def solve_vertical(
    mat: MaterialProperties,
    e_perp: float,
    n_max: int = 6,
) -> VerticalSpectrum:
    """Solve the vertical problem at e_perp (V/m) for the lowest n_max states
    in the Laguerre basis.

    Raises ConvergenceFailure when a state holds more than _TAIL_AMPLITUDE
    on the basis's last functions, or from the eigensolver.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    f = mat.stark_parameter(e_perp)
    size = _laguerre_size(n_max)
    scale = _laguerre_scale(f, n_max, size)
    vals, z_red, z2_red, dvdz_red, coefficients, tail = _solve_laguerre(
        f, n_max, size, scale)
    if not tail <= _TAIL_AMPLITUDE:     # also refuses a nan tail
        raise ConvergenceFailure(
            f"a state of n <= {n_max} holds amplitude {tail:.2e} on the "
            f"last {_TAIL_FUNCTIONS} of {size} Laguerre functions; the "
            "basis did not converge")
    return _spectrum(mat, e_perp, VerticalSolver(size, scale, tail), vals,
                     z_red, z2_red, dvdz_red, coefficients=coefficients)


def _spectrum(mat: MaterialProperties, e_perp: float,
              solver: VerticalSolver | None, vals, z_red, z2_red, dvdz_red,
              **extra) -> VerticalSpectrum:
    """The VerticalSpectrum of a solve in reduced units, in SI and frozen;
    ConvergenceFailure where the eigenvalues do not strictly increase."""
    if np.any(np.diff(vals) <= 0.0):
        raise ConvergenceFailure("eigenvalues not strictly increasing")

    r_b = mat.bohr_radius       # m per internal length unit
    r_e = mat.rydberg_energy    # J per internal energy unit
    arrays = dict(
        energies=vals * r_e,
        z_matrix=z_red * r_b,
        z2_matrix=z2_red * r_b**2,
        dvdz_diag=dvdz_red * r_e / r_b,
        **extra,
    )
    for arr in arrays.values():
        arr.setflags(write=False)
    return VerticalSpectrum(material=mat, e_perp=e_perp, solver=solver,
                            **arrays)


def solver_report(solvers) -> dict | None:
    """The sidecar's account of the vertical solves made, given each one's
    VerticalSolver: the Laguerre basis size, the smallest and largest scale
    and the worst tail amplitude. None where no solve was made."""
    solvers = list(solvers)
    if not solvers:
        return None
    scales = [solver.scale for solver in solvers]
    return {"solver": "laguerre",
            "basis_size": solvers[0].basis_size,
            "scale_r_B": [min(scales), max(scales)],
            "worst_tail_amplitude": max(solver.tail for solver in solvers)}


def reference_solve(
    mat: MaterialProperties,
    e_perp: float,
    n_max: int = 6,
    grid: GridSpec = GridSpec(),
) -> VerticalSpectrum:
    """The finite-difference reference of solve_vertical, on grid: energies
    Richardson extrapolated, z, z^2 and dV/dz from the fine grid, with the
    grid and wavefunctions kept and solver None.

    Raises GridTooSmall when the highest state carries more than 1e-6 of its
    norm in the outer 1% of the box, and ConvergenceFailure from the
    eigensolver.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    f = mat.stark_parameter(e_perp)
    if 4 * n_max > grid.n_points:
        raise ValueError("grid too coarse for the requested number of states")
    zeta, dz, vals_fine, psi = _solve_reduced(f, grid.z_max, grid.n_points,
                                              n_max)
    _, dz_c, vals_coarse, _ = _solve_reduced(
        f, grid.z_max, grid.n_points // 2, n_max, eigvals_only=True)

    # Two-grid Richardson step: the FD eigenvalue error is C dz^2 + O(dz^4).
    ratio_sq = (dz_c / dz) ** 2
    vals = (ratio_sq * vals_fine - vals_coarse) / (ratio_sq - 1.0)

    tail_points = max(1, int(grid.n_points * _TAIL_FRACTION))
    tail = float(np.sum(psi[-1, -tail_points:] ** 2) * dz)
    if tail > _TAIL_TOLERANCE:
        raise GridTooSmall(
            f"state n={n_max} holds {tail:.2e} of its norm in the outer "
            f"{_TAIL_FRACTION:.0%} of the box; increase z_max"
        )

    # Trapezoid quadrature. The Dirichlet endpoints make it a plain weighted
    # sum, except for 2/zeta^2, whose integrand tends to 2 psi'(0)^2 at the
    # wall: its zeta = 0 endpoint, weight dz/2, keeps the error at O(dz^2).
    z_red = (psi * zeta) @ psi.T * dz
    z2_red = (psi * zeta**2) @ psi.T * dz
    dvdz_red = (np.sum(psi**2 * (2.0 / zeta**2 + f), axis=1) * dz
                + dz * (psi[:, 0] / zeta[0]) ** 2)
    return _spectrum(mat, e_perp, None, vals, 0.5 * (z_red + z_red.T),
                     0.5 * (z2_red + z2_red.T), dvdz_red,
                     grid=zeta * mat.bohr_radius,
                     wavefunctions=psi / math.sqrt(mat.bohr_radius))


def _solve_reduced(f: float, z_max: float, n_points: int, n_max: int,
                   eigvals_only: bool = False):
    """Finite-difference eigenpairs of the reduced Hamiltonian.

    Returns (zeta, dz, eigenvalues, psi) with psi of shape (n_max, n_points)
    normalized to unit L2 norm in the reduced length and positive near the
    wall, the sign convention of the Laguerre solve.
    With eigvals_only psi is None and no eigenvector is computed.
    """
    dz = z_max / (n_points + 1)
    zeta = dz * np.arange(1, n_points + 1)
    diag = 2.0 / dz**2 - 2.0 / zeta + f * zeta
    off = np.full(n_points - 1, -1.0 / dz**2)
    # the command line never runs the reference, and so imports no scipy
    from scipy.linalg import eigh_tridiagonal

    try:
        found = eigh_tridiagonal(diag, off, eigvals_only=eigvals_only,
                                 select="i", select_range=(0, n_max - 1))
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise ConvergenceFailure(f"tridiagonal eigensolver failed: {exc}") from exc
    if eigvals_only:
        return zeta, dz, found, None
    vals, vecs = found
    psi = (vecs / math.sqrt(dz)).T
    psi = psi * np.sign(psi[:, 0])[:, None]
    return zeta, dz, vals, psi


def truncation_report(vs: VerticalSpectrum) -> np.ndarray:
    """Completeness residual |(z^2)_nn - sum_m |z_nm|^2| / (z^2)_nn per state.

    Measures how much of each state's z^2 sum rule escapes the retained
    basis; downstream perturbative sums inherit exactly this residual.
    """
    z2_diag = np.diag(vs.z2_matrix)
    closure = np.sum(vs.z_matrix**2, axis=1)
    return np.abs(z2_diag - closure) / z2_diag


def stark_slope(
    mat: MaterialProperties,
    e_perp: float,
    n: int,
    n_prime: int,
) -> float:
    """Slope of the n -> n_prime transition frequency vs E_perp, GHz cm / V.

    Central finite difference with step _SLOPE_STEP_V_CM (0.1 V/cm) of
    default (Laguerre) solves; one-sided from above when e_perp sits
    closer to zero than the step.
    """
    if n == n_prime:
        return 0.0
    n_states = max(n, n_prime, 2)
    delta = _SLOPE_STEP_V_CM * V_PER_CM

    def freq(e):
        vs = solve_vertical(mat, e, n_max=n_states)
        return vs.transition_frequency_ghz(n, n_prime)

    if e_perp >= delta:
        return ((freq(e_perp + delta) - freq(e_perp - delta))
                / (2.0 * _SLOPE_STEP_V_CM))
    return (freq(e_perp + delta) - freq(e_perp)) / _SLOPE_STEP_V_CM


def find_transition_field(
    mat: MaterialProperties,
    target_ghz: float,
    n: int,
    n_prime: int,
    bracket_v_cm: tuple[float, float] = (1.0, 80.0),
) -> float:
    """E_perp (V/m) at which the n -> n_prime transition hits target_ghz.

    The transition frequency grows monotonically with the tilt, so a sign
    change over the bracket pins the root; raises ValueError otherwise.
    """
    n_states = max(n, n_prime, 2)

    def objective(e_v_cm):
        vs = solve_vertical(mat, e_v_cm * V_PER_CM, n_max=n_states)
        return vs.transition_frequency_ghz(n, n_prime) - target_ghz

    lo, hi = bracket_v_cm
    f_lo, f_hi = objective(lo), objective(hi)
    if f_lo * f_hi > 0.0:
        raise ValueError(
            f"transition {n}->{n_prime} does not reach {target_ghz} GHz "
            f"inside {bracket_v_cm} V/cm (endpoints {f_lo:+.3f}, {f_hi:+.3f})"
        )
    from scipy.optimize import brentq   # scipy.optimize is slow to import

    root = brentq(objective, lo, hi, xtol=_ROOT_TOL_V_CM)
    return float(root * V_PER_CM)

