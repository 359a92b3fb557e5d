"""Vertical eigenproblem: image-charge well plus Stark tilt over a rigid wall.

The dimensionless Hamiltonian -d^2/dzeta^2 - 2/zeta + f*zeta (energies in
R_e, lengths in r_B, f = e E_perp r_B / R_e) is discretized by a symmetric
three-point finite difference on a uniform grid with Dirichlet walls at 0 and
z_max. Eigenvalues carry an O(dz^2) bias at the default grid that would break
the advertised grid-doubling stability of E_1, E_2, so they are Richardson
extrapolated from the full and half resolution grids; wavefunctions and
matrix elements come from the fine grid, whose O(dz^2) error is far inside
every tolerance used downstream.

The lowest states of the fine grid come from LAPACK's bisection dstebz
(range "I", order "B", abstol 0) and inverse iteration dstein, the pair that
scipy.linalg.eigh_tridiagonal(select="i") runs; the half-resolution grid
gives eigenvalues only, so it stops after dstebz, as eigh_tridiagonal does
with eigvals_only. They are called through ctypes on the ILP64 symbols of
the OpenBLAS numpy already loads, so a solve imports no scipy. Where no
loaded library exports them (a numpy built on MKL or Accelerate, or no
/proc), eigh_tridiagonal itself is the fallback; both paths give the same
bits.

This is the one module that calls OpenBLAS. It also binds dsyevd, the
dense symmetric solver np.linalg.eigh calls, with the same "V", "L" call
and workspace query, so coupled.diagonalize can solve a Hamiltonian in its
own buffer instead of in numpy's copy (np.linalg.eigh is the fallback,
with the same bits); and it holds the process-wide one-thread pin that
every command-line task runs under. The command line also asks OpenBLAS
for one thread before numpy loads it, through OPENBLAS_NUM_THREADS (see
cli), so that no idle thread pool starts; the pin is what holds a library
or test caller that loaded numpy first to one thread.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, GridTooSmall
from .materials import GHZ, GridSpec, MaterialProperties, V_PER_CM

# Fraction of the grid, counted from the outer wall, whose probability mass
# must stay below the leak tolerance for the highest state.
_TAIL_FRACTION = 0.01
_TAIL_TOLERANCE = 1e-6
# Finite-difference step of stark_slope and root tolerance of
# find_transition_field, V/cm.
_SLOPE_STEP_V_CM = 0.1
_ROOT_TOL_V_CM = 1e-3
# dstebz and dstein as numpy's bundled OpenBLAS exports them, with 64-bit
# integers.
_STEBZ, _STEIN = "scipy_dstebz_64_", "scipy_dstein_64_"
_SYEVD = "scipy_dsyevd_64_"


@dataclass(frozen=True)
class VerticalSpectrum:
    """Lowest bound states of the vertical motion and their matrix elements.

    All arrays are SI: grid in m, energies in J, wavefunctions in m^-1/2
    normalized so that sum(psi_n psi_m) dz = delta_nm, z_matrix in m,
    z2_matrix in m^2, dvdz_diag in J/m. Index convention: row/column i holds
    state n = i + 1. Arrays are frozen after construction.
    """

    material: MaterialProperties
    e_perp: float               # V/m
    grid_spec: GridSpec
    grid: np.ndarray            # (n_points,)
    energies: np.ndarray        # (n_max,)
    wavefunctions: np.ndarray   # (n_max, n_points)
    z_matrix: np.ndarray        # (n_max, n_max)
    z2_matrix: np.ndarray       # (n_max, n_max)
    dvdz_diag: np.ndarray       # (n_max,)

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


# (get, set) thread-count symbols: numpy's bundled OpenBLAS (64-bit integer
# interface), scipy's, and an unprefixed system OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_functions(groups) -> list[tuple]:
    """For every OpenBLAS mapped into this process, in path order, the
    functions of the first group of symbol names in groups that it exports
    in full; empty where none is loaded or /proc is unavailable."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in groups:
            funcs = tuple(getattr(lib, name, None) for name in names)
            if None not in funcs:
                found.append(funcs)
                break
    return found


@functools.cache
def _lapack_tridiagonal():
    """(dstebz, dstein) from a loaded OpenBLAS, or None where no loaded
    library exports both; solve_vertical then falls back to scipy."""
    for stebz, stein in _openblas_functions([(_STEBZ, _STEIN)]):
        # Fortran passes everything by reference; dstebz's two CHARACTER*1
        # arguments add hidden trailing size_t lengths.
        stebz.argtypes = [ctypes.c_void_p] * 18 + [ctypes.c_size_t] * 2
        stein.argtypes = [ctypes.c_void_p] * 13
        stebz.restype = stein.restype = None
        return stebz, stein
    return None


@functools.cache
def _lapack_syevd():
    """dsyevd from a loaded OpenBLAS, or None where no loaded library
    exports it; _eigh_in_place then falls back to np.linalg.eigh."""
    for (syevd,) in _openblas_functions([(_SYEVD,)]):
        # JOBZ, UPLO, N, A, LDA, W, WORK, LWORK, IWORK, LIWORK, INFO, and
        # the hidden lengths of the two CHARACTER*1 arguments
        syevd.argtypes = [ctypes.c_void_p] * 11 + [ctypes.c_size_t] * 2
        syevd.restype = None
        return syevd
    return None


def _openblas_thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS mapped into this
    process; empty where none is loaded or /proc is unavailable.

    The vertical solve runs LAPACK from numpy's OpenBLAS, which is loaded
    with numpy. Only where it falls back to scipy does this import
    scipy.linalg first, so that the OpenBLAS scipy brings is pinned before
    the first solve."""
    if _lapack_tridiagonal() is None:
        import scipy.linalg  # noqa: F401

    controls = _openblas_functions(_OPENBLAS_THREAD_SYMBOLS)
    for getter, setter in controls:
        getter.argtypes = []
        getter.restype = ctypes.c_int
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
    return controls


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
                    for getter, setter in _openblas_thread_controls()]
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


def _check_info(info: int, routine: str, positive: str) -> None:
    """scipy's LAPACK info check, with its texts."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal "
                         f"{routine} (eigh_tridiagonal)")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{routine} (eigh_tridiagonal) {positive % info}")


# Every LAPACK argument goes by reference: scalars through byref, arrays by
# address (an array's .ctypes would sit in a reference cycle and keep the
# array alive until the cyclic collector runs).
def _ref(value, ctype=ctypes.c_int64):
    return ctypes.byref(ctype(value))


def _lowest_eigenpairs(diag: np.ndarray, off: np.ndarray, k: int,
                       eigvals_only: bool = False):
    """The k lowest eigenvalues (ascending) and eigenvectors (columns) of the
    symmetric tridiagonal matrix (diag, off), or with eigvals_only the
    eigenvalues alone: what eigh_tridiagonal(diag, off, eigvals_only,
    select="i", select_range=(0, k - 1)) returns, bit for bit. The
    eigenvalues alone stop after dstebz, as scipy does."""
    routines = _lapack_tridiagonal()
    if routines is None:
        from scipy.linalg import eigh_tridiagonal   # scipy is slow to import

        return eigh_tridiagonal(diag, off, eigvals_only=eigvals_only,
                                select="i", select_range=(0, k - 1))
    stebz, stein = routines
    diag = np.ascontiguousarray(diag, dtype=float)
    off = np.ascontiguousarray(off, dtype=float)
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("array must not contain infs or NaNs")
    n = diag.size
    if not 1 <= k <= n:
        raise ValueError("select_range out of bounds")

    m, nsplit, info = (np.zeros(1, np.int64) for _ in range(3))
    w, work = np.zeros(n), np.zeros(5 * n)
    iblock, isplit = np.zeros(n, np.int64), np.zeros(n, np.int64)
    iwork = np.zeros(3 * n, np.int64)
    # RANGE, ORDER, N, VL, VU (unused for range "I"), IL, IU, ABSTOL, ...;
    # order "B" for dstein, "E" (ascending) for the eigenvalues alone
    stebz(b"I", b"E" if eigvals_only else b"B", _ref(n),
          _ref(0.0, ctypes.c_double), _ref(1.0, ctypes.c_double), _ref(1),
          _ref(k), _ref(0.0, ctypes.c_double),
          *(a.ctypes.data for a in (diag, off, m, nsplit, w, iblock, isplit,
                                    work, iwork, info)), 1, 1)
    _check_info(int(info[0]), "stebz", "did not converge (LAPACK info=%d)")
    w = w[:m[0]]
    if eigvals_only:
        return w
    vecs = np.zeros((n, w.size), order="F")
    ifail = np.zeros(w.size, np.int64)
    stein(_ref(n), diag.ctypes.data, off.ctypes.data, _ref(w.size),
          *(a.ctypes.data for a in (w, iblock, isplit, vecs)), _ref(n),
          *(a.ctypes.data for a in (work, iwork, ifail, info)))
    _check_info(int(info[0]), "stein", "%d eigenvectors failed to converge")
    # dstebz order "B" groups the eigenvalues by split block
    order = np.argsort(w)
    return w[order], vecs[:, order]


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
    syevd = _lapack_syevd()
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


def _solve_reduced(f: float, z_max: float, n_points: int, n_max: int,
                   eigvals_only: bool = False):
    """Finite-difference eigenpairs of the reduced Hamiltonian.

    Returns (zeta, dz, eigenvalues, psi) with psi of shape (n_max, n_points)
    normalized to unit L2 norm in the reduced length and positive near the
    wall; that sign convention fixes all matrix-element phases repo-wide.
    With eigvals_only psi is None and no eigenvector is computed.
    """
    dz = z_max / (n_points + 1)
    zeta = dz * np.arange(1, n_points + 1)
    diag = 2.0 / dz**2 - 2.0 / zeta + f * zeta
    off = np.full(n_points - 1, -1.0 / dz**2)
    try:
        found = _lowest_eigenpairs(diag, off, n_max, eigvals_only)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise ConvergenceFailure(f"tridiagonal eigensolver failed: {exc}") from exc
    if eigvals_only:
        return zeta, dz, found, None
    vals, vecs = found
    psi = (vecs / math.sqrt(dz)).T
    psi = psi * np.sign(psi[:, 0])[:, None]
    return zeta, dz, vals, psi


def solve_vertical(
    mat: MaterialProperties,
    e_perp: float,
    n_max: int = 6,
    grid: GridSpec = GridSpec(),
) -> VerticalSpectrum:
    """Solve the vertical problem at e_perp (V/m) for the lowest n_max states.

    Raises GridTooSmall when the highest state carries more than 1e-6 of its
    norm in the outer 1% of the box, and ConvergenceFailure from the
    eigensolver.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if 4 * n_max > grid.n_points:
        raise ValueError("grid too coarse for the requested number of states")
    f = mat.stark_parameter(e_perp)

    zeta, dz, vals_fine, psi = _solve_reduced(f, grid.z_max, grid.n_points, n_max)
    _, dz_c, vals_coarse, _ = _solve_reduced(
        f, grid.z_max, grid.n_points // 2, n_max, eigvals_only=True)

    # Two-grid Richardson step: the FD eigenvalue error is C dz^2 + O(dz^4).
    ratio_sq = (dz_c / dz) ** 2
    vals = (ratio_sq * vals_fine - vals_coarse) / (ratio_sq - 1.0)
    if np.any(np.diff(vals) <= 0.0):
        raise ConvergenceFailure("eigenvalues not strictly increasing")

    tail_points = max(1, int(grid.n_points * _TAIL_FRACTION))
    tail = float(np.sum(psi[-1, -tail_points:] ** 2) * dz)
    if tail > _TAIL_TOLERANCE:
        raise GridTooSmall(
            f"state n={n_max} holds {tail:.2e} of its norm in the outer "
            f"{_TAIL_FRACTION:.0%} of the box; increase z_max"
        )

    # Trapezoid quadrature; Dirichlet endpoints make it a plain weighted sum.
    z_red = (psi * zeta) @ psi.T * dz
    z2_red = (psi * zeta**2) @ psi.T * dz
    dvdz_red = np.sum(psi**2 * (2.0 / zeta**2 + f), axis=1) * dz
    z_red = 0.5 * (z_red + z_red.T)
    z2_red = 0.5 * (z2_red + z2_red.T)

    r_b = mat.bohr_radius       # m per internal length unit
    r_e = mat.rydberg_energy    # J per internal energy unit
    arrays = dict(
        grid=zeta * r_b,
        energies=vals * r_e,
        wavefunctions=psi / math.sqrt(r_b),
        z_matrix=z_red * r_b,
        z2_matrix=z2_red * r_b**2,
        dvdz_diag=dvdz_red * r_e / r_b,
    )
    for arr in arrays.values():
        arr.setflags(write=False)
    return VerticalSpectrum(
        material=mat, e_perp=e_perp, grid_spec=grid, **arrays
    )


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
    solves on the default grid; one-sided from above when e_perp sits
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

