"""Discrete Schroedinger operator on the circle and its principal eigenpair.

The generator-plus-potential operator is discretized as A = D/2 + diag(V)
where D is the periodic second-difference stencil (1, -2, 1)/h^2 with
wrap-around corners.  A is stored as its three cyclic bands, 3n numbers, and
is exactly symmetric.  Every shifted system the package solves is this cyclic
tridiagonal shape, or it bordered by one constraint, and _CyclicLU factors
each in O(n): LAPACK's tridiagonal factors of all but the last node, and a
Schur complement for the rest.  The top two eigenvalues come from
shift-invert Lanczos (ARPACK) with the shift above the Gershgorin bound.
Inverse iteration on the LDL^T factors of the M-matrix shift - A then sweeps
until no node of the Perron vector moves, which keeps its tail accurate node
by node.  Every step costs O(n) time and memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import lapack
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .grid import GridFunction, PeriodicGrid, derivative, integrate

__all__ = [
    "OperatorMatrix",
    "EigenSolution",
    "NumericalFailure",
    "PositivityViolation",
    "DegenerateGap",
    "NonConvergence",
    "build_generator",
    "doob_generator",
    "principal_eigenpair",
    "gibbs_density",
    "eigen_probability",
    "critical_point_count",
]


class NumericalFailure(RuntimeError):
    """Base of every named numerical failure; the CLI exits 3 on any of them."""


class PositivityViolation(NumericalFailure):
    """The computed principal eigenvector has a non-positive node.

    Perron theory forbids this for the operator class handled here, so it
    signals a solver or discretization failure rather than a valid state.
    """


class DegenerateGap(NumericalFailure):
    """The two leading eigenvalues are numerically indistinguishable."""


class NonConvergence(NumericalFailure):
    """An iterative solver or the pressure ascent stopped before converging."""


@dataclass(frozen=True)
class OperatorMatrix:
    """Cyclic tridiagonal stencil A on a periodic grid, held as three bands.

    diag[i] = A[i, i], up[i] = A[i, i+1] and low[i] = A[i, i-1], indices
    taken cyclically; each is stored as a read-only float64 copy.
    """

    grid: PeriodicGrid
    diag: np.ndarray
    up: np.ndarray
    low: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n
        for name in ("diag", "up", "low"):
            band = np.array(getattr(self, name), dtype=float)
            if band.shape != (n,):
                raise ValueError(f"band {name} must have shape ({n},), got {band.shape}")
            band.setflags(write=False)
            object.__setattr__(self, name, band)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A v, each row summed in ascending column order, corner rows included."""
        low, up = self.low, self.up
        x = self.diag * v
        out = np.empty_like(x)
        out[1:-1] = low[1:-1] * v[:-2] + x[1:-1] + up[1:-1] * v[2:]
        out[0] = x[0] + up[0] * v[1] + low[0] * v[-1]
        out[-1] = up[-1] * v[0] + low[-1] * v[-2] + x[-1]
        return out

    def shifted(self, a: float, b: float) -> OperatorMatrix:
        """a I + b A."""
        return OperatorMatrix(self.grid, a + b * self.diag, b * self.up, b * self.low)

    @property
    def symmetric(self) -> bool:
        """A[i, i+1] == A[i+1, i] for every i, exactly."""
        return bool(np.array_equal(self.up, np.roll(self.low, -1)))


def laplacian_half(grid: PeriodicGrid) -> OperatorMatrix:
    """The half-Laplacian second-difference stencil (1, -2, 1)/(2 h^2)."""
    scale = 0.5 / grid.h**2
    side = np.full(grid.n, scale)
    return OperatorMatrix(grid, np.full(grid.n, -2.0 * scale), side, side)


@lru_cache(maxsize=None)
def _excess_symbol(n: int) -> np.ndarray:
    pik = np.pi * np.arange(n // 2 + 1)
    return 2.0 * pik**2 - 2.0 * (n * np.sin(pik / n)) ** 2


def stencil_excess(grid: PeriodicGrid, v: np.ndarray) -> float:
    """<v, E v> / <v, v> for E = laplacian_half minus the Fourier half-Laplacian.

    E is circulant with symbol (2 pi k)^2/2 - n^2 (1 - cos 2 pi k/n) >= 0,
    cached per n as 2 (pi k)^2 - 2 (n sin(pi k/n))^2, which keeps its small
    values exact.
    """
    power = np.abs(np.fft.rfft(v)) ** 2
    power[1:grid.n // 2] *= 2.0  # the modes -k, which rfft leaves out
    return float(_excess_symbol(grid.n) @ power / power.sum())


def roundoff_bound(n: int) -> float:
    """Residual floor on n nodes: 1e-9 to n ~ 1500, then eps |A| ~ 2 eps n^2."""
    return max(1e-9, 6.0 * np.finfo(float).eps * n**2)


def build_generator(V: GridFunction) -> OperatorMatrix:
    """A = D/2 + diag(V) with the periodic second-difference D."""
    half = laplacian_half(V.grid)
    return OperatorMatrix(V.grid, half.diag + V.values, half.up, half.low)


@dataclass(frozen=True)
class EigenSolution:
    """Principal eigenpair of the generator-plus-potential operator.

    eigenvalue      top eigenvalue
    eigenfunction   positive eigenvector, normalized so its squared integral is 1
    normalization   integral of eigenfunction^2 (1 by construction)
    drift           Fourier derivative of log(eigenfunction)
    spectral_gap    distance from the top eigenvalue to the second one
    residual        max|A F - lambda F| / max F, the residual guard's value
    residual_bound  the guard it passed, roundoff_bound(n)
    sweeps          inverse-iteration sweeps that settled F
    min_F           min F / max F, how far the eigenfunction's tail falls
    """

    eigenvalue: float
    eigenfunction: GridFunction
    normalization: float
    drift: GridFunction
    spectral_gap: float
    residual: float
    residual_bound: float
    sweeps: int
    min_F: float

    @cached_property
    def excess(self) -> float:
        """stencil_excess of F: the high end of pressure_decomposition's bracket."""
        return stencil_excess(self.eigenfunction.grid, self.eigenfunction.values)


_SWEEP_TOL, _MAX_SWEEPS = 1e-12, 50


def inverse_iteration(solve: Callable[[np.ndarray], np.ndarray],
                      start: np.ndarray) -> tuple[np.ndarray, int]:
    """Unit vector from normalized applications of a shifted solve, and the
    number of sweeps (solves) it took.

    solve(b) returns (shift - A)^{-1} b or its negative.  Each sweep is signed
    like the one before; they stop once no node moves by more than _SWEEP_TOL
    of its value, or silently after _MAX_SWEEPS.  The result has a nonnegative
    mean, so a Perron vector comes out positive.
    """
    v = start / np.linalg.norm(start)
    for sweeps in range(1, _MAX_SWEEPS + 1):
        prev = v
        v = solve(prev)
        v /= np.linalg.norm(v)
        if v @ prev < 0:
            v = -v
        if np.all(np.abs(v - prev) <= _SWEEP_TOL * np.abs(v)):
            break
    return (-v if v.mean() < 0 else v), sweeps


def _check_pivots(info: int, n: int) -> None:
    if info != 0:
        raise NumericalFailure(f"factoring a shifted {n}x{n} stencil: pivot {info} "
                               f"is zero, or not positive in LDL^T")


class _CyclicLU:
    """Factors of a cyclic tridiagonal stencil M, optionally bordered by one
    column and row border = (column, row), each of length n; solve(b) returns
    M^{-1} b.

    The nodes in cuts (by default the last one) and the border's unknown are
    eliminated through their Schur complement S = M_kk - R W, W = T^{-1} C,
    where T is M without them, plainly tridiagonal in cyclic order from the
    node after the last cut, and C and R are M's columns and rows of the
    eliminated unknowns restricted to T.  An exactly symmetric unbordered M
    must be positive definite: T gets LAPACK's LDL^T (dpttrf), which makes no
    row exchanges.  Any other T gets partially pivoted LU (dgttrf), and W one
    step of iterative refinement: without it, solves with the companion's
    bordered Doob generator had a backward error of tens of eps.
    """

    def __init__(self, op: OperatorMatrix,
                 border: tuple[np.ndarray, np.ndarray] | None = None,
                 cuts=(-1,)) -> None:
        n, d, right, left = op.grid.n, op.diag, op.up, op.low
        symmetric = border is None and op.symmetric
        cut = np.array(sorted({int(c) % n for c in cuts}))
        kept = np.ones(n, dtype=bool)
        kept[cut] = False
        order = (np.arange(n) + cut[-1] + 1) % n
        rest = order[kept[order]]
        place = np.zeros(n, dtype=int)  # row in T of a kept node, slot in S of a cut one
        place[rest], place[cut] = np.arange(rest.size), np.arange(cut.size)
        m = cut.size + (border is not None)
        C, R, S = np.zeros((rest.size, m)), np.zeros((m, rest.size)), np.zeros((m, m))
        for q, c in enumerate(cut):
            S[q, q] = d[c]
            for j, into, out in ((c - 1, right[c - 1], left[c]),
                                 ((c + 1) % n, left[(c + 1) % n], right[c])):
                if kept[j]:
                    C[place[j], q], R[q, place[j]] = into, out
                else:
                    S[q, place[j]] = out
        if border is not None:
            column, row = border
            C[:, -1], R[-1], S[:-1, -1], S[-1, :-1] = column[rest], row[rest], column[cut], row[cut]
        joined = rest[1:] == (rest[:-1] + 1) % n
        d = d[rest]
        up = np.where(joined, right[rest[:-1]], 0.0)
        low = np.where(joined, left[rest[1:]], 0.0)
        if symmetric:
            factors = lapack.dpttrf(d, up)
            self._t_solve = lambda b: lapack.dpttrs(*factors[:2], b)[0]
        else:
            factors = lapack.dgttrf(low, d, up)
            self._t_solve = lambda b: lapack.dgttrs(*factors[:5], b)[0]
        _check_pivots(factors[-1], n)
        W = self._t_solve(C)
        if not symmetric:
            TW = d[:, None] * W
            TW[:-1] += up[:, None] * W[1:]
            TW[1:] += low[:, None] * W[:-1]
            W += self._t_solve(C - TW)
        self._R, self._W = R, W.T.copy()  # W by rows, for the solve's axpy
        self._S = lapack.dgetrf(S - R @ W)
        _check_pivots(self._S[-1], n)
        # A slice when T is the leading block, so a solve gathers nothing.
        self._rest = slice(0, rest.size) if rest[0] == 0 and cut[0] == rest.size else rest
        self._cut = np.append(cut, n) if border is not None else cut

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self._t_solve(b[self._rest])
        last = lapack.dgetrs(*self._S[:2], b[self._cut] - self._R @ y)[0]
        for c, w in zip(last, self._W):
            y -= c * w
        x = np.empty(b.size)
        x[self._rest], x[self._cut] = y, last
        return x


def _top_two_eigenvalues(op: OperatorMatrix) -> np.ndarray:
    """Two largest eigenvalues, ascending, by shift-invert Lanczos.

    The shift sits max(1, 1e-12 |bound|) above the Gershgorin bound, so even
    after rounding the eigenvalues nearest to it are the top two and the
    shifted matrix is nonsingular.  The start vector is fixed (ARPACK's is random).
    """
    n = op.grid.n
    size = OperatorMatrix(op.grid, np.abs(op.diag), np.abs(op.up), np.abs(op.low))
    bound = float(np.max(op.diag + size.apply(np.ones(n)) - size.diag))
    sigma = bound + max(1.0, 1e-12 * abs(bound))
    lu = _CyclicLU(op.shifted(sigma, -1.0))
    opinv = LinearOperator((n, n), matvec=lambda b: -lu.solve(b), dtype=float)
    # In shift-invert mode ARPACK applies only OPinv, never A itself.
    mat = LinearOperator((n, n), matvec=op.apply, dtype=float)
    try:
        values = eigsh(mat, k=2, sigma=sigma, OPinv=opinv, v0=np.ones(n),
                       tol=0, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NonConvergence(f"shift-invert Lanczos: {exc}") from exc
    return np.sort(values)


def principal_eigenpair(op: OperatorMatrix) -> EigenSolution:
    """Top eigenvalue and positive eigenvector of a built generator.

    Raises ValueError unless op is exactly symmetric, as build_generator
    makes it.
    """
    if not op.symmetric:
        raise ValueError("operator matrix must be exactly symmetric")
    grid = op.grid
    second, first = _top_two_eigenvalues(op)
    gap = float(first - second)
    if gap <= 1e-12:
        raise DegenerateGap(f"spectral gap {gap:.3e} is not resolvably positive")
    shift = float(first) + 1e-8 * max(1.0, abs(float(first)))
    # shift I - A is a nonsingular M-matrix: its LDL^T factors make no row
    # exchanges, and a solve of a positive vector adds positive terms only.
    lu = _CyclicLU(op.shifted(shift, -1.0))
    vec, sweeps = inverse_iteration(lu.solve, np.ones(grid.n))
    if np.any(vec <= 0.0):
        raise PositivityViolation("principal eigenvector is not positive at every node")
    # Rayleigh quotient of the refined vector beats the raw Lanczos value.
    lam = float(vec @ op.apply(vec) / (vec @ vec))
    vec = vec / np.sqrt(grid.h * np.sum(vec**2))
    residual = np.max(np.abs(op.apply(vec) - lam * vec)) / np.max(np.abs(vec))
    bound = roundoff_bound(grid.n)
    if residual > bound:
        raise NonConvergence(f"eigenpair residual {residual:.3e} exceeds {bound:.3e}")
    F = GridFunction(grid, vec)
    drift = derivative(GridFunction(grid, np.log(vec)), 1)
    return EigenSolution(
        eigenvalue=lam,
        eigenfunction=F,
        normalization=integrate(F * F),
        drift=drift,
        spectral_gap=gap,
        residual=float(residual),
        residual_bound=float(bound),
        sweeps=sweeps,
        min_F=float(vec.min() / vec.max()),
    )


def doob_generator(solution: EigenSolution, V: GridFunction) -> OperatorMatrix:
    """Markov generator diag(1/F) (A - lambda I) diag(F) of the Doob transform.

    V is the potential the eigenpair was solved for and A its stencil.  The
    rows sum to zero up to the eigenpair residual over F, so exp(t L) fixes
    constants node by node, with no division by F after the fact.  The three
    bands are written directly, each entry by the composed product's
    operations in their order: (1/F_i) (((-2 s) + V_i) - lambda) F_i on the
    diagonal and ((1/F_i) s) F_{i+-1} off it, s = 1/(2 h^2), with the
    periodic corners, so L has the product's bits without assembling A or
    multiplying matrices.
    """
    F = solution.eigenfunction.values
    s = 0.5 / V.grid.h**2
    inv = 1.0 / F
    return OperatorMatrix(V.grid, inv * ((-2.0 * s + V.values) - solution.eigenvalue) * F,
                          inv * s * np.roll(F, -1), inv * s * np.roll(F, 1))


def gibbs_density(solution: EigenSolution) -> GridFunction:
    """Invariant density of the normalized process: eigenfunction squared."""
    sq = solution.eigenfunction * solution.eigenfunction
    return GridFunction(sq.grid, sq.values / integrate(sq))


def eigen_probability(solution: EigenSolution) -> GridFunction:
    """Adjoint eigen-probability density, proportional to the eigenfunction.

    The operator is self-adjoint for the flat measure, so the adjoint problem
    has the same eigenfunction; only the normalization differs.
    """
    F = solution.eigenfunction
    return GridFunction(F.grid, F.values / integrate(F))


def critical_point_count(f: GridFunction) -> int:
    """Count sign changes of the cyclic first difference (critical points).

    Differences at roundoff level (<= 1e-12 of the value scale) are treated
    as zero, so flat functions report zero critical points.
    """
    diffs = np.roll(f.values, -1) - f.values
    floor = 1e-12 * max(1.0, float(np.max(np.abs(f.values))))
    signs = np.sign(diffs)
    signs[np.abs(diffs) <= floor] = 0
    signs = signs[signs != 0]
    if signs.size == 0:
        return 0
    return int(np.sum(signs != np.roll(signs, 1)))
