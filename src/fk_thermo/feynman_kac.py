"""Weighted heat semigroup: deterministic propagation and path-integral sampling.

The semigroup applies exp(t(D/2 + V)) to a function.  Two independent routes
are provided: shift-invert Krylov (one O(n) tridiagonal factorization per
horizon, then a small Arnoldi basis per function, exact in time to about
1e-13 of the result), and a Monte-Carlo average of exp(integral of V along
a Brownian path) times the terminal value.  Their agreement (and the
self-adjointness of the propagator for the flat measure) is what the
verification suite leans on.

propagate_pde_many alone picks the frame the Krylov kernel runs in (the flat
stencil of V - max(V, 0), or, given V's principal eigenpair, the Doob
generator, which applies the normalized Gibbs semigroup instead) and runs it
over the horizons.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np
from scipy.linalg import expm, norm

from .grid import GridFunction, integrate
from .mc import McConfig, mean_and_se, simulate_paths, step_count
from .spectral import (EigenSolution, NonConvergence, NumericalFailure, _CyclicLU,
                       build_generator, doob_generator)

__all__ = ["propagate_pde_many", "propagate_mc", "check_selfadjoint", "WeightOverflow"]


class WeightOverflow(NumericalFailure):
    """A Feynman-Kac weight overflowed: a Monte-Carlo estimate or its
    standard error, or a propagated state, is not finite."""


@dataclass(frozen=True)
class PropagatorConfig:
    """Horizon t and step dt of a propagate_pde call; kept for perfbench until
    ROADMAP item 17 (use propagate_pde_many and mc.step_count instead).

    The Krylov route is exact in time and does not read dt; only n_steps
    applies the step rule, raising unless t is a whole number of steps.
    """

    t: float
    dt: float

    @property
    def n_steps(self) -> int:
        return step_count(self.t, self.dt)


# Successive Krylov dimensions must agree to _KRYLOV_TOL of the result, or to
# the roundoff floor eps |X|_1 of the small exponential exp(X) applied to a
# unit vector where that is larger (X is shifted so that |exp(X)| is about 1).
# A new direction below _BREAKDOWN of the resolvent's output means the basis
# spans an invariant subspace (a happy breakdown).  Over n = 64-4096, t =
# 1e-3-5, potentials up to a 1000 spike or rough +-100, and smooth, rough,
# point-mass and alternating inputs, no run needed more than 34 dimensions;
# _KRYLOV_DIM leaves room above that.
_KRYLOV_TOL, _BREAKDOWN, _KRYLOV_DIM = 1e-13, 1e-14, 64
_EPS = float(np.finfo(float).eps)


def _krylov_exp(resolvent, b: np.ndarray, t: float, gamma: float,
                shift: float) -> np.ndarray:
    """e^{shift t} exp(t (I - B^{-1}) / gamma) b by Arnoldi on B, where
    resolvent(v) = B v.

    Full (twice classical Gram-Schmidt) orthogonalization builds B V = V H
    from b.  The small matrix S = (I - H^{-1}) / gamma is shifted by its top
    Ritz value s (the largest real part of its eigenvalues), so exp(t (S - s I))
    stays of order one however far s lies below 0, and e^{(shift + s) t} is
    applied to the result in two halves: it overflows or underflows only
    where the result does.  Stops at a happy breakdown, at dimension n, or
    once two successive dimensions agree; raises NonConvergence at
    _KRYLOV_DIM.
    """
    n = b.size
    beta = norm(b, check_finite=False)  # BLAS nrm2 does not overflow
    if beta == 0.0:
        return np.zeros(n)
    dim = min(n, _KRYLOV_DIM)
    basis = np.empty((dim + 1, n))
    hess = np.zeros((dim + 1, dim))
    basis[0] = b / beta
    gap = np.inf
    for m in range(1, dim + 1):
        w = resolvent(basis[m - 1])
        for _ in range(2):
            c = basis[:m] @ w
            w -= c @ basis[:m]
            hess[:m, m - 1] += c
        hess[m, m - 1] = h = np.linalg.norm(w)
        small = (np.eye(m) - np.linalg.inv(hess[:m, :m])) / gamma
        s = float(np.max(np.linalg.eigvals(small).real))
        X = t * (small - s * np.eye(m))
        y = expm(X)[:, 0]
        if m > 1:
            # the previous dimension's coefficients, at this dimension's scale
            gap = np.linalg.norm(y - np.append(prev * np.exp((s_prev - s) * t), 0.0))
        if (m == n or h <= _BREAKDOWN * np.linalg.norm(hess[:m + 1, m - 1])
                or gap <= max(_KRYLOV_TOL * np.linalg.norm(y),
                              _EPS * np.linalg.norm(X, 1))):
            half = np.exp(0.5 * (shift + s) * t)
            return beta * (y @ basis[:m]) * half * half
        prev, s_prev = y, s
        basis[m] = w / h
    raise NonConvergence(f"shift-invert Krylov at t={t}: the last two of {dim} "
                         f"dimensions differ by {gap / np.linalg.norm(y):.3g} of "
                         f"the result")


def propagate_pde_many(V: GridFunction, functions, horizons,
                       eigenpair: EigenSolution | None = None) -> dict:
    """exp(t (D/2 + V)) of each function: {t: [u(t), ...]}, t ascending.

    The stencil M of V - c, scaled back by e^{c t}, c = max(V, 0).  Given
    V's principal eigenpair (lambda, F), the Doob-normalized semigroup
    exp(t L) f instead, M = L = doob_generator(eigenpair, V), c = 0: that is
    P_t(F f) / (e^{lambda t} F), computed in the frame where L 1 = 0, so the
    tail of F is as accurate as the bulk.

    Either M has its spectrum at or left of 0, so I - gamma M, gamma = t/10,
    is a nonsingular M-matrix.  One _CyclicLU of it serves every function at
    horizon t: LDL^T factors in the symmetric flat frame, pivoted LU with a
    refined border in the Doob frame.  Each function has its own Krylov
    space, so each result has the bits of its own one-function run.  The
    factors are applied in increment form, v + gamma (I - gamma M)^{-1}
    (M v), which keeps states M annihilates (constants for D/2) fixed to
    the last bit.  Raises ValueError unless each horizon is positive and
    finite, and WeightOverflow if a state is not finite.
    """
    if any(f.grid != V.grid for f in functions):
        raise ValueError("potential and initial condition on different grids")
    if eigenpair is None:
        c = max(float(np.max(V.values)), 0.0)
        op = build_generator(V - c)
    else:
        c, op = 0.0, doob_generator(eigenpair, V)
    out = {}
    for t in sorted(set(horizons)):
        if not 0.0 < t < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {t}")
        gamma = t / 10.0
        lu = _CyclicLU(op.shifted(1.0, -gamma))
        with np.errstate(over="ignore", invalid="ignore"):
            us = [_krylov_exp(lambda v: v + lu.solve(gamma * op.apply(v)),
                              f.values, t, gamma, c) for f in functions]
        if not all(np.isfinite(u).all() for u in us):
            raise WeightOverflow(f"the propagated state at t={t} is not finite "
                                 f"(exp overflows above 709.78)")
        out[t] = [GridFunction(V.grid, u) for u in us]
    return out


def propagate_pde(V: GridFunction, f: GridFunction, cfg: PropagatorConfig,
                  eigenpair: EigenSolution | None = None) -> GridFunction:
    """propagate_pde_many of the one function f at the one horizon cfg.t; kept
    for perfbench until ROADMAP item 17 (call propagate_pde_many instead)."""
    return propagate_pde_many(V, [f], [cfg.t], eigenpair)[cfg.t][0]


def propagate_mc(V: GridFunction, f: GridFunction, x: float, cfg: McConfig,
                 t: float) -> tuple[float, float]:
    """Monte-Carlo estimate of the weighted semigroup at one point.

    Runs driftless Euler paths from x, weighs each by the exponential of the
    left-endpoint Riemann sum of V along it, and averages the weighted
    terminal values of f.  Returns the sample mean and its standard error;
    raises WeightOverflow if either is not finite.
    """
    if V.grid != f.grid:
        raise ValueError("potential and test function on different grids")
    ens = simulate_paths(V.grid, None, x, t, cfg, potential=V,
                         record_stride=None)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.exp(ens.potential_integrals)
        estimate, std_error = mean_and_se(weights * f.interp(ens.positions[:, -1]))
    if not (isfinite(estimate) and isfinite(std_error)):
        raise WeightOverflow(
            f"estimate {estimate}, standard error {std_error}; the largest "
            f"potential integral is {ens.potential_integrals.max():.6g} (exp "
            f"overflows above 709.78)")
    return estimate, std_error


def check_selfadjoint(V: GridFunction, f: GridFunction, g: GridFunction,
                      t: float) -> float:
    """|<P_t f, g> - <f, P_t g>| for the flat measure, via the PDE route."""
    pf, pg = propagate_pde_many(V, [f, g], [t])[t]
    return abs(integrate(pf * g) - integrate(f * pg))
