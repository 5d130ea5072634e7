"""Weighted heat semigroup: deterministic propagation and path-integral sampling.

The semigroup applies exp(t(D/2 + V)) to a function.  Two independent routes
are provided: Crank-Nicolson time stepping of the sparse generator matrix, by
one kernel (propagate_pde_many: one sparse LU per (V, dt), every function and
horizon in one O(n)-per-step march), and a Monte-Carlo average of
exp(integral of V along a Brownian path) times the terminal value.  Their
agreement (and the self-adjointness of the propagator for the flat measure)
is what the verification suite leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, log1p

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grid import GridFunction, integrate
from .mc import McConfig, mean_and_se, simulate_paths, step_count
from .spectral import NumericalFailure, build_generator

__all__ = ["PropagatorConfig", "propagate_pde", "propagate_pde_many", "propagate_mc",
           "check_selfadjoint", "WeightOverflow"]


class WeightOverflow(NumericalFailure):
    """A Feynman-Kac weight overflowed: a Monte-Carlo estimate or its
    standard error, or a Crank-Nicolson state, is not finite."""


@dataclass(frozen=True)
class PropagatorConfig:
    """Horizon and step size for Crank-Nicolson propagation."""

    t: float
    dt: float

    def __post_init__(self) -> None:
        step_count(self.t, self.dt)

    @property
    def n_steps(self) -> int:
        return step_count(self.t, self.dt)


def propagate_pde_many(V: GridFunction, functions, horizons, dt: float) -> dict:
    """Crank-Nicolson u' = (D/2 + V) u from each function: {t: [u(t), ...]}.

    One LU of I - (dt/2) A and one march of the (n, m) stack serve every
    function and horizon (ascending), each column with the bits of its own
    run.  dt must stay below 2 / max(V), where I - (dt/2) A is nonsingular
    (the Laplacian part only pushes eigenvalues down).  Raises
    WeightOverflow if the state at a horizon is not finite.
    """
    steps = {t: PropagatorConfig(t=t, dt=dt).n_steps for t in sorted(horizons)}
    if any(f.grid != V.grid for f in functions):
        raise ValueError("potential and initial condition on different grids")
    vmax = float(np.max(V.values))
    if vmax > 0 and dt >= 2.0 / vmax:
        raise ValueError(f"dt={dt} reaches the implicit-solve cap "
                         f"2/max(V)={2.0 / vmax:.3g}")
    A = build_generator(V).matrix
    lu = splu((sp.eye_array(V.grid.n) - 0.5 * dt * A).tocsc())
    u = np.stack([f.values for f in functions], axis=1)
    out = {}
    # Increment form of the same scheme: solving for the update keeps states
    # the generator annihilates (constants for V = 0) fixed to the last bit.
    for (t, n_steps), done in zip(steps.items(), [0, *steps.values()]):
        for _ in range(n_steps - done):
            u += lu.solve(dt * (A @ u))
        if not np.isfinite(u).all():
            # a step multiplies a mode by (1 + dt mu/2) / (1 - dt mu/2) for
            # its eigenvalue mu <= max(V), so by at most exp(growth / n_steps)
            growth = n_steps * log1p(dt * max(vmax, 0.0) / (1 - 0.5 * dt * vmax))
            raise WeightOverflow(
                f"the Crank-Nicolson state at t={t} is not finite: {n_steps} "
                f"steps of dt={dt} grow it by up to exp({growth:.6g}), and exp "
                f"overflows above 709.78")
        out[t] = [GridFunction(V.grid, column) for column in u.T]
    return out


def propagate_pde(V: GridFunction, f: GridFunction,
                  cfg: PropagatorConfig) -> GridFunction:
    """Crank-Nicolson solution of u' = (D/2 + V) u at time t, from u(0) = f."""
    return propagate_pde_many(V, [f], [cfg.t], cfg.dt)[cfg.t][0]


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
            f"overflows above 709.78, its square above 354.89)")
    return estimate, std_error


def check_selfadjoint(V: GridFunction, f: GridFunction, g: GridFunction,
                      t: float, dt: float) -> float:
    """|<P_t f, g> - <f, P_t g>| for the flat measure, via the PDE route."""
    pf, pg = propagate_pde_many(V, [f, g], [t], dt)[t]
    return abs(integrate(pf * g) - integrate(f * pg))
