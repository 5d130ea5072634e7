"""Weighted heat semigroup: deterministic propagation and path-integral sampling.

The semigroup applies exp(t(D/2 + V)) to a function.  Two independent routes
are provided: Crank-Nicolson time stepping of the sparse generator matrix,
whose implicit matrix is factored once by a sparse LU so that each step costs
O(n), and a Monte-Carlo average of exp(integral of V along a Brownian path)
times the terminal value.  Their agreement (and the self-adjointness of the
propagator for the flat measure) is what the verification suite leans on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grid import GridFunction, integrate
from .mc import McConfig, mean_and_se, simulate_paths, step_count
from .spectral import build_generator

__all__ = ["PropagatorConfig", "propagate_pde", "propagate_mc", "check_selfadjoint"]


@dataclass(frozen=True)
class PropagatorConfig:
    """Horizon and step size for Crank-Nicolson propagation."""

    t: float
    dt: float

    def __post_init__(self) -> None:
        if not self.t > 0:
            raise ValueError(f"horizon must be positive, got {self.t}")
        if not 0 < self.dt <= self.t:
            raise ValueError(f"need 0 < dt <= t, got dt={self.dt}, t={self.t}")
        step_count(self.t, self.dt)

    @property
    def n_steps(self) -> int:
        return step_count(self.t, self.dt)


def propagate_pde(V: GridFunction, f: GridFunction,
                  cfg: PropagatorConfig) -> GridFunction:
    """Crank-Nicolson solution of u' = (D/2 + V) u at time t, from u(0) = f.

    The implicit matrix I - (dt/2) A is nonsingular as long as dt stays below
    2 / max(V) (the Laplacian part only pushes eigenvalues down), which is
    enforced up front.
    """
    if V.grid != f.grid:
        raise ValueError("potential and initial condition on different grids")
    vmax = float(np.max(V.values))
    if vmax > 0 and cfg.dt >= 2.0 / vmax:
        raise ValueError(
            f"dt={cfg.dt} reaches the implicit-solve cap 2/max(V)={2.0 / vmax:.3g}"
        )
    A = build_generator(V).matrix
    n = V.grid.n
    lu = splu((sp.eye_array(n) - 0.5 * cfg.dt * A).tocsc())
    u = f.values.copy()
    # Increment form of the same scheme: solving for the update keeps states
    # the generator annihilates (constants for V = 0) fixed to the last bit.
    for _ in range(cfg.n_steps):
        u += lu.solve(cfg.dt * (A @ u))
    return GridFunction(f.grid, u)


def propagate_mc(V: GridFunction, f: GridFunction, x: float, cfg: McConfig,
                 t: float) -> tuple[float, float]:
    """Monte-Carlo estimate of the weighted semigroup at one point.

    Runs driftless Euler paths from x, weighs each by the exponential of the
    left-endpoint Riemann sum of V along it, and averages the weighted
    terminal values of f.  Returns the sample mean and its standard error.
    """
    if V.grid != f.grid:
        raise ValueError("potential and test function on different grids")
    ens = simulate_paths(V.grid, None, x, t, cfg, potential=V,
                         record_stride=None)
    weights = np.exp(ens.potential_integrals)
    return mean_and_se(weights * f.interp(ens.positions[:, -1]))


def check_selfadjoint(V: GridFunction, f: GridFunction, g: GridFunction,
                      t: float, dt: float) -> float:
    """|<P_t f, g> - <f, P_t g>| for the flat measure, via the PDE route."""
    cfg = PropagatorConfig(t=t, dt=dt)
    left = integrate(propagate_pde(V, f, cfg) * g)
    right = integrate(f * propagate_pde(V, g, cfg))
    return abs(left - right)
