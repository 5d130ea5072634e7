"""Normalized Markov semigroup, its diffusion realization and path reweighting.

Dividing the weighted heat semigroup by its principal eigenpair yields a
stochastic semigroup fixing constants; its generator is a Brownian motion
with drift equal to the log-gradient of the eigenfunction.  This module
realizes that process by Euler simulation, checks invariance of the
eigen-density, and computes the two Radon-Nikodym path weights (eigen form
and generic drift-potential form) whose path-wise agreement is the discrete
version of the coboundary identity.
"""

from __future__ import annotations

import numpy as np

from .feynman_kac import PropagatorConfig, propagate_pde
from .grid import GridFunction, derivative, integrate
from .mc import McConfig, PathEnsemble, simulate_paths
from .spectral import EigenSolution, gibbs_density, laplacian_half

__all__ = [
    "normalized_semigroup",
    "generator_apply",
    "invariance_residual",
    "simulate_sde",
    "drift_weight_integrand",
    "rn_weights",
    "rn_weights_admissible",
    "histogram_density",
    "bin_density",
    "tv_distance",
]


def normalized_semigroup(solution: EigenSolution, V: GridFunction,
                         f: GridFunction, t: float, dt: float) -> GridFunction:
    """Doob-normalized semigroup: P_t(F f) / (e^{lambda t} F), node-wise."""
    F = solution.eigenfunction
    cfg = PropagatorConfig(t=t, dt=dt)
    num = propagate_pde(V, F * f, cfg)
    vals = num.values / (np.exp(solution.eigenvalue * t) * F.values)
    return GridFunction(f.grid, vals)


def generator_apply(solution: EigenSolution, f: GridFunction) -> GridFunction:
    """Generator of the normalized process: f''/2 + (log F)' f'."""
    return derivative(f, 2) * 0.5 + solution.drift * derivative(f, 1)


def invariance_residual(solution: EigenSolution, f: GridFunction) -> float:
    """|integral of (generator f) against the invariant density|."""
    return abs(integrate(generator_apply(solution, f) * gibbs_density(solution)))


def simulate_sde(
    drift: GridFunction,
    start: float | GridFunction,
    T: float,
    cfg: McConfig,
    potential: GridFunction | None = None,
    record_stride: int | None = 1,
) -> PathEnsemble:
    """Euler-Maruyama ensemble for dX = drift(X) dt + dW on the circle."""
    return simulate_paths(drift.grid, drift, start, T, cfg,
                          potential=potential, record_stride=record_stride)


def drift_weight_integrand(g: GridFunction) -> GridFunction:
    """Drift-potential weight rate (g'' + (g')^2)/2, in generator form.

    Computed as (laplacian_half @ e^g) / e^g, applying the sparse
    second-difference stencil the generator matrix is built from, so that
    for g = log F the rate equals lambda - V at the eigenpair-residual level,
    node by node.
    """
    eg = np.exp(g.values)
    if not np.all(np.isfinite(eg)):
        raise ValueError("exp(g) overflows; rescale the drift potential")
    return GridFunction(g.grid, (laplacian_half(g.grid) @ eg) / eg)


def _require_v_integrals(ens: PathEnsemble) -> np.ndarray:
    if ens.potential_integrals is None:
        raise ValueError("ensemble was simulated without a designated potential")
    return ens.potential_integrals


def rn_weights(ens: PathEnsemble, solution: EigenSolution) -> np.ndarray:
    """Eigen-form path weights for a whole ensemble, vectorized.

    exp(log F(end) - log F(start) - (lambda t - integral of V)) at the
    ensemble's horizon t, using its stored potential integrals (the
    designated function must be the potential the eigenpair was solved for).
    """
    vint = _require_v_integrals(ens)
    log_f = GridFunction(solution.eigenfunction.grid,
                         np.log(solution.eigenfunction.values))
    start, end = log_f.interp(ens.positions[:, [0, -1]]).T
    return np.exp(end - start - (solution.eigenvalue * ens.horizon - vint))


def rn_weights_admissible(ens: PathEnsemble, g: GridFunction) -> np.ndarray:
    """Drift-potential path weights exp(g(end) - g(start) - int rate), vectorized.

    The rate (g'' + (g')^2)/2 is integrated by the same left-endpoint rule
    the simulation uses, which requires every step to be recorded
    (record_stride == 1).
    """
    if ens.record_stride != 1:
        raise ValueError("admissible weights need record_stride=1 ensembles")
    rate = drift_weight_integrand(g)
    integral = rate.interp(ens.positions[:, :-1]).sum(axis=1) * ens.dt
    start, end = g.interp(ens.positions[:, [0, -1]]).T
    return np.exp(end - start - integral)


def histogram_density(samples: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equal-bin histogram on [0,1): returns bin lefts, counts, density."""
    counts, edges = np.histogram(samples, bins=bins, range=(0.0, 1.0))
    width = 1.0 / bins
    density = counts / (samples.size * width)
    return edges[:-1], counts, density


def bin_density(density: GridFunction, bins: int) -> np.ndarray:
    """Bin probabilities of a grid density on equal bins (rectangle rule)."""
    n = density.grid.n
    if n % bins != 0:
        raise ValueError(f"bins={bins} must divide the grid size {n}")
    mass = density.values.reshape(bins, n // bins).sum(axis=1) * density.grid.h
    return mass / mass.sum()


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two probability vectors."""
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))
