"""Normalized Markov semigroup, its diffusion realization and path reweighting.

Dividing the weighted heat semigroup by its principal eigenpair yields a
stochastic semigroup fixing constants; its generator is a Brownian motion
with drift equal to the log-gradient of the eigenfunction.  This module
applies that semigroup through feynman_kac.propagate_pde given the
eigenpair, which runs its shift-invert Krylov kernel on the Doob generator
diag(1/F) (A - lambda I) diag(F) (no division by F after the fact), realizes
the process by Euler simulation, checks invariance of the
eigen-density, and computes the two Radon-Nikodym path weights (eigen form
and generic drift-potential form) whose path-wise agreement is the discrete
version of the coboundary identity.  The drift-potential form reads a
recorded ensemble one block of paths at a time, so weighting it holds about
one block beside the ensemble rather than a copy of it.
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
    "drift_weight_integrand",
    "rn_weights",
    "rn_weights_admissible",
    "histogram_density",
    "bin_density",
    "tv_distance",
]


def normalized_semigroup(solution: EigenSolution, V: GridFunction,
                         f: GridFunction, t: float, dt: float) -> GridFunction:
    """Doob-normalized semigroup exp(t L) f, L = doob_generator(solution, V).

    propagate_pde given the eigenpair, exact in time: the route does not
    read dt, and t need not be a whole number of dt steps (only
    PropagatorConfig.n_steps applies that rule).
    """
    return propagate_pde(V, f, PropagatorConfig(t=t, dt=dt), eigenpair=solution)


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
    """Euler-Maruyama ensemble for dX = drift(X) dt + dW on the circle; kept for
    perfbench until ROADMAP item 17 (call mc.simulate_paths instead)."""
    return simulate_paths(drift.grid, drift, start, T, cfg,
                          potential=potential, record_stride=record_stride)


def drift_weight_integrand(g: GridFunction) -> GridFunction:
    """Drift-potential weight rate (g'' + (g')^2)/2, in generator form.

    Computed as laplacian_half(grid).apply(e^g) / e^g, applying the
    second-difference stencil the generator matrix is built from, so that
    for g = log F the rate equals lambda - V at the eigenpair-residual level,
    node by node.
    """
    eg = np.exp(g.values)
    if not np.all(np.isfinite(eg)):
        raise ValueError("exp(g) overflows; rescale the drift potential")
    return GridFunction(g.grid, laplacian_half(g.grid).apply(eg) / eg)


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
    (record_stride == 1).  The recorded steps are read one block of
    max(1, grid._BLOCK_POINTS // n_steps) paths at a time, each block's row
    sums written into one array of n_paths integrals, so the read holds
    about one block (512 KiB of points and the lookup's temporaries) beside
    the ensemble, whatever its size.  A row's sum does not depend on the
    rows read with it, so the weights have the bits of one read of the
    whole ensemble.
    """
    if ens.record_stride != 1:
        raise ValueError("admissible weights need record_stride=1 ensembles")
    from .grid import _BLOCK_POINTS  # looked up per call, as the reader does

    rate = drift_weight_integrand(g)
    rows = max(1, _BLOCK_POINTS // ens.n_steps)
    integral = np.empty(ens.n_paths)
    for lo in range(0, ens.n_paths, rows):
        integral[lo:lo + rows] = rate.interp(ens.positions[lo:lo + rows, :-1]).sum(axis=1)
    integral *= ens.dt
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
