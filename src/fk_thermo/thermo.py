"""Relative entropy, pressure and the variational principle for drift diffusions.

A drift diffusion is represented by its drift potential g: the process has
drift g', invariant density proportional to e^{2g}, and relative entropy rate
(with respect to the driftless walk) equal to the invariant average of
(g'' + (g')^2)/2, which the integrated-by-parts form shows is never positive.
Adding the mean of the potential V gives the pressure functional; its supremum
over drift potentials equals the principal eigenvalue, attained at the
log-eigenfunction.

The exact discrete decomposition  eigenvalue = pressure + gap  requires the
reference drift to be differentiation-consistent with the quadrature chain
used here (Fourier derivatives and the rectangle rule).  The second-difference
eigenpair is not: its eigenvalue sits O(h^2) above the Fourier-consistent one,
and that offset is exactly the defect the decomposition would inherit.  The
reference drift therefore solves the eigen-equation in log form, the Riccati
equation g''/2 + g'^2/2 + V = lambda, with these same derivatives; its
pressure is lambda to roundoff.  The identity check brackets the offset
between the two eigenvalues by the min-max theorem, at a roundoff tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .grid import (GridFunction, HarmonicSpec, _derivative_values, derivative,
                   integrate)
from .mc import McConfig, mean_and_se, simulate_paths
from .spectral import (EigenSolution, NonConvergence, NumericalFailure, _CyclicLU,
                       doob_generator, roundoff_bound, stencil_excess)

__all__ = [
    "AdmissibleDrift",
    "DecompositionMismatch",
    "EntropyMismatch",
    "MaximizeResult",
    "admissible_from_values",
    "admissible_from_eigen",
    "carre_du_champ",
    "relative_entropy",
    "entropy_finite_T_mc",
    "pressure_value",
    "pressure_decomposition",
    "pressure_gap",
    "entropy_report",
    "maximize_pressure",
]


class EntropyMismatch(NumericalFailure):
    """The two discrete entropy forms disagree; differentiation or quadrature broke."""


class DecompositionMismatch(NumericalFailure):
    """eigenvalue - pressure - quadratic gap leaves the bracket of the offset.

    The potential passed does not belong to the eigenpair, or differentiation
    or quadrature broke.
    """


@dataclass(frozen=True)
class AdmissibleDrift:
    """Drift diffusion described by its potential g and derived fields.

    potential   g itself (defined up to an additive constant)
    drift       g', the drift field of the process
    curvature   g'', differentiated consistently with drift
    density     invariant probability density e^{2g} / integral of e^{2g};
                nonnegative, zero where e^{2(g - max g)} underflows
    """

    potential: GridFunction
    drift: GridFunction
    curvature: GridFunction
    density: GridFunction

    def __post_init__(self) -> None:
        rho = self.density.values
        if (rho < 0).any():
            raise ValueError("invariant density must be nonnegative")
        total = float(self.density.grid.h * rho.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"invariant density integrates to {total}, not 1")

    @cached_property
    def excess(self) -> float:
        """stencil_excess of e^g: the low end of pressure_decomposition's bracket."""
        return stencil_excess(self.density.grid, np.sqrt(self.density.values))


# Caps of the companion solve: Newton steps, and GMRES restart cycles per
# step of _RESTART Krylov vectors (n + 1 doubles each).
_NEWTON_STEPS, _GMRES_CYCLES, _RESTART = 20, 3, 20


def admissible_from_values(g: GridFunction) -> AdmissibleDrift:
    """Build the drift representation from sampled g via Fourier derivatives.

    e^{2g} is formed as e^{2(g - max g)}, in [0, 1], so no span of g
    overflows; nodes far below the maximum underflow to zero mass.
    """
    grid, vals = g.grid, g.values
    drift = _derivative_values(vals, 1)
    curvature = _derivative_values(drift, 1)
    weights = np.exp(2.0 * (vals - vals.max()))
    mass = grid.h * float(weights.sum())
    return AdmissibleDrift(potential=g, drift=GridFunction(grid, drift),
                           curvature=GridFunction(grid, curvature),
                           density=GridFunction(grid, weights / mass))


def _basin_peaks(F: np.ndarray) -> list:
    """Nodes where F peaks in its basins: in each of up to 16 arcs of at
    least 8 nodes, the largest F, kept where it is a local maximum of F.

    The Doob process drifts up F, so with a Schur cut at each peak every
    basin's escape time to a cut is short.  A deep basin left without one (a
    symmetric double well) would leave the factored block as nearly singular
    as the spectral gap, and the solves inconsistent enough to stall GMRES.
    """
    arcs = np.array_split(np.arange(F.size), max(1, min(16, F.size // 8)))
    peaks = [arc[np.argmax(F[arc])] for arc in arcs]
    return [i for i in peaks if F[i] >= max(F[i - 1], F[(i + 1) % F.size])]


def admissible_from_eigen(solution: EigenSolution,
                          V: GridFunction) -> AdmissibleDrift:
    """Drift representation of the eigen-process, differentiation-consistent.

    V is the potential the eigenpair was solved for.  Newton's method solves
    R = D(Dg)/2 + (Dg)^2/2 + V - lam = 0, mean(g) = 0, from g = log F and the
    eigenvalue, with the derivative D of admissible_from_values, so the
    drift's pressure is lam to roundoff; R drops the Nyquist mode D(D .)
    lacks.  Each step runs GMRES on the Jacobian D^2/2 + g' D bordered by
    the constraint, preconditioned by the O(n) _CyclicLU of doob_generator
    bordered by the -1 column and the h row of the constraint and cut at the
    peaks of F.  Raises NonConvergence if max|R| > roundoff_bound(n)
    max(1, |lam|) once it fails to halve.
    """
    grid, lam = V.grid, solution.eigenvalue
    n = grid.n
    lu = _CyclicLU(doob_generator(solution, V), border=(-np.ones(n), np.full(n, grid.h)),
                   cuts=_basin_peaks(solution.eigenfunction.values))
    # The bordered Jacobian at the current iterate, whose drift the loop sets.
    system = LinearOperator((n + 1, n + 1), lambda z: np.append(
        0.5 * _derivative_values(z[:n], 2) - z[n]
        + drift * _derivative_values(z[:n], 1), grid.h * z[:n].sum()), dtype=float)
    inverse = LinearOperator((n + 1, n + 1), lu.solve, dtype=float)
    g = np.log(solution.eigenfunction.values)
    g, best = g - g.mean(), (np.inf, None, lam)
    for _ in range(_NEWTON_STEPS):
        drift = _derivative_values(g, 1)
        r = 0.5 * (_derivative_values(drift, 1) + drift * drift) + V.values - lam
        r = np.fft.irfft(np.fft.rfft(r)[: n // 2], n)  # the Nyquist bin dropped
        size = float(np.max(np.abs(r)))
        halved = size < 0.5 * best[0]
        best = min(best, (size, g, lam), key=lambda b: b[0])
        if not halved:
            break
        step, _ = gmres(system, np.append(-r, 0.0), rtol=1e-6, M=inverse,
                        restart=_RESTART, maxiter=_GMRES_CYCLES)
        g, lam = g + step[:n], lam + step[n]
    size, g, lam = best
    bound = roundoff_bound(n) * max(1.0, abs(lam))
    if not size <= bound:
        raise NonConvergence(f"companion residual {size:.3e} exceeds {bound:.3e}")
    return admissible_from_values(GridFunction(grid, g))


def carre_du_champ(f: GridFunction, g: GridFunction) -> GridFunction:
    """Squared-gradient bilinear form of the half-Laplacian: f' g' pointwise."""
    return derivative(f, 1) * derivative(g, 1)


def relative_entropy(ad: AdmissibleDrift) -> float:
    """Entropy rate of the drift process relative to the driftless walk.

    Returns the invariant average of (g'' + (g')^2)/2 and cross-checks it
    against the integrated-by-parts form -(1/2) average of (g')^2; the two
    agree on the circle, so a mismatch indicates broken differentiation or
    quadrature rather than a property of the input.
    """
    h = ad.density.grid.h
    drift, rho = ad.drift.values, ad.density.values
    # A drift that overflows its square makes the forms inf or NaN (inf * 0
    # where rho underflows), which fails the cross-check.
    with np.errstate(over="ignore", invalid="ignore"):
        square = drift * drift
        direct = 0.5 * float(h * ((ad.curvature.values + square) * rho).sum())
        by_parts = -0.5 * float(h * (square * rho).sum())
    if not abs(direct - by_parts) <= 1e-9:
        raise EntropyMismatch(
            f"entropy forms disagree by {abs(direct - by_parts):.3e}"
        )
    return direct


def entropy_finite_T_mc(ad: AdmissibleDrift, T: float,
                        cfg: McConfig) -> tuple[float, float]:
    """Finite-horizon Monte-Carlo entropy rate estimate.

    Simulates the drift process from its invariant density, evaluates per
    path minus the log of the drift-potential weight, and divides the mean
    by the horizon.  Returns the estimate and its standard error.
    """
    if T < 1.0:
        raise ValueError(f"horizon must be at least 1, got {T}")
    rate = (ad.curvature + ad.drift * ad.drift) * 0.5
    ens = simulate_paths(ad.potential.grid, ad.drift, ad.density, T, cfg,
                         potential=rate, record_stride=None)
    g_start, g_end = ad.potential.interp(ens.positions[:, [0, -1]]).T
    mean, std_error = mean_and_se(-(g_end - g_start - ens.potential_integrals))
    return mean / T, std_error / T


def pressure_value(ad: AdmissibleDrift, V: GridFunction) -> float:
    """Pressure functional: entropy rate plus invariant mean of the potential."""
    mean_potential = float(V.grid.h * (V.values * ad.density.values).sum())
    return relative_entropy(ad) + mean_potential


def pressure_decomposition(
    ads: list[AdmissibleDrift],
    reference: AdmissibleDrift,
    V: GridFunction,
    solution: EigenSolution,
) -> tuple[list[float], list[float], float]:
    """Check lambda - P(g) = 1/2 int (g*' - g')^2 mu_g + offset for each drift in ads.

    By min-max, the offset lambda - P(g*) between the stencil and Fourier
    eigenvalues lies in [stencil_excess(e^{g*}), stencil_excess(F)], with
    e^{g*} proportional to sqrt(reference.density).  Returns (gaps,
    residuals, tolerance): the quadratic gap of each drift, how far
    lambda - P(g) - gap falls outside that interval (0 inside), and
    roundoff_bound(n) max(1, |P(g*)|), which does not depend on lambda.
    """
    grid = V.grid
    low, high = reference.excess, solution.excess
    tolerance = roundoff_bound(grid.n) * max(1.0, abs(pressure_value(reference, V)))
    gaps, residuals = [], []
    for ad in ads:
        diff = reference.drift.values - ad.drift.values
        gap = 0.5 * float(grid.h * (diff * diff * ad.density.values).sum())
        offset = solution.eigenvalue - pressure_value(ad, V) - gap
        gaps.append(gap)
        # np.max, unlike max, keeps a NaN offset as a NaN residual.
        residuals.append(float(np.max([0.0, low - offset, offset - high])))
    return gaps, residuals, tolerance


def pressure_gap(ad: AdmissibleDrift, solution: EigenSolution,
                 reference: AdmissibleDrift, V: GridFunction) -> float:
    """Quadratic deficit between the eigenvalue and the pressure at ad.

    Computes the invariant average of (reference drift - drift)^2 / 2 and
    verifies that it reproduces eigenvalue - pressure up to the offset that
    pressure_decomposition brackets, raising DecompositionMismatch otherwise.
    V is the potential the eigenpair was solved for and reference is
    admissible_from_eigen(solution, V), built once and shared across calls.
    """
    (gap,), (mismatch,), tolerance = pressure_decomposition(
        [ad], reference, V, solution)
    if not mismatch <= tolerance:
        raise DecompositionMismatch(
            f"pressure decomposition off by {mismatch:.3e} "
            f"(allowed {tolerance:.3e})"
        )
    return gap


def entropy_report(ad: AdmissibleDrift, V: GridFunction,
                   solution: EigenSolution) -> dict:
    """The entropy.json fields of one drift process against the eigenvalue.

    gap is lambda - pressure; the independent quadrature for it lives in
    pressure_gap.  A positive entropy rate raises EntropyMismatch, and a
    pressure above the eigenvalue raises DecompositionMismatch.
    """
    entropy = relative_entropy(ad)
    mean_potential = integrate(V * ad.density)
    pressure = entropy + mean_potential
    gap = solution.eigenvalue - pressure
    if not entropy <= 1e-10:
        raise EntropyMismatch(f"entropy rate must be <= 0, got {entropy}")
    if not -1e-8 <= gap:
        raise DecompositionMismatch(f"pressure exceeds the eigenvalue by {-gap:.3e}")
    return {"entropy": entropy, "mean_potential": mean_potential,
            "pressure": pressure, "gap": gap, "lambda": solution.eigenvalue}


@dataclass(frozen=True)
class MaximizeResult:
    """Outcome of maximize_pressure.

    grad_norm is the coefficient gradient's norm at the returned spec, and
    stop says why the ascent ended: "gradient" when that norm fell below
    1e-8, "flat" when no step could rise above the pressure's roundoff,
    "budget" when the iterations ran out with the trace settled.
    """

    spec: HarmonicSpec
    value: float
    trace: tuple  # rows (iteration, value, grad_norm)
    grad_norm: float
    stop: str


def _pressure_variation(ad: AdmissibleDrift, V: GridFunction,
                        value: float) -> np.ndarray:
    """Nodal gradient w of pressure_value at ad: dP = sum_i w_i dg_i.

    The pressure is sum a mu with a = V + (g'' + g'^2)/2 and the cell
    masses mu = density h.  Varying g moves mu by 2 mu (dg - sum mu dg) and
    a by D(D dg)/2 + g' D dg, where D is the first Fourier derivative; D is
    exactly skew-symmetric, so moving it across the sum gives
    w = D(D(mu/2)) - D(mu g') + 2 mu (a - P).
    """
    drift = ad.drift.values
    mu = ad.density.values * V.grid.h
    a = V.values + (ad.curvature.values + drift * drift) * 0.5
    return (_derivative_values(_derivative_values(mu * 0.5, 1), 1)
            - _derivative_values(mu * drift, 1) + mu * (a - value) * 2.0)


def maximize_pressure(V: GridFunction, K: int, lr: float,
                      iters: int) -> MaximizeResult:
    """Quasi-Newton (BFGS) ascent of the pressure over harmonic drift potentials.

    The drift potential is parameterized by the 2K Fourier coefficients of
    its first K harmonics (the constant mode drops out of every functional).
    Each candidate costs one pressure evaluation; the exact discrete
    gradient (_pressure_variation projected on the basis) is then taken
    from the same drift representation for the start and for each accepted
    candidate only, so the ascent follows the derivative of the very
    function it climbs.  The search direction is H grad, where H is the
    BFGS inverse-Hessian estimate (Nocedal & Wright, Numerical
    Optimization, ch. 6): lr I for the first step, then rescaled to
    (s.y / y.y) I before the first update (Shanno-Phua), and not updated
    when s.y <= 0.  Backtracking from the unit step takes the maximizer of
    the quadratic through the value and slope at the start and the value at
    the rejected step, kept within [0.1, 0.5] of that step, until the rise
    meets the Armijo condition; the value trace therefore never decreases.
    A candidate whose e^{2g} the grid does not resolve, so that
    pressure_value raises EntropyMismatch, is rejected the same way, with
    value -inf.

    Stops when the gradient norm falls below 1e-8 ("gradient"), when the
    predicted rise step * slope falls to 4 eps max(1, |P|) before a
    candidate is accepted, so no rise is possible at roundoff ("flat"), or
    after iters iterations ("budget").  A budget stop raises NonConvergence
    if the trace is still moving with a non-negligible gradient.  The trace
    has one row per accepted step.
    """
    grid = V.grid
    if K < 1 or K > grid.n // 4:
        raise ValueError(f"need 1 <= K <= n/4 = {grid.n // 4}, got {K}")
    if not lr > 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if iters < 1:
        raise ValueError(f"iteration budget must be >= 1, got {iters}")

    x = grid.nodes
    basis = np.empty((2 * K, grid.n))
    for k in range(1, K + 1):
        basis[k - 1] = np.cos(2 * np.pi * k * x)
        basis[K + k - 1] = np.sin(2 * np.pi * k * x)

    def point(theta: np.ndarray) -> tuple[AdmissibleDrift | None, float]:
        ad = admissible_from_values(GridFunction(grid, theta @ basis))
        try:
            return ad, pressure_value(ad, V)
        except EntropyMismatch:
            return None, -np.inf  # rejected, so the line search shrinks the step

    def gradient(ad: AdmissibleDrift, value: float) -> np.ndarray:
        return basis @ _pressure_variation(ad, V, value)

    theta = np.zeros(2 * K)
    ad, current = point(theta)
    grad = gradient(ad, current)
    gnorm = float(np.linalg.norm(grad))
    trace: list[tuple[int, float, float]] = [(0, current, gnorm)]
    inverse = None  # lr I until the first update
    stop = "budget"

    for it in range(1, iters + 1):
        if gnorm < 1e-8:
            break
        direction = lr * grad if inverse is None else inverse @ grad
        slope = float(grad @ direction)
        roundoff = 4.0 * np.finfo(float).eps * max(1.0, abs(current))
        step = 1.0
        while step * slope > roundoff:
            candidate = theta + step * direction
            ad, value = point(candidate)
            rise = value - current
            if rise >= 1e-4 * step * slope:
                break
            peak = 0.5 * slope * step * step / (slope * step - rise)
            step = min(max(peak, 0.1 * step), 0.5 * step)
        else:
            stop = "flat"
            break
        new_grad = gradient(ad, value)
        s, y = candidate - theta, grad - new_grad
        sy = float(s @ y)
        if sy > 0:
            if inverse is None:
                inverse = sy / float(y @ y) * np.eye(2 * K)
            left = np.eye(2 * K) - np.outer(s, y) / sy
            inverse = left @ inverse @ left.T + np.outer(s, s) / sy
        theta, current, grad = candidate, value, new_grad
        gnorm = float(np.linalg.norm(grad))
        trace.append((it, current, gnorm))
    if gnorm < 1e-8:
        stop = "gradient"

    values_tail = [v for _, v, _ in trace[-10:]]
    if (stop == "budget" and gnorm >= 1e-6
            and max(values_tail) - min(values_tail) > 1e-6):
        raise NonConvergence(
            f"ascent still moving after {iters} iterations "
            f"(gradient norm {gnorm:.3e})"
        )

    harmonics = tuple(
        (k, float(theta[k - 1]), float(theta[K + k - 1])) for k in range(1, K + 1)
    )
    return MaximizeResult(
        spec=HarmonicSpec(constant=0.0, harmonics=harmonics),
        value=current,
        trace=tuple(trace),
        grad_norm=gnorm,
        stop=stop,
    )
