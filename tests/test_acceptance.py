"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance below is pinned; the runtime budgets are asserted as part of
the criteria.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines as they complete.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from fk_thermo import (GridFunction, HarmonicSpec, McConfig,
                       admissible_from_eigen, admissible_from_values,
                       build_generator, carre_du_champ,
                       check_selfadjoint, critical_point_count, derivative,
                       entropy_finite_T_mc, gibbs_density, integrate,
                       make_grid, maximize_pressure, normalized_semigroup,
                       pressure_gap, pressure_value, principal_eigenpair,
                       propagate_mc, relative_entropy,
                       rn_weights, rn_weights_admissible,
                       tv_distance)
from fk_thermo.feynman_kac import PropagatorConfig, propagate_pde
from fk_thermo.gibbs import bin_density, histogram_density, simulate_sde

from conftest import random_harmonic
from oracles import richardson_eigenvalue


@contextmanager
def criterion(number: int, budget: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number:2d}] FAIL  ({elapsed:6.1f}s)  {description}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}  "
          f"({elapsed:6.1f}s < {budget:.0f}s)  {description}")
    assert ok, f"runtime {elapsed:.1f}s exceeds the {budget:.0f}s budget"


def zero_fn(grid):
    return GridFunction(grid, np.zeros(grid.n))


def test_criterion_01_free_case():
    with criterion(1, 5.0, "free potential: flat eigenpair, zero entropy/pressure"):
        grid = make_grid(512)
        V = zero_fn(grid)
        sol = principal_eigenpair(build_generator(V))
        assert abs(sol.eigenvalue) <= 1e-10
        assert np.max(np.abs(sol.eigenfunction.values - 1.0)) <= 1e-9
        assert np.max(np.abs(gibbs_density(sol).values - 1.0)) <= 1e-9
        assert np.max(np.abs(sol.drift.values)) <= 1e-9
        ad = admissible_from_eigen(sol, V)
        assert abs(relative_entropy(ad)) <= 1e-10
        assert abs(pressure_value(ad, V)) <= 1e-10


def test_criterion_02_shift_law(vcos512, eig_cos512):
    with criterion(2, 10.0, "eigenvalue shift covariance for c in {-1, 0.5, 3}"):
        for c in (-1.0, 0.5, 3.0):
            shifted = principal_eigenpair(build_generator(vcos512 + c))
            assert abs(shifted.eigenvalue - eig_cos512.eigenvalue - c) <= 1e-9
            diff = shifted.eigenfunction.values - eig_cos512.eigenfunction.values
            assert np.max(np.abs(diff)) <= 1e-9


def test_criterion_03_eigen_identity_propagation(vcos512, eig_cos512):
    with criterion(3, 10.0, "propagating the eigenfunction scales it by exp(lambda t)"):
        u = propagate_pde(vcos512, eig_cos512.eigenfunction,
                          PropagatorConfig(t=0.5, dt=1e-3))
        target = np.exp(0.5 * eig_cos512.eigenvalue) * eig_cos512.eigenfunction.values
        assert np.max(np.abs(u.values - target) / np.abs(target)) <= 1e-6


def test_criterion_04_variational_principle():
    with criterion(4, 30.0, "pressure attains the eigenvalue; exact decomposition"):
        grid = make_grid(4096)
        specs = [
            HarmonicSpec(harmonics=[(1, 1.0, 0.0)]),
            HarmonicSpec(harmonics=[(1, 1.0, 0.0), (2, 0.0, 0.5)]),
        ]
        rng = np.random.default_rng(2024)
        for index, spec in enumerate(specs):
            V = spec.sample(grid)
            sol = principal_eigenpair(build_generator(V))
            reference = admissible_from_eigen(sol, V)
            assert abs(pressure_value(reference, V) - sol.eigenvalue) <= 1e-7
            for _ in range(50):
                ad = admissible_from_values(random_harmonic(grid, rng))
                gap = pressure_gap(ad, sol, reference=reference, V=V)
                assert gap >= 0.0
                residual = abs(sol.eigenvalue - pressure_value(ad, V) - gap)
                assert residual <= 1e-8
            if index == 0:
                # flat-drift identity: gap(0) equals eigenvalue - mean(V)
                flat = admissible_from_values(HarmonicSpec().sample(grid))
                gap0 = pressure_gap(flat, sol, reference=reference, V=V)
                assert abs(gap0 - (sol.eigenvalue - integrate(V))) <= 1e-8


def test_criterion_05_optimizer_recovery(vcos256, eig_cos256):
    with criterion(5, 120.0, "pressure ascent recovers the eigen-drift"):
        result = maximize_pressure(vcos256, K=8, lr=0.2, iters=2500)
        assert abs(result.value - eig_cos256.eigenvalue) <= 1e-5
        values = [row[1] for row in result.trace]
        assert all(b >= a for a, b in zip(values, values[1:]))
        recovered = derivative(result.spec.sample(vcos256.grid), 1)
        mu = gibbs_density(eig_cos256)
        diff = recovered - eig_cos256.drift
        l2 = np.sqrt(integrate(diff * diff * mu))
        assert l2 <= 1e-3


def test_criterion_06_feynman_kac_cross_validation(vcos512, eig_cos512):
    with criterion(6, 60.0, "Monte-Carlo path integral matches the PDE value"):
        grid = vcos512.grid
        f = HarmonicSpec(constant=1.0, harmonics=[(1, 0.0, 0.5)]).sample(grid)
        t, dt = 0.5, 1e-3
        cfg = McConfig(n_paths=100_000, dt=dt, seed=606)
        estimate, std_error = propagate_mc(vcos512, f, 0.25, cfg, t)
        pde = propagate_pde(vcos512, f, PropagatorConfig(t=t, dt=dt))
        assert abs(estimate - pde.interp(0.25)) <= 3 * std_error + 5e-3


def test_criterion_07_reversibility(vcos512):
    with criterion(7, 30.0, "propagator self-adjoint in the flat inner product"):
        rng = np.random.default_rng(707)
        for _ in range(10):
            f = random_harmonic(vcos512.grid, rng)
            g = random_harmonic(vcos512.grid, rng)
            for t in (0.1, 0.5):
                assert check_selfadjoint(vcos512, f, g, t) <= 1e-9


def test_criterion_08_gibbs_invariance(vcos512, eig_cos512):
    with criterion(8, 180.0, "eigen-drift diffusion preserves and visits the Gibbs law"):
        density = gibbs_density(eig_cos512)
        target = bin_density(density, 64)

        cfg = McConfig(n_paths=100_000, dt=1e-3, seed=808)
        ens = simulate_sde(eig_cos512.drift, density, 1.0, cfg, record_stride=None)
        _, counts, _ = histogram_density(ens.positions[:, -1], 64)
        assert tv_distance(counts / counts.sum(), target) <= 0.05

        single = McConfig(n_paths=1, dt=1e-3, seed=809)
        path = simulate_sde(eig_cos512.drift, density, 1000.0, single,
                            record_stride=1)
        occupation = path.positions[0, :-1]
        _, counts, _ = histogram_density(occupation, 64)
        assert tv_distance(counts / counts.sum(), target) <= 0.05


def test_criterion_09_rn_martingale_and_girsanov(vcos512, eig_cos512):
    with criterion(9, 120.0, "path weights: martingale mean, reweighting, identity"):
        grid = vcos512.grid
        t = 0.5

        dt = 5e-4
        cfg = McConfig(n_paths=100_000, dt=dt, seed=909)
        ens = simulate_sde(zero_fn(grid), 0.25, t, cfg, potential=vcos512,
                           record_stride=None)
        weights = rn_weights(ens, eig_cos512)
        se = weights.std(ddof=1) / np.sqrt(weights.size)
        assert abs(weights.mean() - 1.0) <= 3 * se + 5e-3

        f = HarmonicSpec(constant=1.0, harmonics=[(1, 0.0, 0.5)]).sample(grid)
        values = weights * f.interp(ens.positions[:, -1])
        se_f = values.std(ddof=1) / np.sqrt(values.size)
        target = normalized_semigroup(eig_cos512, vcos512, f, t, dt).interp(0.25)
        assert abs(values.mean() - target) <= 3 * se_f

        fine = McConfig(n_paths=20_000, dt=1e-3, seed=910)
        full = simulate_sde(zero_fn(grid), 0.25, t, fine, potential=vcos512,
                            record_stride=1)
        eigen_form = rn_weights(full, eig_cos512)
        log_f = GridFunction(grid, np.log(eig_cos512.eigenfunction.values))
        drift_form = rn_weights_admissible(full, log_f)
        assert np.max(np.abs(eigen_form / drift_form - 1.0)) <= 1e-9


def test_criterion_10_entropy(vcos512, eig_cos512):
    with criterion(10, 180.0, "entropy sign, dual forms, finite-horizon sampler"):
        grid = vcos512.grid
        rng = np.random.default_rng(1010)
        for _ in range(50):
            ad = admissible_from_values(random_harmonic(grid, rng))
            entropy = relative_entropy(ad)
            assert entropy <= 1e-10
            direct = 0.5 * integrate((ad.curvature + ad.drift * ad.drift) * ad.density)
            by_parts = -0.5 * integrate(ad.drift * ad.drift * ad.density)
            assert abs(direct - by_parts) <= 1e-9

        ad_eig = admissible_from_eigen(eig_cos512, vcos512)
        closed = relative_entropy(ad_eig)
        estimates = {}
        for T, seed in ((5.0, 111), (10.0, 112)):
            est, se = entropy_finite_T_mc(ad_eig, T,
                                          McConfig(n_paths=10_000, dt=1e-3,
                                                   seed=seed))
            assert abs(est - closed) <= 3 * se + 1e-2
            estimates[T] = (est, se)
        (e5, s5), (e10, s10) = estimates[5.0], estimates[10.0]
        assert abs(e5 - e10) <= 3 * np.hypot(s5, s10)


def test_criterion_11_convergence_order():
    with criterion(11, 30.0, "second-order eigenvalue convergence vs fine oracle"):
        target = richardson_eigenvalue("cos1")
        errors = []
        for n in (128, 256):
            grid = make_grid(n)
            V = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid)
            sol = principal_eigenpair(build_generator(V))
            errors.append(abs(sol.eigenvalue - target))
        assert errors[0] / errors[1] >= 3.5


def test_criterion_12_critical_points(eig_cos512):
    with criterion(12, 5.0, "eigenfunction oscillates no more than the potential allows"):
        assert critical_point_count(eig_cos512.eigenfunction) < 4
