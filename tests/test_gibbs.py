import tracemalloc

import numpy as np
import pytest

import fk_thermo.grid
from fk_thermo import (EigenSolution, GridFunction, HarmonicSpec, McConfig,
                       build_generator, derivative, generator_apply,
                       gibbs_density, integrate, invariance_residual,
                       make_grid, normalized_semigroup, principal_eigenpair,
                       rn_weights, rn_weights_admissible,
                       tv_distance)
from fk_thermo.gibbs import (bin_density, drift_weight_integrand, histogram_density,
                             simulate_sde)
from fk_thermo.mc import PathEnsemble, sample_from_density, simulate_paths

from conftest import random_harmonic
from oracles import dense_semigroup, fd_operator


def zero_fn(grid):
    return GridFunction(grid, np.zeros(grid.n))


def ones_fn(grid):
    return GridFunction(grid, np.ones(grid.n))


def exact_free_solution(grid):
    """Hand-built eigen data for V = 0: eigenvalue 0, flat eigenfunction."""
    return EigenSolution(
        eigenvalue=0.0,
        eigenfunction=ones_fn(grid),
        normalization=1.0,
        drift=zero_fn(grid),
        spectral_gap=2 * np.pi**2,
        residual=0.0,
        residual_bound=1e-9,
        sweeps=1,
        min_F=1.0,
    )


class TestNormalizedSemigroup:
    def test_fixes_constants(self, vcos512, eig_cos512):
        grid = vcos512.grid
        for t in (0.1, 0.5, 1.0):
            out = normalized_semigroup(eig_cos512, vcos512, ones_fn(grid), t, 1e-3)
            assert np.max(np.abs(out.values - 1.0)) < 1e-8

    def test_free_case_heat_decay(self):
        grid = make_grid(1024)
        V = zero_fn(grid)
        sol = principal_eigenpair(build_generator(V))
        f = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid)
        t = 0.005
        out = normalized_semigroup(sol, V, f, t, 1e-5)
        target = np.exp(-2 * np.pi**2 * t) * f.values
        assert np.max(np.abs(out.values - target)) < 1e-6

    def test_invariance_of_gibbs_density(self, vcos512, eig_cos512):
        rng = np.random.default_rng(51)
        density = gibbs_density(eig_cos512)
        for _ in range(3):
            f = random_harmonic(vcos512.grid, rng)
            moved = normalized_semigroup(eig_cos512, vcos512, f, 0.5, 1e-3)
            assert abs(integrate(moved * density) - integrate(f * density)) < 1e-7

    @pytest.mark.parametrize("a, t", [(100.0, 0.5), (1000.0, 0.1)])
    def test_matches_dense_doob_exponential(self, a, t):
        # At a = 1000 the tail of F falls to 5e-9 of its peak; there too a
        # Markov semigroup keeps f's values, in [1, 3], at every node.
        grid = make_grid(1024)
        V = HarmonicSpec(harmonics=[(1, a, 0.0)]).sample(grid)
        sol = principal_eigenpair(build_generator(V))
        F, lam = sol.eigenfunction.values, sol.eigenvalue
        doob = (fd_operator(1024, f"{a:g}cos1") - lam * np.eye(1024)) * F / F[:, None]
        f = HarmonicSpec(constant=2.0, harmonics=[(1, 0.0, 0.5), (3, 0.4, 0.0)]).sample(grid)
        out = normalized_semigroup(sol, V, f, t, 1e-3).values
        ref = dense_semigroup(doob, f.values, t)
        assert np.max(np.abs(out - ref)) <= 1e-9 * np.max(np.abs(ref))
        assert 1.0 <= out.min() and out.max() <= 3.0


class TestGenerator:
    def test_kills_constants(self, eig_cos512):
        out = generator_apply(eig_cos512, ones_fn(eig_cos512.eigenfunction.grid))
        assert np.max(np.abs(out.values)) < 1e-12

    def test_free_case_is_half_laplacian(self):
        grid = make_grid(256)
        sol = exact_free_solution(grid)
        f = HarmonicSpec(harmonics=[(2, 0.0, 1.0)]).sample(grid)
        out = generator_apply(sol, f)
        assert np.allclose(out.values, 0.5 * derivative(f, 2).values, atol=1e-12)

    def test_time_derivative_consistency_free_case(self):
        # delta and the tolerance pin each other: the slowest mode has
        # |L^2 f| / |L f| = 2 pi^2 < 2e-2/delta, with no room for faster f.
        grid = make_grid(512)
        V = zero_fn(grid)
        sol = principal_eigenpair(build_generator(V))
        f = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid)
        delta = 1e-3
        lf = generator_apply(sol, f)
        stepped = normalized_semigroup(sol, V, f, delta, delta)
        err = np.max(np.abs((stepped.values - f.values) / delta - lf.values))
        assert err <= 1e-2 * np.max(np.abs(lf.values))

    def test_time_derivative_first_order(self, vcos512, eig_cos512):
        f = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(vcos512.grid)
        lf = generator_apply(eig_cos512, f)

        def mismatch(delta):
            stepped = normalized_semigroup(eig_cos512, vcos512, f, delta, delta)
            return np.max(np.abs((stepped.values - f.values) / delta - lf.values))

        assert mismatch(5e-4) <= 0.6 * mismatch(1e-3)

    def test_invariance_residual(self, vcos512, eig_cos512):
        grid = vcos512.grid
        assert invariance_residual(eig_cos512, ones_fn(grid)) == 0.0
        free = principal_eigenpair(build_generator(zero_fn(grid)))
        rng = np.random.default_rng(52)
        assert invariance_residual(free, random_harmonic(grid, rng)) < 1e-10
        f = HarmonicSpec(harmonics=[(2, 0.0, 1.0)]).sample(grid)
        assert invariance_residual(eig_cos512, f) < 1e-7


class TestSimulateSde:
    def test_driftless_increments_are_brownian(self, grid512):
        dt = 1e-3
        cfg = McConfig(n_paths=10_000, dt=dt, seed=61)
        ens = simulate_sde(zero_fn(grid512), 0.0, 0.01, cfg, record_stride=1)
        wrapped = np.diff(ens.positions, axis=1)
        incs = (wrapped + 0.5) % 1.0 - 0.5
        total = incs.size
        mean_bound = 5 * np.sqrt(dt / total)
        assert abs(incs.mean()) < mean_bound
        var_bound = 5 * np.sqrt(2.0 / total) * dt
        assert abs(incs.var() - dt) < var_bound

    def test_positions_live_on_the_circle(self, grid512):
        cfg = McConfig(n_paths=500, dt=1e-3, seed=62)
        ens = simulate_sde(zero_fn(grid512), 0.9, 0.05, cfg, record_stride=10)
        assert np.all(ens.positions >= 0.0)
        assert np.all(ens.positions < 1.0)

    def test_equilibrium_marginal_close_to_gibbs(self, vcos512, eig_cos512):
        density = gibbs_density(eig_cos512)
        cfg = McConfig(n_paths=20_000, dt=1e-3, seed=63)
        ens = simulate_sde(eig_cos512.drift, density, 0.5, cfg, record_stride=None)
        _, counts, _ = histogram_density(ens.positions[:, -1], 64)
        tv = tv_distance(counts / counts.sum(), bin_density(density, 64))
        assert tv <= 0.05

    def test_reproducible(self, grid512, eig_cos512):
        cfg = McConfig(n_paths=300, dt=1e-3, seed=64)
        a = simulate_sde(eig_cos512.drift, 0.1, 0.05, cfg, record_stride=None)
        b = simulate_sde(eig_cos512.drift, 0.1, 0.05, cfg, record_stride=None)
        assert np.array_equal(a.positions, b.positions)

    @pytest.mark.parametrize("stride", [1, None])
    def test_bits_of_simulate_paths(self, vcos512, eig_cos512, stride):
        cfg = McConfig(n_paths=300, dt=1e-3, seed=65)
        start = gibbs_density(eig_cos512)
        shim = simulate_sde(eig_cos512.drift, start, 0.05, cfg, potential=vcos512,
                            record_stride=stride)
        ens = simulate_paths(vcos512.grid, eig_cos512.drift, start, 0.05, cfg,
                             potential=vcos512, record_stride=stride)
        assert shim.record_stride == ens.record_stride
        assert np.array_equal(shim.positions, ens.positions)
        assert np.array_equal(shim.potential_integrals, ens.potential_integrals)


class TestSampleFromDensity:
    def test_concentrated_density_stays_in_cell(self, grid512):
        vals = np.zeros(grid512.n)
        vals[100] = 1.0 / grid512.h
        density = GridFunction(grid512, vals)
        samples = sample_from_density(density, np.random.default_rng(1).random(500))
        assert np.all(samples >= grid512.nodes[100])
        assert np.all(samples < grid512.nodes[101])

    def test_uniform_density_is_identity(self, grid512):
        u = np.linspace(0.01, 0.99, 37)
        samples = sample_from_density(ones_fn(grid512), u)
        assert np.allclose(samples, u, atol=1e-12)


class TestRnWeights:
    def test_free_case_weight_is_exactly_one(self, grid512):
        sol = exact_free_solution(grid512)
        V = zero_fn(grid512)
        cfg = McConfig(n_paths=200, dt=1e-3, seed=71)
        ens = simulate_sde(zero_fn(grid512), 0.3, 0.1, cfg, potential=V,
                           record_stride=None)
        weights = rn_weights(ens, sol)
        assert np.all(weights == 1.0)

    def test_martingale_mean(self, vcos512, eig_cos512):
        cfg = McConfig(n_paths=20_000, dt=1e-3, seed=72)
        ens = simulate_sde(zero_fn(vcos512.grid), 0.25, 0.5, cfg,
                           potential=vcos512, record_stride=None)
        weights = rn_weights(ens, eig_cos512)
        se = weights.std(ddof=1) / np.sqrt(weights.size)
        assert abs(weights.mean() - 1.0) <= 3 * se + 5e-3

    def test_reweighting_reproduces_normalized_semigroup(self, vcos512, eig_cos512):
        t = 0.5
        cfg = McConfig(n_paths=20_000, dt=5e-4, seed=73)
        ens = simulate_sde(zero_fn(vcos512.grid), 0.25, t, cfg,
                           potential=vcos512, record_stride=None)
        weights = rn_weights(ens, eig_cos512)
        f = HarmonicSpec(constant=1.0, harmonics=[(1, 0.0, 0.5)]).sample(vcos512.grid)
        values = weights * f.interp(ens.positions[:, -1])
        se = values.std(ddof=1) / np.sqrt(values.size)
        target = normalized_semigroup(eig_cos512, vcos512, f, t, 5e-4).interp(0.25)
        assert abs(values.mean() - target) <= 3 * se

    def test_pathwise_identity_with_drift_potential_form(self, vcos512, eig_cos512):
        cfg = McConfig(n_paths=2_000, dt=1e-3, seed=74)
        ens = simulate_sde(zero_fn(vcos512.grid), 0.25, 0.5, cfg,
                           potential=vcos512, record_stride=1)
        eigen_form = rn_weights(ens, eig_cos512)
        log_f = GridFunction(vcos512.grid,
                             np.log(eig_cos512.eigenfunction.values))
        drift_form = rn_weights_admissible(ens, log_f)
        assert np.max(np.abs(eigen_form / drift_form - 1.0)) < 1e-9

    def test_missing_potential_rejected(self, grid512, eig_cos512):
        cfg = McConfig(n_paths=10, dt=1e-3, seed=75)
        ens = simulate_sde(zero_fn(grid512), 0.0, 0.01, cfg, record_stride=None)
        with pytest.raises(ValueError, match="potential"):
            rn_weights(ens, eig_cos512)


class TestRnWeightAdmissible:
    def test_zero_potential_weight_exactly_one(self, grid512):
        cfg = McConfig(n_paths=50, dt=1e-3, seed=81)
        ens = simulate_sde(zero_fn(grid512), 0.4, 0.2, cfg, record_stride=1)
        weights = rn_weights_admissible(ens, zero_fn(grid512))
        assert np.all(weights == 1.0)

    def test_martingale_mean_for_harmonic_potential(self, grid512):
        # Small amplitude keeps the weight distribution light-tailed enough
        # for a 2e4-path mean to see the martingale property.
        rng = np.random.default_rng(82)
        g = random_harmonic(grid512, rng, kmax=2, scale=0.1)
        cfg = McConfig(n_paths=20_000, dt=1e-3, seed=83)
        ens = simulate_sde(zero_fn(grid512), 0.6, 0.5, cfg, record_stride=1)
        weights = rn_weights_admissible(ens, g)
        se = weights.std(ddof=1) / np.sqrt(weights.size)
        assert abs(weights.mean() - 1.0) <= 3 * se + 5e-3

    def test_requires_full_resolution_paths(self, grid512):
        cfg = McConfig(n_paths=10, dt=1e-3, seed=84)
        ens = simulate_sde(zero_fn(grid512), 0.0, 0.01, cfg, record_stride=None)
        with pytest.raises(ValueError, match="record_stride"):
            rn_weights_admissible(ens, zero_fn(grid512))

    @staticmethod
    def unblocked(ens, g):
        """The weights from one read of the whole ensemble."""
        integral = drift_weight_integrand(g).interp(ens.positions[:, :-1]).sum(axis=1) * ens.dt
        start, end = g.interp(ens.positions[:, [0, -1]]).T
        return np.exp(end - start - integral)

    @staticmethod
    def uniform_ensemble(n_paths, n_steps, seed):
        """A stride-1 ensemble of uniform positions, without simulating it."""
        positions = np.random.default_rng(seed).random((n_paths, n_steps + 1))
        return PathEnsemble(dt=1e-3, n_steps=n_steps, n_paths=n_paths, positions=positions,
                            record_stride=1, potential_integrals=None)

    @pytest.mark.parametrize("n_paths, n_steps", [
        (3, 70_000),  # above the reader's 2**16 points: one path per block
        (300, 500),  # blocks of 131 paths, the last of 38
        (1, 500)])
    def test_block_read_keeps_the_bits(self, grid512, n_paths, n_steps):
        g = random_harmonic(grid512, np.random.default_rng(86), kmax=3, scale=0.5)
        ens = self.uniform_ensemble(n_paths, n_steps, n_steps)
        assert np.array_equal(rn_weights_admissible(ens, g), self.unblocked(ens, g))

    @pytest.mark.parametrize("points", [1, 50, 1000])  # blocks of 1, 1 and 5 paths
    def test_block_read_keeps_the_bits_at_any_block_size(self, grid512, monkeypatch,
                                                          points):
        g = random_harmonic(grid512, np.random.default_rng(87), kmax=3, scale=0.5)
        cfg = McConfig(n_paths=33, dt=1e-3, seed=88)
        ens = simulate_sde(g, 0.7, 0.2, cfg, record_stride=1)
        whole = self.unblocked(ens, g)
        monkeypatch.setattr(fk_thermo.grid, "_BLOCK_POINTS", points)
        assert np.array_equal(rn_weights_admissible(ens, g), whole)

    def test_read_holds_one_block(self, grid512):
        # 2000 x 2000 recorded steps (30.5 MiB): one read of the whole
        # ensemble peaked at 63.5 MiB; a block of 32 paths is 0.5 MiB
        g = random_harmonic(grid512, np.random.default_rng(89), kmax=3, scale=0.5)
        ens = self.uniform_ensemble(2000, 2000, 90)
        tracemalloc.start()
        try:
            rn_weights_admissible(ens, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_integrand_matches_fourier_form_for_smooth_g(self, grid512):
        rng = np.random.default_rng(85)
        g = random_harmonic(grid512, rng, kmax=3, scale=0.3)
        fd_form = drift_weight_integrand(g).values
        spectral_form = 0.5 * (derivative(g, 2).values + derivative(g, 1).values ** 2)
        gap = np.max(np.abs(fd_form - spectral_form))
        assert gap < 1e-3 * np.max(np.abs(spectral_form))  # O(h^2) agreement
        assert gap > 0  # genuinely distinct routes

    @pytest.mark.parametrize("n", [256, 512, 4096])
    def test_integrand_at_log_eigenfunction_is_lambda_minus_v(self, n):
        # For g = log F the rate (D/2 F)/F equals lambda - V node by node;
        # the bound is principal_eigenpair's residual guard, which measures
        # A F - lambda F relative to max F, divided by min F.
        grid = make_grid(n)
        V = HarmonicSpec(harmonics=[(1, 1.0, 0.0), (2, 0.0, 0.5)]).sample(grid)
        sol = principal_eigenpair(build_generator(V))
        F = sol.eigenfunction.values
        rate = drift_weight_integrand(GridFunction(grid, np.log(F))).values
        guard = max(1e-9, 6.0 * np.finfo(float).eps * n**2)
        err = np.max(np.abs(rate - (sol.eigenvalue - V.values)))
        assert err <= guard * F.max() / F.min()


class TestHistograms:
    def test_tv_distance_of_identical_vectors(self):
        p = np.array([0.25, 0.25, 0.5])
        assert tv_distance(p, p) == 0.0
        assert tv_distance(p, np.array([0.5, 0.25, 0.25])) == 0.25

    def test_bin_density_sums_to_one(self, eig_cos512):
        q = bin_density(gibbs_density(eig_cos512), 64)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)
        assert q.shape == (64,)
