import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from fk_thermo import (GridFunction, HarmonicSpec, McConfig, PropagatorConfig,
                       WeightOverflow, build_generator, check_selfadjoint, gibbs_density,
                       integrate, make_grid, propagate_mc, propagate_pde)
from fk_thermo.feynman_kac import propagate_pde_many

from conftest import random_harmonic


def const_fn(grid, c):
    return GridFunction(grid, np.full(grid.n, float(c)))


class TestPropagatorConfig:
    @pytest.mark.parametrize("t,dt", [(0.0, 0.1), (1.0, -0.1), (0.5, 0.7),
                                      (1.0, 0.0003), (float("inf"), 1e-3),
                                      (float("nan"), 1e-3)])
    def test_rejects_bad_steps(self, t, dt):
        with pytest.raises(ValueError):
            PropagatorConfig(t=t, dt=dt)

    def test_step_count(self):
        assert PropagatorConfig(t=0.5, dt=1e-3).n_steps == 500


class TestPropagatePde:
    def test_free_heat_preserves_constants(self, grid512):
        V = const_fn(grid512, 0.0)
        f = const_fn(grid512, 1.0)
        u = propagate_pde(V, f, PropagatorConfig(t=1.0, dt=1e-3))
        assert np.max(np.abs(u.values - 1.0)) < 1e-12

    def test_constant_potential_scalar_growth(self, grid512):
        c = 0.3
        u = propagate_pde(const_fn(grid512, c), const_fn(grid512, 1.0),
                          PropagatorConfig(t=1.0, dt=1e-3))
        assert np.max(np.abs(u.values - np.exp(c))) < 1e-8

    def test_eigenfunction_identity(self, vcos512, eig_cos512):
        u = propagate_pde(vcos512, eig_cos512.eigenfunction,
                          PropagatorConfig(t=0.5, dt=1e-3))
        target = np.exp(0.5 * eig_cos512.eigenvalue) * eig_cos512.eigenfunction.values
        assert np.max(np.abs(u.values - target) / np.abs(target)) < 1e-6

    def test_semigroup_law(self, vcos512):
        rng = np.random.default_rng(31)
        f = random_harmonic(grid=vcos512.grid, rng=rng)
        dt = 1e-3
        via_two = propagate_pde(
            vcos512, propagate_pde(vcos512, f, PropagatorConfig(0.2, dt)),
            PropagatorConfig(0.3, dt))
        direct = propagate_pde(vcos512, f, PropagatorConfig(0.5, dt))
        assert np.max(np.abs(via_two.values - direct.values)) < 1e-8

    def test_positivity_on_smooth_nonnegative_inputs(self, vcos512, eig_cos512):
        grid = vcos512.grid
        half_sine = HarmonicSpec(constant=1.0, harmonics=[(1, 0.0, 0.5)]).sample(grid)
        for f in (half_sine, eig_cos512.eigenfunction, gibbs_density(eig_cos512)):
            assert np.min(f.values) >= 0
            u = propagate_pde(vcos512, f, PropagatorConfig(t=0.5, dt=1e-3))
            assert np.min(u.values) > -1e-12

    def test_growth_bounded_by_potential_range(self, vcos512):
        grid = vcos512.grid
        ones = const_fn(grid, 1.0)
        for V, dt in ((vcos512, 1e-3), (const_fn(grid, 0.8), 1e-4)):
            t = 0.5
            u = propagate_pde(V, ones, PropagatorConfig(t=t, dt=dt))
            rate = np.log(u.values) / t
            assert np.min(rate) >= np.min(V.values) - 1e-8
            assert np.max(rate) <= np.max(V.values) + 1e-8

    def test_dt_cap_enforced(self, grid512):
        V = const_fn(grid512, 4.0)
        with pytest.raises(ValueError, match="cap"):
            propagate_pde(V, const_fn(grid512, 1.0), PropagatorConfig(t=0.6, dt=0.6))

    @pytest.mark.parametrize("below", [False, True], ids=["at_cap", "below_cap"])
    def test_dt_cap_boundary(self, grid512, below):
        V = HarmonicSpec(harmonics=[(1, 4.0, 0.0)]).sample(grid512)
        cap = 2.0 / np.max(V.values)
        assert cap == 0.5
        dt = float(np.nextafter(cap, 0.0)) if below else cap
        cfg = PropagatorConfig(t=dt, dt=dt)
        if below:
            assert np.all(np.isfinite(propagate_pde(V, const_fn(grid512, 1.0), cfg).values))
        else:
            with pytest.raises(ValueError, match="cap"):
                propagate_pde(V, const_fn(grid512, 1.0), cfg)

    def test_grid_mismatch_rejected(self, grid512):
        other = make_grid(256)
        with pytest.raises(ValueError):
            propagate_pde(const_fn(grid512, 0.0), const_fn(other, 1.0),
                          PropagatorConfig(t=0.1, dt=1e-3))


class TestPropagatePdeMany:
    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(n=st.sampled_from([8, 64, 256, 512]),
                      dt=st.sampled_from([1e-3, 5e-4, 1 / 1024]),
                      m=st.integers(1, 10),
                      steps=st.lists(st.integers(1, 120), min_size=1, max_size=3),
                      seed=st.integers(0, 2**32 - 1))
    def test_each_column_has_the_bits_of_its_own_run(self, n, dt, m, steps, seed):
        # Horizons come in any order, duplicates included; the result is
        # keyed by the distinct horizons in ascending order.
        rng = np.random.default_rng(seed)
        grid = make_grid(n)
        V = GridFunction(grid, rng.uniform(-2.0, 2.0, n))
        fs = [GridFunction(grid, rng.uniform(-1.0, 1.0, n)) for _ in range(m)]
        horizons = [k * dt for k in steps]
        out = propagate_pde_many(V, fs, horizons, dt)
        assert list(out) == sorted(set(horizons))
        for t, columns in out.items():
            assert len(columns) == m
            for f, u in zip(fs, columns):
                alone = propagate_pde(V, f, PropagatorConfig(t=t, dt=dt))
                assert np.array_equal(u.values, alone.values)

    def test_one_column_is_the_one_dimensional_march(self, vcos512):
        # The increment-form step on a 1-D state, written out: the kernel's
        # (n, 1) stack reproduces it bit for bit.
        f = HarmonicSpec(constant=1.0, harmonics=[(1, 0.0, 0.5)]).sample(vcos512.grid)
        dt = 1e-3
        A = build_generator(vcos512).matrix
        lu = splu((sp.eye_array(vcos512.grid.n) - 0.5 * dt * A).tocsc())
        u = f.values.copy()
        for _ in range(300):
            u += lu.solve(dt * (A @ u))
        only = propagate_pde_many(vcos512, [f], [0.3], dt)[0.3][0]
        assert np.array_equal(only.values, u)

    def test_checks_every_function_and_horizon(self, grid512, vcos512):
        f = const_fn(grid512, 1.0)
        with pytest.raises(ValueError, match="different grids"):
            propagate_pde_many(vcos512, [f, const_fn(make_grid(256), 1.0)], [0.1], 1e-3)
        with pytest.raises(ValueError, match="not an integer number"):
            propagate_pde_many(vcos512, [f], [0.1, 0.15005], 1e-3)
        with pytest.raises(ValueError, match="dt must be positive"):
            propagate_pde_many(vcos512, [f], [0.1], -1e-3)

    @pytest.mark.parametrize("f", ["one", "wave"])
    def test_overflowing_state_names_its_horizon(self, grid512, f):
        # At dt=1e-3 each step multiplies by (1 + 0.5) / (1 - 0.5) = 3 for
        # V = 1000: 3^500 is finite at t=0.5 and 3^1000 overflows by t=1.
        # No RuntimeWarning leaks on the way.
        V = const_fn(grid512, 1000.0)
        g = (const_fn(grid512, 1.0) if f == "one" else
             HarmonicSpec(constant=1.0, harmonics=[(1, 0.5, 0.0)]).sample(grid512))
        assert np.isfinite(propagate_pde_many(V, [g], [0.5], 1e-3)[0.5][0].values).all()
        with pytest.raises(WeightOverflow, match=r"^the Crank-Nicolson state at "
                                                 r"t=1\.0 is not finite: 1000 steps "
                                                 r"of dt=0\.001 grow it by up to "
                                                 r"exp\(1098\.61\), "):
            propagate_pde_many(V, [g], [0.5, 1.0], 1e-3)


class TestPropagateMc:
    def test_free_case_exact(self, grid512):
        V = const_fn(grid512, 0.0)
        f = const_fn(grid512, 1.0)
        est, se = propagate_mc(V, f, 0.1, McConfig(n_paths=200, dt=1e-3, seed=1), 0.25)
        assert est == 1.0
        assert se == 0.0

    def test_constant_potential_exact_weights(self, grid512):
        # dyadic dt makes the left-endpoint sum of a constant exactly c*t
        c, t, dt = 2.0, 1.0, 1.0 / 1024
        est, se = propagate_mc(const_fn(grid512, c), const_fn(grid512, 1.0),
                               0.7, McConfig(n_paths=300, dt=dt, seed=2), t)
        assert est == np.exp(c * t)
        assert se == 0.0

    def test_matches_pde_route(self, grid512, vcos512):
        f = HarmonicSpec(constant=1.0, harmonics=[(1, 0.0, 0.5)]).sample(grid512)
        t = 0.5
        cfg = McConfig(n_paths=20_000, dt=1e-3, seed=99)
        est, se = propagate_mc(vcos512, f, 0.25, cfg, t)
        pde = propagate_pde(vcos512, f, PropagatorConfig(t=t, dt=1e-3))
        assert abs(est - pde.interp(0.25)) <= 3 * se + 5e-3

    def test_reproducible_across_chunking(self, grid512, vcos512, monkeypatch):
        f = HarmonicSpec(constant=1.0, harmonics=[(1, 0.0, 0.5)]).sample(grid512)
        cfg = McConfig(n_paths=700, dt=1e-3, seed=5)
        baseline = propagate_mc(vcos512, f, 0.25, cfg, 0.1)
        monkeypatch.setattr("fk_thermo.mc._BLOCK_PATHS", 123)
        rechunked = propagate_mc(vcos512, f, 0.25, cfg, 0.1)
        assert baseline == rechunked

    @pytest.mark.parametrize("c, f, overflows", [
        (1000.0, "one", "estimate inf, standard error nan"),
        (700.0, "wave", "standard error inf"),
    ])
    def test_overflowing_weights_raise(self, grid512, c, f, overflows):
        # exp(1000) overflows every weight; exp(700) is finite, but squared
        # deviations of 1e304 are not.  No RuntimeWarning leaks either way.
        g = (const_fn(grid512, 1.0) if f == "one" else
             HarmonicSpec(constant=1.0, harmonics=[(1, 0.5, 0.0)]).sample(grid512))
        with pytest.raises(WeightOverflow, match=overflows):
            propagate_mc(const_fn(grid512, c), g, 0.3,
                         McConfig(n_paths=100, dt=1e-3, seed=1), 1.0)

    def test_largest_finite_weights_pass(self, grid512):
        est, se = propagate_mc(const_fn(grid512, 700.0), const_fn(grid512, 1.0),
                               0.3, McConfig(n_paths=100, dt=1e-3, seed=1), 1.0)
        assert np.isfinite(est) and est > 1e303
        assert se == 0.0


class TestSelfAdjoint:
    def test_same_function_exact_zero(self, vcos512):
        rng = np.random.default_rng(41)
        f = random_harmonic(vcos512.grid, rng)
        assert check_selfadjoint(vcos512, f, f, 0.2, 1e-3) == 0.0

    def test_free_heat_kernel_symmetric(self, grid512):
        V = const_fn(grid512, 0.0)
        f = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid512)
        g = HarmonicSpec(harmonics=[(1, 0.0, 1.0)]).sample(grid512)
        assert check_selfadjoint(V, f, g, 0.3, 1e-3) < 1e-10

    def test_random_harmonics(self, vcos512):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(3):
            f = random_harmonic(vcos512.grid, rng)
            g = random_harmonic(vcos512.grid, rng)
            worst = max(worst, check_selfadjoint(vcos512, f, g, 0.2, 1e-3))
        assert worst < 1e-9
