import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
from scipy.linalg import expm

from fk_thermo import (GridFunction, HarmonicSpec, McConfig, NonConvergence,
                       WeightOverflow, build_generator,
                       check_selfadjoint, gibbs_density, integrate, make_grid,
                       normalized_semigroup, principal_eigenpair, propagate_mc,
                       propagate_pde_many)
from fk_thermo.feynman_kac import PropagatorConfig, propagate_pde

from conftest import random_harmonic
from oracles import dense_semigroup, fd_operator


def max_rel(u, ref):
    return float(np.max(np.abs(u - ref)) / np.max(np.abs(ref)))


def const_fn(grid, c):
    return GridFunction(grid, np.full(grid.n, float(c)))


class TestPropagatorConfig:
    @pytest.mark.parametrize("t,dt", [(0.0, 0.1), (1.0, -0.1), (0.5, 0.7),
                                      (1.0, 0.0003), (float("inf"), 1e-3),
                                      (float("nan"), 1e-3)])
    def test_rejects_bad_steps(self, t, dt):
        # Only n_steps applies the step rule; the Krylov route itself
        # rejects the horizons that are not positive and finite.
        with pytest.raises(ValueError):
            PropagatorConfig(t=t, dt=dt).n_steps
        if not 0.0 < t < np.inf:
            grid = make_grid(16)
            with pytest.raises(ValueError, match="positive and finite"):
                propagate_pde(const_fn(grid, 0.0), const_fn(grid, 1.0),
                              PropagatorConfig(t=t, dt=dt))

    def test_step_count(self):
        assert PropagatorConfig(t=0.5, dt=1e-3).n_steps == 500

    def test_horizon_need_not_be_whole_steps(self):
        # 0.15005 is not a whole number of 1e-3 steps; the Krylov route does
        # not read dt, so both wrappers return the bits of the direct call.
        t, grid = 0.15005, make_grid(64)
        V = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid)
        f = HarmonicSpec(constant=1.0, harmonics=[(1, 0.0, 0.5)]).sample(grid)
        sol = principal_eigenpair(build_generator(V))
        assert np.array_equal(propagate_pde(V, f, PropagatorConfig(t, 1e-3)).values,
                              propagate_pde_many(V, [f], [t])[t][0].values)
        assert np.array_equal(normalized_semigroup(sol, V, f, t, 1e-3).values,
                              propagate_pde_many(V, [f], [t], eigenpair=sol)[t][0].values)


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
        # dt = 0.6 is above 2 / max(V) = 0.5, which bounds nothing here: the
        # route reads only t, and e^{4 t} comes out to roundoff.
        V = const_fn(grid512, 4.0)
        u = propagate_pde(V, const_fn(grid512, 1.0), PropagatorConfig(t=0.6, dt=0.6))
        assert max_rel(u.values, np.exp(2.4)) < 1e-14
        ref = dense_semigroup(fd_operator(512, "4"), np.ones(512), 0.6)
        assert max_rel(u.values, ref) < 1e-10

    @pytest.mark.parametrize("below", [False, True], ids=["at_cap", "below_cap"])
    def test_dt_cap_boundary(self, grid512, below):
        # At and just below dt = 2 / max(V), the state is exp(t A) 1.
        V = HarmonicSpec(harmonics=[(1, 4.0, 0.0)]).sample(grid512)
        cap = 2.0 / np.max(V.values)
        assert cap == 0.5
        dt = float(np.nextafter(cap, 0.0)) if below else cap
        u = propagate_pde(V, const_fn(grid512, 1.0), PropagatorConfig(t=dt, dt=dt))
        ref = dense_semigroup(fd_operator(512, "4cos1"), np.ones(512), dt)
        assert max_rel(u.values, ref) < 1e-10

    @pytest.mark.parametrize("potential, harmonics", [
        ("cos1+halfsin2", [(1, 1.0, 0.0), (2, 0.0, 0.5)]),
        ("100cos1", [(1, 100.0, 0.0)]),
    ])
    def test_matches_dense_exponential(self, grid512, potential, harmonics):
        V = HarmonicSpec(harmonics=harmonics).sample(grid512)
        f = HarmonicSpec(constant=1.0, harmonics=[(1, 0.0, 0.5), (3, 0.2, 0.1)]).sample(grid512)
        u = propagate_pde(V, f, PropagatorConfig(t=0.5, dt=1e-3))
        ref = dense_semigroup(fd_operator(512, potential), f.values, 0.5)
        assert max_rel(u.values, ref) < 1e-9

    @pytest.mark.parametrize("potential, harmonics", [
        ("1000cos20", [(20, 1000.0, 0.0)]),
        ("3000cos30", [(30, 3000.0, 0.0)]),
    ])
    def test_far_below_max_potential_matches_dense_exponential(self, grid512, potential,
                                                               harmonics):
        # lambda lies 937 and 2747 below max V, so e^{(lambda - max V) t}
        # underflows and e^{max(V) t / 2} overflows: the small exponential
        # is shifted by its own top Ritz value, not by max V.
        V = HarmonicSpec(harmonics=harmonics).sample(grid512)
        f = HarmonicSpec(constant=1.0, harmonics=[(1, 0.0, 0.3)]).sample(grid512)
        u = propagate_pde(V, f, PropagatorConfig(t=1.0, dt=1e-3))
        ref = dense_semigroup(fd_operator(512, potential), f.values, 1.0)
        assert max_rel(u.values, ref) < 1e-9

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
                      seed=st.integers(0, 2**32 - 1),
                      doob=st.booleans())
    def test_each_column_has_the_bits_of_its_own_run(self, n, dt, m, steps, seed,
                                                     doob):
        # Horizons come in any order, duplicates included; the result is
        # keyed by the distinct horizons in ascending order.  The frame is
        # the flat stencil or the Doob generator of V's eigenpair.
        rng = np.random.default_rng(seed)
        grid = make_grid(n)
        V = GridFunction(grid, rng.uniform(-2.0, 2.0, n))
        eigenpair = principal_eigenpair(build_generator(V)) if doob else None
        fs = [GridFunction(grid, rng.uniform(-1.0, 1.0, n)) for _ in range(m)]
        horizons = [k * dt for k in steps]
        out = propagate_pde_many(V, fs, horizons, eigenpair=eigenpair)
        assert list(out) == sorted(set(horizons))
        for t, columns in out.items():
            assert len(columns) == m
            for f, u in zip(fs, columns):
                alone = propagate_pde(V, f, PropagatorConfig(t=t, dt=dt),
                                      eigenpair=eigenpair)
                assert np.array_equal(u.values, alone.values)

    def test_one_column_is_the_dense_exponential(self, vcos512):
        # One column of a many-function call is exp(0.3 A) f, as dense Pade
        # expm of the same stencil gives it.
        f = HarmonicSpec(constant=1.0, harmonics=[(1, 0.0, 0.5)]).sample(vcos512.grid)
        only = propagate_pde_many(vcos512, [f, const_fn(vcos512.grid, 1.0)], [0.3])[0.3][0]
        ref = dense_semigroup(fd_operator(512, "cos1"), f.values, 0.3)
        assert max_rel(only.values, ref) < 1e-10

    def test_eigenfunction_breaks_down_early(self, vcos512, eig_cos512, monkeypatch):
        # F spans an invariant subspace up to its residual: a handful of
        # Arnoldi steps, each with one small exponential, reach it.
        calls = []

        def counting_expm(x):
            calls.append(x.shape[0])
            return expm(x)

        monkeypatch.setattr("fk_thermo.feynman_kac.expm", counting_expm)
        propagate_pde_many(vcos512, [eig_cos512.eigenfunction], [0.5])
        assert len(calls) <= 4

    def test_dimension_cap_raises_nonconvergence(self, vcos512, monkeypatch):
        monkeypatch.setattr("fk_thermo.feynman_kac._KRYLOV_DIM", 3)
        rough = GridFunction(vcos512.grid, np.random.default_rng(7).uniform(-1, 1, 512))
        with pytest.raises(NonConvergence, match=r"^shift-invert Krylov at t=0\.5: "
                                                 r"the last two of 3 dimensions"):
            propagate_pde_many(vcos512, [rough], [0.5])

    def test_checks_every_function_and_horizon(self, grid512, vcos512):
        f = const_fn(grid512, 1.0)
        with pytest.raises(ValueError, match="different grids"):
            propagate_pde_many(vcos512, [f, const_fn(make_grid(256), 1.0)], [0.1])
        for t in (0.0, -0.1, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                propagate_pde_many(vcos512, [f], [0.1, t])

    @pytest.mark.parametrize("f", ["one", "wave"])
    def test_overflowing_state_names_its_horizon(self, grid512, f):
        # Under V = 1000 the state grows by e^{1000 t}: finite at t=0.5, and
        # past the largest double by t=1.  No RuntimeWarning leaks on the way.
        V = const_fn(grid512, 1000.0)
        g = (const_fn(grid512, 1.0) if f == "one" else
             HarmonicSpec(constant=1.0, harmonics=[(1, 0.5, 0.0)]).sample(grid512))
        # the stencil's k = 1 eigenvalue is -2 n^2 sin^2(pi/n)
        decay = np.exp(-0.5 * 2 * 512**2 * np.sin(np.pi / 512) ** 2)
        wave = (g.values - 1.0) * (decay if f == "wave" else 0.0)
        half = propagate_pde_many(V, [g], [0.5])[0.5][0].values
        assert max_rel(half, np.exp(500.0) * (1.0 + wave)) < 1e-13
        with pytest.raises(WeightOverflow, match=r"^the propagated state at t=1\.0 "
                                                 r"is not finite \(exp overflows "
                                                 r"above 709\.78\)$"):
            propagate_pde_many(V, [g], [0.5, 1.0])


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
    ])
    def test_overflowing_weights_raise(self, grid512, c, f, overflows):
        # exp(1000) overflows every weight.  No RuntimeWarning leaks.
        g = (const_fn(grid512, 1.0) if f == "one" else
             HarmonicSpec(constant=1.0, harmonics=[(1, 0.5, 0.0)]).sample(grid512))
        with pytest.raises(WeightOverflow, match=overflows):
            propagate_mc(const_fn(grid512, c), g, 0.3,
                         McConfig(n_paths=100, dt=1e-3, seed=1), 1.0)

    def test_spread_finite_weights_have_a_finite_error(self, grid512):
        # Values near 1e304 spread by their own size: their squared
        # deviations overflow unless they are scaled first.
        g = HarmonicSpec(constant=1.0, harmonics=[(1, 0.5, 0.0)]).sample(grid512)
        est, se = propagate_mc(const_fn(grid512, 700.0), g, 0.3,
                               McConfig(n_paths=100, dt=1e-3, seed=1), 1.0)
        assert 1e303 < est < 1.5 * np.exp(700.0)
        assert 1e-3 < se / est < 0.5

    def test_largest_finite_weights_pass(self, grid512):
        est, se = propagate_mc(const_fn(grid512, 700.0), const_fn(grid512, 1.0),
                               0.3, McConfig(n_paths=100, dt=1e-3, seed=1), 1.0)
        assert np.isfinite(est) and est > 1e303
        assert se == 0.0


class TestSelfAdjoint:
    def test_same_function_exact_zero(self, vcos512):
        rng = np.random.default_rng(41)
        f = random_harmonic(vcos512.grid, rng)
        assert check_selfadjoint(vcos512, f, f, 0.2) == 0.0

    def test_free_heat_kernel_symmetric(self, grid512):
        V = const_fn(grid512, 0.0)
        f = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid512)
        g = HarmonicSpec(harmonics=[(1, 0.0, 1.0)]).sample(grid512)
        assert check_selfadjoint(V, f, g, 0.3) < 1e-10

    def test_random_harmonics(self, vcos512):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(3):
            f = random_harmonic(vcos512.grid, rng)
            g = random_harmonic(vcos512.grid, rng)
            worst = max(worst, check_selfadjoint(vcos512, f, g, 0.2))
        assert worst < 1e-9
