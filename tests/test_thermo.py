import dataclasses
import warnings

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
from scipy.special import ive

from fk_thermo import (AdmissibleDrift, DecompositionMismatch, DegenerateGap,
                       EntropyMismatch, GridFunction, HarmonicSpec, McConfig,
                       NonConvergence, NumericalFailure,
                       PositivityViolation, admissible_from_eigen,
                       admissible_from_values,
                       build_generator, carre_du_champ, derivative,
                       entropy_finite_T_mc, gibbs_density, integrate,
                       entropy_report, make_grid, maximize_pressure,
                       pressure_decomposition, pressure_gap,
                       pressure_value, principal_eigenpair, relative_entropy,
                       thermo)
from fk_thermo.spectral import roundoff_bound, stencil_excess

from conftest import random_harmonic
from oracles import fourier_companion_drift


def zero_fn(grid):
    return GridFunction(grid, np.zeros(grid.n))


@pytest.fixture(scope="module")
def grid1024():
    return make_grid(1024)


@pytest.fixture(scope="module")
def eig_cos1024(grid1024):
    V = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid1024)
    return V, principal_eigenpair(build_generator(V))


class TestAdmissible:
    def test_flat_potential(self, grid512):
        ad = admissible_from_values(HarmonicSpec().sample(grid512))
        assert np.array_equal(ad.density.values, np.ones(grid512.n))

    def test_large_offset_does_not_overflow(self, grid512):
        # e^{2g} is formed relative to max g, so a drift potential far above
        # the exp range (2 x 400 > 709) still gives its density quietly.
        g = HarmonicSpec(constant=400.0, harmonics=[(1, 1.0, 0.0)]).sample(grid512)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ad = admissible_from_values(g)
        flat = admissible_from_values(g - 400.0)
        assert np.max(np.abs(ad.density.values - flat.density.values)) < 1e-13

    def test_log_eigenfunction_recovers_gibbs_density(self, eig_cos512):
        log_f = GridFunction(eig_cos512.eigenfunction.grid,
                             np.log(eig_cos512.eigenfunction.values))
        ad = admissible_from_values(log_f)
        mu = gibbs_density(eig_cos512)
        assert np.max(np.abs(ad.density.values - mu.values)) < 1e-8

    def test_constant_shift_leaves_density_alone(self, grid512):
        rng = np.random.default_rng(91)
        g = random_harmonic(grid512, rng)
        ad = admissible_from_values(g)
        ad_shifted = admissible_from_values(g + 3.7)
        assert np.max(np.abs(ad.density.values - ad_shifted.density.values)) < 1e-13
        assert relative_entropy(ad) == pytest.approx(relative_entropy(ad_shifted),
                                                     abs=1e-12)

    @pytest.mark.parametrize("amp, n", [(200.0, 512), (200.0, 4096),
                                        (400.0, 512), (400.0, 2048),
                                        (1000.0, 4096)])
    def test_wide_drift_underflows_to_zero_mass(self, amp, n):
        # g = A cos 2 pi x spans 2A, so e^{2(g - max g)} reaches e^{-4A}, below
        # the smallest subnormal: the far nodes carry zero mass, and the
        # entropy rate is still -pi^2 A I1(2A)/I0(2A).
        grid = make_grid(n)
        ad = admissible_from_values(
            GridFunction(grid, amp * np.cos(2 * np.pi * grid.nodes)))
        rho = ad.density.values
        assert np.all(rho >= 0)
        assert np.any(rho == 0)
        assert integrate(ad.density) == pytest.approx(1.0, abs=1e-12)
        exact = -np.pi**2 * amp * ive(1, 2 * amp) / ive(0, 2 * amp)
        assert relative_entropy(ad) == pytest.approx(exact, rel=1e-12)

    def test_derivatives_match_direct_differentiation(self, grid512):
        rng = np.random.default_rng(92)
        g = random_harmonic(grid512, rng)
        ad = admissible_from_values(g)
        assert np.max(np.abs(ad.drift.values - derivative(g, 1).values)) < 1e-10
        assert np.max(np.abs(ad.curvature.values - derivative(g, 2).values)) < 1e-8

    def test_density_positive_and_normalized(self, grid512):
        rng = np.random.default_rng(93)
        ad = admissible_from_values(random_harmonic(grid512, rng))
        assert np.all(ad.density.values > 0)
        assert integrate(ad.density) == pytest.approx(1.0, abs=1e-12)


class TestCarreDuChamp:
    def test_constant_argument_kills_it(self, grid512):
        rng = np.random.default_rng(94)
        f = random_harmonic(grid512, rng)
        out = carre_du_champ(f, GridFunction(grid512, np.full(grid512.n, 2.0)))
        assert np.max(np.abs(out.values)) < 1e-12

    def test_symmetry(self, grid512):
        rng = np.random.default_rng(95)
        f, g = random_harmonic(grid512, rng), random_harmonic(grid512, rng)
        assert np.allclose(carre_du_champ(f, g).values,
                           carre_du_champ(g, f).values, atol=1e-12)

    def test_closed_form(self, grid512):
        x = grid512.nodes
        f = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid512)
        g = HarmonicSpec(harmonics=[(1, 0.0, 1.0)]).sample(grid512)
        expected = -4 * np.pi**2 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * x)
        assert np.max(np.abs(carre_du_champ(f, g).values - expected)) < 1e-10


class TestRelativeEntropy:
    def test_zero_for_flat_potential(self, grid512):
        flat = admissible_from_values(HarmonicSpec().sample(grid512))
        assert relative_entropy(flat) == 0.0

    def test_never_positive(self, grid512):
        rng = np.random.default_rng(96)
        for _ in range(50):
            ad = admissible_from_values(random_harmonic(grid512, rng))
            assert relative_entropy(ad) <= 1e-10

    def test_log_eigenfunction_value_against_direct_quadrature(self, eig_cos512):
        F = eig_cos512.eigenfunction
        log_f = GridFunction(F.grid, np.log(F.values))
        ad = admissible_from_values(log_f)
        slope = derivative(log_f, 1).values
        direct = -0.5 * F.grid.h * float(np.sum(slope**2 * F.values**2))
        direct /= integrate(F * F)
        assert relative_entropy(ad) == pytest.approx(direct, abs=1e-9)

    def test_inconsistent_fields_raise(self, grid512):
        rng = np.random.default_rng(97)
        g = random_harmonic(grid512, rng)
        good = admissible_from_values(g)
        broken = AdmissibleDrift(
            potential=good.potential,
            drift=good.drift,
            curvature=good.curvature + 1.0,  # breaks the circle identity
            density=good.density,
        )
        with pytest.raises(EntropyMismatch):
            relative_entropy(broken)


class TestEntropyFiniteTMc:
    def test_flat_potential_exact_zero(self, grid512):
        ad = admissible_from_values(HarmonicSpec().sample(grid512))
        est, se = entropy_finite_T_mc(ad, 2.0, McConfig(n_paths=200, dt=1e-3, seed=1))
        assert est == 0.0
        assert se == 0.0

    def test_horizon_precondition(self, grid512):
        ad = admissible_from_values(HarmonicSpec().sample(grid512))
        with pytest.raises(ValueError):
            entropy_finite_T_mc(ad, 0.5, McConfig(n_paths=10, dt=1e-3, seed=1))

    def test_matches_closed_form_for_eigen_drift(self, vcos512, eig_cos512):
        ad = admissible_from_eigen(eig_cos512, vcos512)
        closed = relative_entropy(ad)
        est, se = entropy_finite_T_mc(ad, 2.0,
                                      McConfig(n_paths=4_000, dt=1e-3, seed=7))
        assert abs(est - closed) <= 3 * se + 1e-2

    def test_estimate_insensitive_to_point_mass_start(self, vcos512, eig_cos512):
        # Same per-path functional started from a point mass instead of the
        # invariant law; the boundary terms add an O(1/T) transient only.
        from fk_thermo import simulate_sde

        ad = admissible_from_eigen(eig_cos512, vcos512)
        T = 5.0
        cfg = McConfig(n_paths=4_000, dt=1e-3, seed=8)
        est_density, se_density = entropy_finite_T_mc(ad, T, cfg)
        rate = (ad.curvature + ad.drift * ad.drift) * 0.5
        ens = simulate_sde(ad.drift, 0.3, T, cfg, potential=rate,
                           record_stride=None)
        values = -(ad.potential.interp(ens.positions[:, -1])
                   - ad.potential.interp(ens.positions[:, 0])
                   - ens.potential_integrals)
        est_point = values.mean() / T
        se_point = values.std(ddof=1) / np.sqrt(values.size) / T
        transient = 2 * np.ptp(ad.potential.values) / T
        combined = 3 * np.hypot(se_density, se_point)
        assert abs(est_point - est_density) <= combined + transient


class TestPressure:
    def test_flat_drift_gives_mean_potential(self, vcos512):
        ad = admissible_from_values(HarmonicSpec().sample(vcos512.grid))
        assert pressure_value(ad, vcos512) == pytest.approx(integrate(vcos512),
                                                            abs=1e-12)

    def test_eigen_drift_attains_eigenvalue(self, eig_cos1024):
        V, sol = eig_cos1024
        ad = admissible_from_eigen(sol, V)
        assert pressure_value(ad, V) == pytest.approx(sol.eigenvalue, abs=1e-7)

    def test_variational_upper_bound(self, vcos512, eig_cos512):
        rng = np.random.default_rng(98)
        for _ in range(50):
            ad = admissible_from_values(random_harmonic(grid=vcos512.grid, rng=rng))
            assert pressure_value(ad, vcos512) <= eig_cos512.eigenvalue + 1e-8

    def test_gap_at_the_maximizer_vanishes(self, vcos512, eig_cos512):
        reference = admissible_from_eigen(eig_cos512, vcos512)
        gap = pressure_gap(reference, eig_cos512, reference=reference, V=vcos512)
        assert abs(gap) < 1e-10
        log_f = GridFunction(vcos512.grid,
                             np.log(eig_cos512.eigenfunction.values))
        near = admissible_from_values(log_f)
        assert pressure_gap(near, eig_cos512, reference=reference,
                            V=vcos512) < 1e-10

    def test_flat_drift_gap_identity(self, eig_cos1024):
        # gap(g=0) = (1/2) integral of reference drift squared; equals
        # eigenvalue - mean(V) up to the documented discretization offset
        # (the 1e-8 form of this identity is exercised at n=4096 in the
        # acceptance suite).
        V, sol = eig_cos1024
        reference = admissible_from_eigen(sol, V)
        flat = admissible_from_values(HarmonicSpec().sample(V.grid))
        gap = pressure_gap(flat, sol, reference=reference, V=V)
        direct = 0.5 * integrate(reference.drift * reference.drift)
        assert gap == pytest.approx(direct, abs=1e-12)
        assert abs(gap - (sol.eigenvalue - integrate(V))) < 2e-7

    def test_decomposition_for_random_drifts(self, eig_cos1024):
        # lambda - P(g) - gap is the stencil-Fourier offset, which min-max
        # brackets between the excess Rayleigh quotients of e^{g*} and F.
        V, sol = eig_cos1024
        reference = admissible_from_eigen(sol, V)
        low = stencil_excess(V.grid, np.exp(reference.potential.values))
        high = stencil_excess(V.grid, sol.eigenfunction.values)
        tolerance = roundoff_bound(V.grid.n) * max(
            1.0, abs(pressure_value(reference, V)))
        assert tolerance < 2e-9
        rng = np.random.default_rng(99)
        for _ in range(10):
            ad = admissible_from_values(random_harmonic(V.grid, rng))
            gap = pressure_gap(ad, sol, reference=reference, V=V)
            assert gap >= 0
            offset = sol.eigenvalue - pressure_value(ad, V) - gap
            assert low - tolerance <= offset <= high + tolerance

    def test_faulty_eigenvalue_moves_residuals_not_tolerance(self, eig_cos1024):
        V, sol = eig_cos1024
        reference = admissible_from_eigen(sol, V)
        rng = np.random.default_rng(99)
        ads = [admissible_from_values(random_harmonic(V.grid, rng))
               for _ in range(3)]
        gaps, residuals, tolerance = pressure_decomposition(
            ads, reference, V, sol)
        for fault in (1e-3, 1e-6, -1e-6):
            faulty_sol = dataclasses.replace(sol, eigenvalue=sol.eigenvalue + fault)
            _, faulty, faulty_tolerance = pressure_decomposition(
                ads, reference, V, faulty_sol)
            assert faulty_tolerance == tolerance
            assert max(residuals) <= tolerance < min(faulty)
        assert gaps == [pressure_gap(ad, sol, reference=reference, V=V)
                        for ad in ads]

    def test_wrong_eigenvalue_raises_decomposition_mismatch(self, vcos256,
                                                            eig_cos256):
        # An eigenvalue 1e-3 too high used to pass: the old tolerance grew
        # 4x as fast as the residual.
        reference = admissible_from_eigen(eig_cos256, vcos256)
        x = vcos256.grid.nodes
        ad = admissible_from_values(GridFunction(vcos256.grid,
                                                 0.5 * np.sin(2 * np.pi * x)))
        wrong = dataclasses.replace(eig_cos256,
                                    eigenvalue=eig_cos256.eigenvalue + 1e-3)
        assert pressure_gap(ad, eig_cos256, reference=reference, V=vcos256) > 0
        with pytest.raises(DecompositionMismatch, match="off by 1.000e-03"):
            pressure_gap(ad, wrong, reference=reference, V=vcos256)

    def test_foreign_potential_raises_decomposition_mismatch(self, vcos256,
                                                             eig_cos256):
        # The eigenpair belongs to cos 2 pi x; a bump added to the potential
        # breaks the decomposition by 1.195 against an allowed 1e-9.
        x = vcos256.grid.nodes
        bumped = vcos256 + GridFunction(vcos256.grid,
                                        2.0 * np.exp(-(x - 0.5) ** 2 / 0.005))
        reference = admissible_from_eigen(eig_cos256, vcos256)
        ad = admissible_from_values(GridFunction(vcos256.grid,
                                                 -3.0 * np.cos(2 * np.pi * x)))
        with pytest.raises(DecompositionMismatch, match="off by"):
            pressure_gap(ad, eig_cos256, reference=reference, V=bumped)
        assert issubclass(DecompositionMismatch, RuntimeError)

    def test_nan_eigenvalue_raises_decomposition_mismatch(self, vcos256,
                                                          eig_cos256):
        # max(0.0, nan, nan) is 0.0, so a NaN offset used to pass as exact.
        reference = admissible_from_eigen(eig_cos256, vcos256)
        x = vcos256.grid.nodes
        ad = admissible_from_values(GridFunction(vcos256.grid,
                                                 0.5 * np.cos(2 * np.pi * x)))
        nan_sol = dataclasses.replace(eig_cos256, eigenvalue=float("nan"))
        _, (residual,), _ = pressure_decomposition([ad], reference, vcos256,
                                                   nan_sol)
        assert np.isnan(residual)
        with pytest.raises(DecompositionMismatch, match="off by nan"):
            pressure_gap(ad, nan_sol, reference=reference, V=vcos256)

    @pytest.mark.parametrize("error", [NonConvergence, PositivityViolation,
                                       DegenerateGap, DecompositionMismatch,
                                       EntropyMismatch])
    def test_named_failures_share_one_base(self, error):
        assert issubclass(error, NumericalFailure)
        assert issubclass(error, RuntimeError)

    def test_entropy_report_fields(self, vcos512, eig_cos512):
        ad = admissible_from_eigen(eig_cos512, vcos512)
        report = entropy_report(ad, vcos512, eig_cos512)
        assert report["entropy"] <= 1e-10
        assert report["gap"] >= -1e-8
        assert report["pressure"] + report["gap"] == pytest.approx(
            report["lambda"], abs=1e-9)
        assert report["lambda"] == eig_cos512.eigenvalue


    @pytest.mark.parametrize("shift", [-1.0, float("nan")])
    def test_entropy_report_rejects_pressure_above_eigenvalue(
            self, vcos512, eig_cos512, shift):
        ad = admissible_from_eigen(eig_cos512, vcos512)
        low = dataclasses.replace(eig_cos512,
                                  eigenvalue=eig_cos512.eigenvalue + shift)
        with pytest.raises(DecompositionMismatch, match="pressure exceeds"):
            entropy_report(ad, vcos512, low)


class TestMaximizePressure:
    def test_flat_potential_converges_to_zero(self):
        grid = make_grid(128)
        V = zero_fn(grid)
        result = maximize_pressure(V, K=4, lr=0.1, iters=50)
        assert abs(result.value) < 1e-8
        drift = derivative(result.spec.sample(grid), 1)
        assert np.max(np.abs(drift.values)) < 1e-6

    def test_trace_is_nondecreasing(self, vcos256):
        result = maximize_pressure(vcos256, K=4, lr=0.2, iters=60)
        values = [row[1] for row in result.trace]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_over_span_trial_steps_are_rejected(self, grid512):
        # lr * grad spans 400 at the start, and 512 nodes do not resolve its
        # e^{2g}: the line search must shrink that unresolved trial step
        # instead of letting the entropy cross-check raise.
        V = HarmonicSpec(harmonics=[(1, 1000.0, 0.0)]).sample(grid512)
        result = maximize_pressure(V, K=8, lr=0.2, iters=500)
        assert result.stop == "flat"
        values = [row[1] for row in result.trace]
        assert all(b >= a for a, b in zip(values, values[1:]))
        lam = principal_eigenpair(build_generator(V)).eigenvalue
        assert result.value <= lam + 1e-8

    def test_unresolved_trial_steps_are_rejected(self, grid512):
        # Some trial drifts for V = 300 cos 2 pi x have an e^{2g} that 512
        # nodes do not resolve, so their entropy forms disagree; the ascent
        # shrinks those steps and still climbs to within 1e-2 of lambda.
        V = HarmonicSpec(harmonics=[(1, 300.0, 0.0)]).sample(grid512)
        result = maximize_pressure(V, K=8, lr=0.2, iters=500)
        assert result.stop == "flat"
        lam = principal_eigenpair(build_generator(V)).eigenvalue
        assert lam - 1e-2 < result.value <= lam + 1e-8

    @pytest.mark.parametrize("n", [64, 256, 4096])
    def test_variation_matches_central_differences(self, n):
        grid = make_grid(n)
        rng = np.random.default_rng(n)
        V = HarmonicSpec(harmonics=[(1, 1.0, 0.0), (2, 0.0, 0.5)]).sample(grid)
        g = random_harmonic(grid, rng, scale=0.5)
        ad = admissible_from_values(g)
        w = thermo._pressure_variation(ad, V, pressure_value(ad, V))
        step = 1e-6
        for _ in range(3):
            direction = random_harmonic(grid, rng, kmax=12)
            up = pressure_value(admissible_from_values(g + step * direction), V)
            down = pressure_value(admissible_from_values(g - step * direction), V)
            central = (up - down) / (2.0 * step)
            assert abs(w @ direction.values - central) <= 1e-7 * abs(central)

    def test_ascent_evaluates_pressure_at_most_three_times_per_iteration(
            self, vcos256, monkeypatch):
        calls = []

        def counted(ad, V):
            calls.append(1)
            return pressure_value(ad, V)

        monkeypatch.setattr(thermo, "pressure_value", counted)
        result = maximize_pressure(vcos256, K=8, lr=0.2, iters=60)
        assert len(calls) <= 3 * (len(result.trace) - 1)

    def test_gradient_only_for_start_and_accepted_steps(self, vcos256,
                                                        monkeypatch):
        pressure_calls, gradient_values = [], []
        variation = thermo._pressure_variation

        def counted_value(ad, V):
            pressure_calls.append(1)
            return pressure_value(ad, V)

        def counted_variation(ad, V, value):
            gradient_values.append(value)
            return variation(ad, V, value)

        monkeypatch.setattr(thermo, "pressure_value", counted_value)
        monkeypatch.setattr(thermo, "_pressure_variation", counted_variation)
        result = maximize_pressure(vcos256, K=8, lr=0.2, iters=60)
        values = [row[1] for row in result.trace]
        rises = [b for a, b in zip(values, values[1:]) if b > a]
        # One gradient at the start, then one per accepted candidate.
        assert gradient_values[0] == values[0]
        assert len(rises) + 1 <= len(gradient_values) <= len(result.trace)
        assert set(gradient_values) <= set(values)
        assert len(gradient_values) < len(pressure_calls)

    def test_stop_reason_gradient(self):
        grid = make_grid(128)
        result = maximize_pressure(zero_fn(grid), K=4, lr=0.1, iters=50)
        assert result.stop == "gradient"
        assert result.grad_norm < 1e-8
        assert result.grad_norm == result.trace[-1][2]

    def test_stop_reason_budget(self, vcos256):
        # Ten steps bring the gradient near 1e-7, settled but not below 1e-8.
        result = maximize_pressure(vcos256, K=8, lr=0.2, iters=10)
        assert result.stop == "budget"
        assert len(result.trace) == 11
        assert 1e-8 <= result.grad_norm < 1e-6
        assert result.grad_norm == result.trace[-1][2]

    def test_stop_reason_flat(self, vcos256, monkeypatch):
        calls = []

        def counted(ad, V):
            calls.append(1)
            return pressure_value(ad, V)

        monkeypatch.setattr(thermo, "pressure_value", counted)
        # Well inside the budget, the gradient still above 1e-8, yet no step
        # can rise above the pressure's roundoff.
        result = maximize_pressure(vcos256, K=8, lr=0.2, iters=60)
        assert result.stop == "flat"
        assert len(result.trace) <= 30
        assert result.grad_norm >= 1e-8
        assert result.grad_norm == result.trace[-1][2]
        # A potential so weak that the first step's predicted rise,
        # lr |grad|^2 = 1.8e-16, is below roundoff stops before any step.
        calls.clear()
        weak = vcos256 * 3e-8
        result = maximize_pressure(weak, K=8, lr=0.2, iters=60)
        assert result.stop == "flat"
        assert len(result.trace) == 1 and len(calls) == 1
        assert result.grad_norm == pytest.approx(3e-8, rel=1e-6)

    def test_budget_exhaustion_raises(self, vcos256):
        from fk_thermo import NonConvergence
        with pytest.raises(NonConvergence):
            maximize_pressure(vcos256, K=4, lr=0.01, iters=3)

    def test_parameter_validation(self, vcos256):
        with pytest.raises(ValueError):
            maximize_pressure(vcos256, K=0, lr=0.1, iters=10)
        with pytest.raises(ValueError):
            maximize_pressure(vcos256, K=100, lr=0.1, iters=10)
        with pytest.raises(ValueError):
            maximize_pressure(vcos256, K=4, lr=-1.0, iters=10)
        with pytest.raises(ValueError):
            maximize_pressure(vcos256, K=4, lr=0.1, iters=0)


class TestEigenConsistentDrift:
    def test_free_case_entropy_vanishes(self, grid512):
        V = zero_fn(grid512)
        sol = principal_eigenpair(build_generator(V))
        ad = admissible_from_eigen(sol, V)
        assert abs(relative_entropy(ad)) < 1e-12
        assert abs(pressure_value(ad, V)) < 1e-10

    def test_reference_close_to_plain_log_gradient(self, vcos512, eig_cos512):
        ad = admissible_from_eigen(eig_cos512, vcos512)
        assert np.max(np.abs(ad.drift.values - eig_cos512.drift.values)) < 1e-4

    def test_drift_matches_dense_fourier_oracle(self, vcos256, eig_cos256):
        ad = admissible_from_eigen(eig_cos256, vcos256)
        oracle = fourier_companion_drift(256, "cos1")
        assert np.max(np.abs(ad.drift.values - oracle)) <= 1e-9

    @pytest.mark.parametrize("n", [4, 256, 4096])
    def test_fourier_symbol_below_stencil_symbol(self, n):
        # The Fourier second derivative never exceeds the stencil's, mode by
        # mode, so the Fourier eigenvalue sits below the stencil one.
        grid = make_grid(n)
        unit = np.zeros(n)
        unit[0] = 1.0
        stencil = build_generator(zero_fn(grid)).apply(unit)
        fourier = 0.5 * derivative(GridFunction(grid, unit), 2).values
        stencil_symbol = np.fft.rfft(stencil).real
        fourier_symbol = np.fft.rfft(fourier).real
        assert np.all(fourier_symbol <= stencil_symbol + 1e-12 * n**2)

    def test_large_grid_eigenpair_and_companion(self):
        grid = make_grid(65536)
        V = HarmonicSpec(harmonics=[(1, 1.0, 0.0), (2, 0.0, 0.5)]).sample(grid)
        sol = principal_eigenpair(build_generator(V))  # residual guard inside
        ad = admissible_from_eigen(sol, V)
        assert abs(pressure_value(ad, V) - sol.eigenvalue) <= 1e-7

    def test_stalled_newton_raises(self, vcos512, eig_cos512, monkeypatch):
        # A linear solve that returns its right-hand side never halves the
        # Riccati residual, so Newton stops at the seed, above the bound.
        monkeypatch.setattr(thermo, "gmres", lambda A, b, **kw: (b, 1))
        with pytest.raises(NonConvergence, match="companion residual"):
            admissible_from_eigen(eig_cos512, vcos512)

    @pytest.mark.parametrize("n, amp, expected, tol", [
        pytest.param(512, 5000.0, 4779.096522, 1e-6, id="512"),
        pytest.param(2048, 5000.0, 4779.096522, 1e-6, id="2048"),
        pytest.param(2048, 1e4, 9687.079338, 1e-5, id="2048-1e4"),
        pytest.param(2048, 3e4, 29457.09671, 1e-5, id="2048-3e4"),
        pytest.param(2048, 1e5, 99007.77641, 1e-5, id="2048-1e5"),
        pytest.param(4096, 3e5, 298280.5134241, 1e-5, id="4096-3e5"),
        pytest.param(8192, 1e6, 996859.641532, 1e-5, id="8192-1e6"),
    ])
    def test_strong_potential_companion(self, n, amp, expected, tol):
        # min F is about 3e-19 at n=512, below any relative tolerance on an
        # eigenvector; the log-domain solve never forms one.  From amp = 1e4
        # on, the seed log F needs the eigenvector's tail node by node.  From
        # 3e5 on, the density underflows to zero far from the well.
        grid = make_grid(n)
        V = GridFunction(grid, amp * np.cos(2 * np.pi * grid.nodes))
        sol = principal_eigenpair(build_generator(V))
        ad = admissible_from_eigen(sol, V)
        assert abs(pressure_value(ad, V) - expected) <= tol

    @pytest.mark.parametrize("n, a, b", [(512, 0.0, 2000.0), (2048, 0.0, 2000.0),
                                         (4096, 2000.0, 0.0)])
    def test_symmetric_double_well_companion(self, n, a, b):
        # Two wells with a spectral gap of about 4e-9.  With a Schur cut in
        # one well only, the preconditioner's tridiagonal block was as nearly
        # singular as the gap, GMRES stalled and Newton raised NonConvergence.
        V = HarmonicSpec(harmonics=[(2, a, b)]).sample(make_grid(n))
        sol = principal_eigenpair(build_generator(V))
        ad = admissible_from_eigen(sol, V)
        assert abs(pressure_value(ad, V) - 1724.033837946) <= 1e-8


class TestCompanionProperty:
    """admissible_from_eigen over one harmonic, k <= 4, amplitude 1e-2..5000:
    a finite drift solving the Riccati equation, or a named error."""

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(n=st.sampled_from([16, 64, 256, 1024]),
                      k=st.integers(1, 4),
                      log_amp=st.floats(-2.0, np.log10(5000.0)),
                      phase=st.floats(0.0, 2 * np.pi))
    def test_solves_riccati_or_raises_named(self, n, k, log_amp, phase):
        amp = 10.0**log_amp
        grid = make_grid(n)
        V = HarmonicSpec(harmonics=[(k, amp * np.cos(phase),
                                     amp * np.sin(phase))]).sample(grid)
        try:
            sol = principal_eigenpair(build_generator(V))
            ad = admissible_from_eigen(sol, V)
            pressure = pressure_value(ad, V)
        except (NonConvergence, DegenerateGap, PositivityViolation,
                EntropyMismatch, ValueError):
            return
        assert np.isfinite(ad.drift.values).all()
        assert np.isfinite(ad.curvature.values).all() and np.isfinite(pressure)
        # R + lam = D(Dg)/2 + (Dg)^2/2 + V without its Nyquist mode; the
        # constant that fits it best in max norm stands in for lam.
        drift = derivative(ad.potential, 1)
        rest = (derivative(drift, 1) + drift * drift) * 0.5 + V
        rest = np.fft.irfft(np.fft.rfft(rest.values)[: n // 2], n)
        lam = 0.5 * (rest.max() + rest.min())
        bound = max(1e-9, 6 * np.finfo(float).eps * n**2) * max(1.0, abs(lam))
        assert 0.5 * (rest.max() - rest.min()) <= bound


class TestRawArrayFormsAreBitwise:
    """The pressure functions compute on raw arrays; each must keep the bits
    of its GridFunction-form expression built from derivative, integrate and
    GridFunction arithmetic."""

    @pytest.fixture(params=[64, 256, 384, 4096])
    def case(self, request):
        grid = make_grid(request.param)
        rng = np.random.default_rng(request.param + 7)
        drifts = [random_harmonic(grid, rng, scale=0.5) for _ in range(3)]
        V = HarmonicSpec(harmonics=[(1, 1.0, 0.0), (2, 0.0, 0.5)]).sample(grid)
        return V, drifts

    def test_admissible_fields(self, case):
        _, drifts = case
        for g in drifts:
            ad = admissible_from_values(g)
            drift = derivative(g, 1)
            curvature = derivative(drift, 1)
            weights = np.exp(2.0 * (g.values - np.max(g.values)))
            mass_shifted = g.grid.h * float(np.sum(weights))
            assert ad.potential is g
            assert np.array_equal(ad.drift.values, drift.values)
            assert np.array_equal(ad.curvature.values, curvature.values)
            assert np.array_equal(ad.density.values, weights / mass_shifted)

    def test_entropy_pressure_and_variation(self, case):
        V, drifts = case
        for g in drifts:
            ad = admissible_from_values(g)
            entropy = 0.5 * integrate((ad.curvature + ad.drift * ad.drift)
                                      * ad.density)
            pressure = entropy + integrate(V * ad.density)
            assert relative_entropy(ad) == entropy
            assert pressure_value(ad, V) == pressure
            mu = GridFunction(g.grid, ad.density.values * g.grid.h)
            a = V + (ad.curvature + ad.drift * ad.drift) * 0.5
            w = (derivative(derivative(mu * 0.5, 1), 1)
                 - derivative(mu * ad.drift, 1) + mu * (a - pressure) * 2.0)
            assert np.array_equal(thermo._pressure_variation(ad, V, pressure),
                                  w.values)

    def test_decomposition_gap(self, case):
        V, drifts = case
        sol = principal_eigenpair(build_generator(V))
        reference, *others = [admissible_from_values(g) for g in drifts]
        gaps, _, _ = pressure_decomposition(others, reference, V, sol)
        for ad, gap in zip(others, gaps):
            diff = reference.drift - ad.drift
            assert gap == 0.5 * integrate(diff * diff * ad.density)


class TestDecompositionProperty:
    """pressure_decomposition over one harmonic V, k <= 4, amplitude
    1e-2..100: within tolerance at the true eigenvalue and failing once the
    eigenvalue moves by the bracket width plus twice the tolerance, or a
    named error before the check."""

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(n=st.sampled_from([128, 256, 512, 1024]),
                      k=st.integers(1, 4),
                      log_amp=st.floats(-2.0, 2.0),
                      phase=st.floats(0.0, 2 * np.pi),
                      seed=st.integers(0, 2**16))
    def test_true_eigenvalue_passes_and_faults_fail(self, n, k, log_amp, phase,
                                                    seed):
        amp = 10.0**log_amp
        grid = make_grid(n)
        V = HarmonicSpec(harmonics=[(k, amp * np.cos(phase),
                                     amp * np.sin(phase))]).sample(grid)
        rng = np.random.default_rng(seed)
        try:
            sol = principal_eigenpair(build_generator(V))
            reference = admissible_from_eigen(sol, V)
            ads = [admissible_from_values(random_harmonic(grid, rng))
                   for _ in range(3)]
            _, residuals, tolerance = pressure_decomposition(ads, reference,
                                                             V, sol)
        except (NonConvergence, DegenerateGap, PositivityViolation,
                EntropyMismatch):
            return
        assert max(residuals) <= tolerance
        width = (stencil_excess(grid, sol.eigenfunction.values)
                 - stencil_excess(grid, np.exp(reference.potential.values)))
        for sign in (1.0, -1.0):
            faulty = dataclasses.replace(
                sol, eigenvalue=sol.eigenvalue + sign * (width + 2 * tolerance))
            _, moved, same = pressure_decomposition(ads, reference, V, faulty)
            assert same == tolerance
            assert max(moved) > tolerance
