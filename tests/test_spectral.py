import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from fk_thermo import (DegenerateGap, GridFunction, HarmonicSpec,
                       NonConvergence, PositivityViolation, build_generator,
                       critical_point_count, derivative, eigen_probability,
                       gibbs_density, integrate, make_grid,
                       principal_eigenpair, spectral)
from fk_thermo.spectral import (OperatorMatrix, _CyclicLU, doob_generator,
                                laplacian_half, roundoff_bound)
from fk_thermo.thermo import _basin_peaks

from conftest import random_harmonic
from oracles import fd_operator, fd_top_eigenvalue, richardson_eigenvalue


def constant_potential(grid, c=0.0):
    return GridFunction(grid, np.full(grid.n, float(c)))


def csr(op):
    """scipy CSR array of op's three bands, column indices sorted in each row."""
    n = op.grid.n
    idx = np.arange(n)
    m = sp.csr_array((np.concatenate([op.diag, op.up, op.low]),
                      (np.tile(idx, 3), np.concatenate([idx, (idx + 1) % n, (idx - 1) % n]))),
                     shape=(n, n))
    assert m.has_sorted_indices and m.nnz == 3 * n
    return m


class TestBuildGenerator:
    def test_stencil_entries_n4(self):
        grid = make_grid(4)
        op = build_generator(constant_potential(grid))
        n2 = 16.0
        expected = np.array([
            [-n2, n2 / 2, 0.0, n2 / 2],
            [n2 / 2, -n2, n2 / 2, 0.0],
            [0.0, n2 / 2, -n2, n2 / 2],
            [n2 / 2, 0.0, n2 / 2, -n2],
        ])
        assert np.array_equal(csr(op).toarray(), expected)

    def test_kills_constants(self, grid512, vcos512):
        op = build_generator(vcos512)
        const = np.full(grid512.n, 2.5)
        assert np.allclose(op.apply(const), vcos512.values * const, atol=1e-9)

    def test_exact_symmetry(self, vcos512):
        op = build_generator(vcos512)
        assert op.symmetric
        assert np.array_equal(csr(op).toarray(), csr(op).T.toarray())

    def test_laplacian_row_sums_vanish(self, grid512):
        row_sums = laplacian_half(grid512).apply(np.ones(grid512.n))
        assert np.max(np.abs(row_sums)) < 1e-12 * grid512.n**2

    def test_matches_inline_oracle_stencil(self):
        grid = make_grid(64)
        V = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid)
        assert np.array_equal(csr(build_generator(V)).toarray(),
                              fd_operator(64, "cos1"))

    def test_storage_linear_in_n(self, vcos512):
        op = build_generator(vcos512)
        assert op.diag.nbytes + op.up.nbytes + op.low.nbytes <= 24 * 512

    @pytest.mark.parametrize("n", [8, 64])
    def test_stencil_excess_matches_dense_difference(self, n):
        # E = stencil minus the Fourier half-Laplacian, built densely from
        # the DFT matrix: positive semidefinite, with the same quotient.
        grid = make_grid(n)
        k = np.fft.fftfreq(n, d=1.0 / n)
        dft = np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n)
        fourier = (dft.conj().T @ np.diag(-0.5 * (2 * np.pi * k) ** 2)
                   @ dft).real / n
        excess = csr(laplacian_half(grid)).toarray() - fourier
        assert np.linalg.eigvalsh(excess).min() >= -1e-12 * n**2
        rng = np.random.default_rng(n)
        for v in (rng.standard_normal(n), np.exp(np.cos(2 * np.pi * grid.nodes))):
            assert spectral.stencil_excess(grid, v) == pytest.approx(
                v @ excess @ v / (v @ v), rel=1e-9, abs=1e-12 * n**2)

    def test_asymmetric_matrix_rejected(self, grid512):
        half = laplacian_half(grid512)
        up = half.up.copy()
        up[0] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            principal_eigenpair(OperatorMatrix(grid512, half.diag, up, half.low))


class TestBands:
    """OperatorMatrix's helpers against a CSR array of the same bands."""

    CASES = [(4, [(1, 1.0, 0.5)]), (6, [(1, 1.0, 0.5), (2, -0.3, 0.2)]),
             (64, [(1, 0.0, -4.0), (3, 2.0, 1.0)]), (4096, [(1, 0.0, -4.0)]),
             (4096, [(1, 3e5, 0.0)])]  # the last: min F about 1e-150

    @staticmethod
    def stencils(n, harmonics):
        V = HarmonicSpec(constant=0.3, harmonics=harmonics).sample(make_grid(n))
        op = build_generator(V)
        return {"generator": op, "half-laplacian": laplacian_half(V.grid),
                "doob": doob_generator(principal_eigenpair(op), V)}

    @pytest.mark.parametrize("n, harmonics", CASES)
    def test_apply_is_the_csr_matvec(self, n, harmonics):
        # Rows 0 and n-1 add their wrapped column in sorted order, not last:
        # a roll-ordered sum low v[i-1] + diag v[i] + up v[i+1] differs there.
        rng = np.random.default_rng(n)
        corners = np.zeros(n)
        corners[[0, 1, -2, -1]] = rng.standard_normal(4)
        for name, op in self.stencils(n, harmonics).items():
            ref = csr(op)
            for v in [corners] + [rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5)
                                  for _ in range(50)]:
                assert np.array_equal(op.apply(v), ref @ v), name

    @pytest.mark.parametrize("n, harmonics", CASES[:3])
    def test_shifted_is_the_dense_combination(self, n, harmonics):
        for name, op in self.stencils(n, harmonics).items():
            dense = csr(op).toarray()
            for a, b in [(1.0, -0.05), (7.25, -1.0), (0.0, -1.0), (-3.0, 2.5)]:
                expected = a * np.eye(n) + b * dense
                assert np.array_equal(csr(op.shifted(a, b)).toarray(), expected), name

    @pytest.mark.parametrize("n, harmonics", CASES)
    def test_gershgorin_bound_is_the_csr_row_sum(self, n, harmonics, monkeypatch):
        # The Lanczos shift sits max(1, 1e-12 |bound|) above the bound, read
        # here from the sigma handed to eigsh.
        shifts = []

        def recording(*args, sigma, **kwargs):
            shifts.append(sigma)
            return eigsh(*args, sigma=sigma, **kwargs)

        op = self.stencils(n, harmonics)["generator"]
        ref = csr(op)
        bound = float(np.max(ref.diagonal() + abs(ref).sum(axis=1) - np.abs(ref.diagonal())))
        monkeypatch.setattr(spectral, "eigsh", recording)
        principal_eigenpair(op)
        assert shifts == [bound + max(1.0, 1e-12 * abs(bound))]

    def test_symmetric_reads_the_off_diagonals(self, grid512):
        half = laplacian_half(grid512)
        assert half.symmetric
        for i in (0, 17, grid512.n - 1):
            low = half.low.copy()
            low[i] *= 1.0 + 2.0**-52
            assert not OperatorMatrix(grid512, half.diag, half.up, low).symmetric

    def test_bands_are_read_only_copies(self, grid512):
        diag = np.zeros(grid512.n)
        op = OperatorMatrix(grid512, diag, diag, diag)
        diag[0] = 1.0
        assert op.diag[0] == 0.0
        with pytest.raises(ValueError):
            op.up[0] = 1.0
        with pytest.raises(ValueError, match="shape"):
            OperatorMatrix(grid512, diag[:-1], diag, diag)


class TestPrincipalEigenpair:
    def test_free_case(self, grid512):
        sol = principal_eigenpair(build_generator(constant_potential(grid512)))
        assert abs(sol.eigenvalue) < 1e-10
        assert np.max(np.abs(sol.eigenfunction.values - 1.0)) < 1e-9
        assert np.max(np.abs(sol.drift.values)) < 1e-9
        assert sol.spectral_gap > 10

    def test_constant_shift(self, grid512):
        sol = principal_eigenpair(build_generator(constant_potential(grid512, 1.7)))
        assert sol.eigenvalue == pytest.approx(1.7, abs=1e-10)
        assert np.max(np.abs(sol.eigenfunction.values - 1.0)) < 1e-9

    def test_shift_covariance(self, grid512, vcos512, eig_cos512):
        rng = np.random.default_rng(21)
        for c in rng.uniform(-10, 10, 3):
            shifted = principal_eigenpair(build_generator(vcos512 + c))
            assert abs(shifted.eigenvalue - eig_cos512.eigenvalue - c) < 1e-9
            diff = shifted.eigenfunction.values - eig_cos512.eigenfunction.values
            assert np.max(np.abs(diff)) < 1e-9

    def test_rayleigh_identity(self, vcos512, eig_cos512):
        op = build_generator(vcos512)
        F = eig_cos512.eigenfunction
        rayleigh = integrate(GridFunction(F.grid, F.values * op.apply(F.values)))
        rayleigh /= integrate(F * F)
        assert abs(rayleigh - eig_cos512.eigenvalue) < 1e-10

    def test_mean_potential_lower_bound(self, grid512):
        rng = np.random.default_rng(22)
        for _ in range(5):
            V = random_harmonic(grid512, rng) + rng.uniform(-2, 2)
            sol = principal_eigenpair(build_generator(V))
            assert integrate(V) <= sol.eigenvalue + 1e-9

    def test_drift_matches_log_gradient(self, eig_cos512):
        F = eig_cos512.eigenfunction
        expected = derivative(F, 1).values / F.values
        assert np.max(np.abs(eig_cos512.drift.values - expected)) < 1e-8

    def test_eigenvalue_against_fine_grid_oracle(self, eig_cos512):
        assert abs(eig_cos512.eigenvalue - richardson_eigenvalue("cos1")) < 1e-6

    def test_second_order_convergence(self):
        target = richardson_eigenvalue("cos1")
        errors = []
        for n in (128, 256):
            grid = make_grid(n)
            V = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid)
            sol = principal_eigenpair(build_generator(V))
            errors.append(abs(sol.eigenvalue - target))
        assert errors[0] / errors[1] >= 3.5

    def test_normalization(self, eig_cos512):
        F = eig_cos512.eigenfunction
        assert integrate(F * F) == pytest.approx(1.0, abs=1e-12)
        assert eig_cos512.normalization == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [512, 1024])
    def test_residual_at_design_sizes(self, n):
        grid = make_grid(n)
        V = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid)
        op = build_generator(V)
        sol = principal_eigenpair(op)
        F = sol.eigenfunction.values
        residual = np.max(np.abs(op.apply(F) - sol.eigenvalue * F))
        assert residual / np.max(np.abs(F)) <= 1e-9

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(n=st.sampled_from([2048, 4096]),
                      coefficients=st.lists(st.tuples(st.floats(-5.0, 5.0),
                                                      st.floats(-5.0, 5.0)),
                                            min_size=1, max_size=4))
    @hypothesis.example(n=2048,
                        coefficients=[(1.4525101445426223, 3.7669513610591183)])
    @hypothesis.example(n=4096, coefficients=[(0.0, -4.0)])
    def test_residual_at_large_n(self, n, coefficients):
        # The guard is 6 eps n^2 here; sweeps on an unpivoted LU of the
        # M-matrix leave a residual of about one matrix-vector product.
        grid = make_grid(n)
        V = HarmonicSpec(harmonics=[(k, a, b) for k, (a, b)
                                    in enumerate(coefficients, 1)]).sample(grid)
        op = build_generator(V)
        sol = principal_eigenpair(op)
        F = sol.eigenfunction.values
        residual = np.max(np.abs(op.apply(F) - sol.eigenvalue * F))
        assert residual / np.max(np.abs(F)) <= roundoff_bound(n)

    def test_tail_accurate_at_large_amplitude(self):
        # Solves of a positive vector by the unpivoted factors add positive
        # terms only, so the tail is accurate node by node (about 1.8e-87).
        grid = make_grid(2048)
        V = GridFunction(grid, 1e5 * np.cos(2 * np.pi * grid.nodes))
        F = principal_eigenpair(build_generator(V)).eigenfunction.values
        assert F.min() / F.max() < 1e-80

    def test_unsettled_sweeps_stop_at_the_cap(self):
        # A rotation never settles: every sweep moves the nodes, and the
        # iteration hands back its last vector without raising.
        calls = []

        def rotate(b):
            calls.append(1)
            return np.roll(b, 1)

        v, sweeps = spectral.inverse_iteration(rotate, np.arange(1.0, 65.0))
        assert len(calls) == sweeps == spectral._MAX_SWEEPS
        assert v.shape == (64,) and np.linalg.norm(v) == pytest.approx(1.0)

    def test_health_numbers_are_the_guards_own(self, vcos512, monkeypatch):
        # The residual, its bound, the sweep count and min F / max F are the
        # numbers the solve computed, not estimates made after it.
        op = build_generator(vcos512)
        counted, inverse_iteration = [], spectral.inverse_iteration

        def counting(solve, start):
            v, sweeps = inverse_iteration(solve, start)
            counted.append(sweeps)
            return v, sweeps

        monkeypatch.setattr(spectral, "inverse_iteration", counting)
        sol = principal_eigenpair(op)
        F = sol.eigenfunction.values
        assert sol.residual == np.max(np.abs(op.apply(F) - sol.eigenvalue * F)) / F.max()
        assert sol.residual <= sol.residual_bound == roundoff_bound(512)
        assert [sol.sweeps] == counted and 1 <= sol.sweeps < spectral._MAX_SWEEPS
        assert sol.min_F == F.min() / F.max() and 0 < sol.min_F < 1

    def test_degenerate_gap_raises(self, grid512):
        zero = np.zeros(grid512.n)
        flat = OperatorMatrix(grid512, zero, zero, zero)
        with pytest.raises(DegenerateGap):
            principal_eigenpair(flat)

    def test_spectral_gap_matches_oracle(self, eig_cos256):
        top = np.linalg.eigvalsh(fd_operator(256, "cos1"))[-2:]
        assert abs(eig_cos256.spectral_gap - (top[1] - top[0])) <= 1e-9

    def test_repeat_solves_bit_identical(self, vcos512):
        # ARPACK's default start vector is random and its generator state
        # carries across calls; a fixed start vector makes solves repeatable.
        op = build_generator(vcos512)
        solves = [principal_eigenpair(op) for _ in range(4)]
        assert len({s.spectral_gap for s in solves}) == 1
        assert len({s.eigenvalue for s in solves}) == 1
        assert len({s.eigenfunction.values.tobytes() for s in solves}) == 1

    def test_lanczos_nonconvergence_raises(self, vcos512, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0),
                                      np.empty((512, 0)))
        monkeypatch.setattr(spectral, "eigsh", stalled)
        with pytest.raises(NonConvergence):
            principal_eigenpair(build_generator(vcos512))

    def test_residual_guard_raises_nonconvergence(self, vcos512, monkeypatch):
        # A positive vector that is not an eigenvector trips the residual guard.
        def wrong_vector(solve, start):
            return 2.0 + np.sin(2 * np.pi * vcos512.grid.nodes), 1
        monkeypatch.setattr(spectral, "inverse_iteration", wrong_vector)
        with pytest.raises(NonConvergence, match="residual"):
            principal_eigenpair(build_generator(vcos512))

    @pytest.mark.parametrize("c", [1e20, -1e20, 1e200, 1e300])
    def test_huge_constant_potential_names_its_error(self, c):
        # A shift of bound + 1 rounds to the bound itself at these sizes,
        # and the LU of the shifted matrix would be exactly singular.
        op = build_generator(constant_potential(make_grid(64), c))
        with pytest.raises(DegenerateGap):
            principal_eigenpair(op)

    @pytest.mark.parametrize("amplitude", [1e200, 1e300])
    def test_underflowing_solve_names_its_error(self, amplitude):
        # The solves underflow, so a sweep divides by a zero norm and returns
        # an infinite vector, which must fail the positivity guard; a numpy
        # warning leaking from the solve fails the test.
        V = HarmonicSpec(harmonics=[(1, amplitude, 0.0)]).sample(make_grid(64))
        with pytest.raises(PositivityViolation):
            principal_eigenpair(build_generator(V))

    def test_positivity_guard_raises(self, grid512):
        # Negated Laplacian: the top eigenvector is the most oscillatory mode.
        op = laplacian_half(grid512).shifted(0.0, -1.0)
        with pytest.raises((PositivityViolation, DegenerateGap)):
            principal_eigenpair(op)


def shifted_systems(V):
    """(name, stencil, border, cuts) of every system the package factors, for V.

    The Lanczos shift above the Gershgorin bound and inverse iteration's
    near-singular shift of shift I - A; the Krylov kernel's I - gamma M in the
    flat frame and in the Doob frame, gamma = 0.05; the companion's Doob
    generator bordered by the -1 column and the h row, cut at F's peaks.
    """
    n, h = V.grid.n, V.grid.h
    op = build_generator(V)
    A, sol = csr(op), principal_eigenpair(op)
    lam, L = sol.eigenvalue, doob_generator(sol, V)
    sigma = np.max(A.diagonal() + np.abs(A).sum(axis=1) - np.abs(A.diagonal())) + 1.0
    flat = build_generator(V - max(float(V.values.max()), 0.0))
    return [("lanczos", op.shifted(sigma, -1.0), None, (-1,)),
            ("inverse", op.shifted(lam + 1e-8 * max(1.0, abs(lam)), -1.0), None, (-1,)),
            ("flat", flat.shifted(1.0, -0.05), None, (-1,)),
            ("doob", L.shifted(1.0, -0.05), None, (-1,)),
            ("companion", L, (-np.ones(n), np.full(n, h)), (-1,)),
            ("companion-peaks", L, (-np.ones(n), np.full(n, h)),
             _basin_peaks(sol.eigenfunction.values))]


def bordered(op, border):
    """The full sparse matrix of a _CyclicLU system."""
    if border is None:
        return csr(op)
    return sp.block_array([[csr(op), border[0][:, None]], [border[1][None, :], None]],
                          format="csr")


def backward_error(matrix, x, b):
    """Normwise backward error |M x - b| / (|M|_inf |x|_inf)."""
    return (np.max(np.abs(matrix @ x - b))
            / (np.max(np.abs(matrix).sum(axis=1)) * np.max(np.abs(x))))


class TestCyclicLU:
    """_CyclicLU on every kind of shifted system, against the full matrix."""

    EPS = np.finfo(float).eps

    @staticmethod
    def potentials(grid):
        rng = np.random.default_rng(28)
        kmax = min(4, grid.n // 2 - 1)
        return [HarmonicSpec(harmonics=[(1, 0.0, -4.0)]).sample(grid),
                random_harmonic(grid, rng, kmax=kmax, scale=5.0),
                random_harmonic(grid, rng, kmax=kmax, scale=5.0)]

    @pytest.mark.parametrize("n", [4, 6, 64, 4096])
    def test_backward_error_within_two_eps(self, n):
        # Against the full sparse matrix.  Without the refinement of T^{-1} C
        # the companion's solve reached 38 eps on these potentials at n = 4096.
        rng = np.random.default_rng(n)
        for V in self.potentials(make_grid(n)):
            for name, op, border, cuts in shifted_systems(V):
                b = rng.standard_normal(n if border is None else n + 1)
                x = _CyclicLU(op, border, cuts).solve(b)
                full = bordered(op, border)
                error = backward_error(full, x, b)
                assert error <= 2.0 * self.EPS, (name, error / self.EPS)
                if n <= 64:
                    dense = full.toarray()
                    reference = np.linalg.solve(dense, b)
                    bound = 8.0 * self.EPS * np.linalg.cond(dense, np.inf)
                    assert np.max(np.abs(x - reference)) <= bound * np.max(np.abs(reference))

    @pytest.mark.parametrize("cuts", [(0,), (0, 1), (63, 0), (5, 6, 40)])
    def test_any_cut_set(self, cuts):
        # Adjacent cuts couple inside S, and a cut at node 0 or across the
        # wrap makes T start mid-cycle.
        rng = np.random.default_rng(64)
        for name, op, border, _ in shifted_systems(self.potentials(make_grid(64))[1]):
            b = rng.standard_normal(64 if border is None else 65)
            x = _CyclicLU(op, border, cuts).solve(b)
            error = backward_error(bordered(op, border), x, b)
            assert error <= 2.0 * self.EPS, (name, error / self.EPS)

    def test_failures_are_named(self):
        # A symmetric matrix must be positive definite for LDL^T; D/2 is not.
        with pytest.raises(spectral.NumericalFailure, match="pivot 1"):
            _CyclicLU(laplacian_half(make_grid(8)))


class TestDoobGenerator:
    @staticmethod
    def composed(solution, V):
        """diag(1/F) (A - lambda I) diag(F) as three sparse products."""
        F, n = solution.eigenfunction.values, V.grid.n
        return (sp.diags_array(1.0 / F) @ (csr(build_generator(V))
                - solution.eigenvalue * sp.eye_array(n)) @ sp.diags_array(F))

    @pytest.mark.parametrize("n, harmonics", [
        (4, [(1, 1.0, 0.5)]), (6, [(1, 1.0, 0.5), (2, -0.3, 0.2)]),
        (64, [(1, 0.0, -4.0), (3, 2.0, 1.0)]), (4096, [(1, 0.0, -4.0)]),
        (4096, [(1, 3e5, 0.0)])])  # the last: min F about 1e-150
    def test_bands_are_the_composed_product(self, n, harmonics):
        V = HarmonicSpec(constant=0.3, harmonics=harmonics).sample(make_grid(n))
        sol = principal_eigenpair(build_generator(V))
        L, reference = csr(doob_generator(sol, V)), self.composed(sol, V)
        assert np.array_equal(L.toarray(), reference.toarray())
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(L, part), getattr(reference, part)), part


class TestDensities:
    def test_free_case_uniform(self, grid512):
        sol = principal_eigenpair(build_generator(constant_potential(grid512)))
        assert np.max(np.abs(gibbs_density(sol).values - 1.0)) < 1e-9
        assert np.max(np.abs(eigen_probability(sol).values - 1.0)) < 1e-9

    def test_normalized(self, eig_cos512):
        assert integrate(gibbs_density(eig_cos512)) == pytest.approx(1.0, abs=1e-10)
        assert integrate(eigen_probability(eig_cos512)) == pytest.approx(1.0, abs=1e-12)

    def test_density_filters_through_eigen_probability(self, eig_cos512):
        mu = gibbs_density(eig_cos512).values
        nu = eigen_probability(eig_cos512).values
        ratio = mu / (eig_cos512.eigenfunction.values * nu)
        assert (ratio.max() - ratio.min()) / ratio.mean() < 1e-10

    def test_translation_covariance(self, grid512):
        base = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid512)
        shift_nodes = 37
        s = shift_nodes * grid512.h
        shifted_spec = HarmonicSpec(harmonics=[
            (1, float(np.cos(2 * np.pi * s)), float(-np.sin(2 * np.pi * s))),
        ])
        shifted = shifted_spec.sample(grid512)  # cos(2 pi (x + s))
        mu_base = gibbs_density(principal_eigenpair(build_generator(base)))
        mu_shift = gibbs_density(principal_eigenpair(build_generator(shifted)))
        rolled = np.roll(mu_base.values, -shift_nodes)
        assert np.max(np.abs(mu_shift.values - rolled)) < 1e-9


class TestCriticalPoints:
    def test_constant(self, grid512):
        assert critical_point_count(constant_potential(grid512, 4.2)) == 0

    def test_cosine(self, grid512, vcos512):
        assert critical_point_count(vcos512) == 2

    def test_eigenfunction_of_two_critical_point_potential(self, eig_cos512):
        assert critical_point_count(eig_cos512.eigenfunction) < 4

    def test_two_harmonics(self, grid512):
        f = HarmonicSpec(harmonics=[(2, 1.0, 0.0)]).sample(grid512)
        assert critical_point_count(f) == 4


def test_independent_oracle_matches_itself():
    # Sanity of the test-side oracle: plain h^2 convergence toward Richardson.
    target = richardson_eigenvalue("cos1")
    e1 = abs(fd_top_eigenvalue(128, "cos1") - target)
    e2 = abs(fd_top_eigenvalue(256, "cos1") - target)
    assert 3.0 < e1 / e2 < 5.0
