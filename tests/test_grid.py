import re

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import fk_thermo.grid as grid_module
from fk_thermo import (GridFunction, HarmonicSpec, derivative,
                       function_from_csv, integrate, make_grid)
from fk_thermo.grid import periodic_reader, wrap

from conftest import random_harmonic

# CSV cells that float() may or may not read, none holding a comma or quote.
_CELLS = st.one_of(
    st.sampled_from(["", " ", "nan", "NaN", "inf", "-inf", "1e400", "abc",
                     "0x1", "1_0", "-0", "0.25 "]),
    st.floats().map(repr),
    st.text(alphabet="0123456789.eE+-naif_ ", max_size=8))


class TestMakeGrid:
    def test_small_grid_nodes(self):
        grid = make_grid(8)
        assert grid.h == 0.125
        assert np.array_equal(grid.nodes, np.arange(8) / 8)

    def test_large_grid(self):
        grid = make_grid(512)
        assert grid.h == 1 / 512
        assert grid.nodes.shape == (512,)
        assert grid.nodes[0] == 0.0
        assert np.all(np.diff(grid.nodes) > 0)

    @pytest.mark.parametrize("n", [3, 2, 0, -4, 7, 513])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            make_grid(n)

    def test_nodes_read_only(self):
        grid = make_grid(8)
        with pytest.raises(ValueError):
            grid.nodes[0] = 1.0

    def test_equality_and_hash_by_size(self):
        grid = make_grid(512)
        assert grid == make_grid(np.int64(512))
        assert hash(grid) == hash(make_grid(np.int64(512)))
        assert grid != make_grid(256)
        assert grid != 512


class TestGridFunction:
    def test_rejects_nan(self):
        grid = make_grid(8)
        with pytest.raises(ValueError):
            GridFunction(grid, np.array([np.nan] * 8))

    def test_rejects_wrong_length(self):
        grid = make_grid(8)
        with pytest.raises(ValueError):
            GridFunction(grid, np.zeros(7))

    def test_interp_hits_nodes_and_midpoints(self):
        grid = make_grid(8)
        f = GridFunction(grid, np.arange(8.0))
        assert f.interp(0.25) == 2.0
        # midpoint between node 7 (value 7) and the wrap back to node 0.
        assert f.interp(1.0 - grid.h / 2) == pytest.approx(3.5)
        assert f.interp(-0.125) == 7.0  # periodic wrap of x = 0.875


def reference_interp(f, x):
    """Periodic interpolation as remainder, wrap fix and np.interp."""
    xw = np.asarray(x, dtype=float) % 1.0
    xw = np.where(xw >= 1.0, xw - 1.0, xw)
    return np.interp(xw, np.append(f.grid.nodes, 1.0),
                     np.append(f.values, f.values[0]))


def random_function(n, seed):
    return GridFunction(make_grid(n), np.random.default_rng(seed).standard_normal(n))


@pytest.mark.parametrize("n", [6, 384, 512, 1000, 4098])
def test_cell_lookup_matches_np_interp_bitwise(n):
    xp = np.append(make_grid(n).nodes, 1.0)
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n)
    table = np.append(values, values[0])
    x = np.concatenate([
        rng.random(1_000_000),
        xp,
        np.nextafter(xp[1:], 0.0),
        np.nextafter(xp[:-1], 1.0),
        [np.nextafter(1.0, 0.0)],
    ])
    (got,) = periodic_reader(make_grid(n), GridFunction(make_grid(n), values))(x)
    assert np.array_equal(got, np.interp(x, xp, table))


def test_wrap_matches_remainder_bitwise():
    rng = np.random.default_rng(3)
    ints = np.arange(-3.0, 4.0)
    x = np.concatenate([
        rng.uniform(-2.0, 2.0, 100_000),
        rng.uniform(-1e-15, 1e-15, 10_000),
        ints, np.nextafter(ints, -np.inf), np.nextafter(ints, np.inf),
        [-0.0, -5e-324, 5e-324, -2.0**-54, -2.0**-53, 1.0 - 2.0**-53],
    ])
    reference = x % 1.0
    reference = np.where(reference >= 1.0, reference - 1.0, reference)
    got = wrap(x.copy())
    assert np.array_equal(got, reference)
    assert np.array_equal(np.signbit(got), np.signbit(reference))
    assert got.min() >= 0.0 and got.max() < 1.0


class TestInterp:
    @pytest.mark.parametrize("n", [6, 512, 4098])
    @pytest.mark.parametrize("size", [511, 512])
    def test_matches_reference_bitwise_at_the_crossover(self, n, size):
        # 511 and 512 points straddle the size where np.interp once took
        # over from the cell lookup; the lookup now reads both.
        f = random_function(n, n + size)
        x = np.random.default_rng(size).uniform(-3.0, 3.0, size)
        x[:5] = np.append(f.grid.nodes[:4], 1.0)
        got = f.interp(x)
        assert got.shape == (size,)
        assert np.array_equal(got, reference_interp(f, x))

    @pytest.mark.parametrize("shape", [(7, 3), (40, 25)])
    def test_two_dimensional_input(self, shape):
        f = random_function(256, 1)
        x = np.random.default_rng(2).uniform(-2.0, 2.0, shape)
        got = f.interp(x[:, ::2])  # a strided view, as rn_weights passes
        assert got.shape == x[:, ::2].shape
        assert np.array_equal(got, reference_interp(f, x[:, ::2]))

    @pytest.mark.parametrize("x", [0.3, -0.3, 1e-300, -1e-20, 7.0, np.float64(0.6)])
    def test_scalar_gives_float(self, x):
        f = random_function(64, 3)
        got = f.interp(x)
        assert type(got) is float
        assert got == float(reference_interp(f, x))

    @pytest.mark.parametrize("shape", [(3500,), (70, 50)])
    def test_blocks_with_ragged_last_block(self, monkeypatch, shape):
        monkeypatch.setattr(grid_module, "_BLOCK_POINTS", 1000)
        f = random_function(512, 4)
        x = np.random.default_rng(5).uniform(-1.0, 2.0, shape)
        got = f.interp(x)
        assert got.shape == shape
        assert np.array_equal(got, reference_interp(f, x))

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_zero_points_give_empty(self, shape):
        got = random_function(64, 8).interp(np.empty(shape))
        assert isinstance(got, np.ndarray) and got.shape == shape

    def test_zero_dimensional_input(self):
        f = random_function(64, 9)
        got = f.interp(np.array(-0.3))
        assert type(got) is np.float64
        assert got == reference_interp(f, -0.3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("size", [3, 600])
    def test_non_finite_points_raise(self, bad, size):
        f = random_function(64, 6)
        x = np.random.default_rng(7).random(size)
        x[size // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            f.interp(x)
        with pytest.raises(ValueError, match="finite"):
            f.interp(bad)


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(
    n=st.integers(2, 2049).map(lambda k: 2 * k),
    size=st.sampled_from([1, 5, 100, 511, 512, 513, 2000]),
    drawn=st.lists(st.floats(-1e6, 1e6), max_size=16),
    seed=st.integers(0, 2**32 - 1),
)
def test_interp_matches_reference_property(n, size, drawn, seed):
    rng = np.random.default_rng(seed)
    f = random_function(n, seed)
    nodes = f.grid.nodes
    pool = np.concatenate([
        drawn,
        rng.uniform(-1e6, 1e6, size),
        rng.uniform(-2.0, 2.0, size),
        -rng.uniform(0.0, 1e-15, size),
        np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf), nodes,
        nodes + rng.integers(-3, 4, n),
    ])
    x = np.concatenate([drawn, rng.choice(pool, size)])[:size]
    assert np.array_equal(f.interp(x), reference_interp(f, x))


class TestSample:
    def test_constant(self):
        grid = make_grid(8)
        f = HarmonicSpec(constant=2.0).sample(grid)
        assert np.array_equal(f.values, np.full(8, 2.0))

    def test_first_harmonic(self):
        grid = make_grid(8)
        f = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid)
        assert np.allclose(f.values, np.cos(2 * np.pi * grid.nodes), atol=1e-15)

    def test_sampling_is_linear_in_the_spec(self):
        grid = make_grid(64)
        a = HarmonicSpec(constant=0.5, harmonics=[(1, 1.0, -0.5), (3, 0.0, 2.0)])
        b = HarmonicSpec(constant=-1.0, harmonics=[(2, 0.25, 0.0)])
        merged = HarmonicSpec(
            constant=-0.5,
            harmonics=[(1, 1.0, -0.5), (3, 0.0, 2.0), (2, 0.25, 0.0)],
        )
        lhs = a.sample(grid).values + b.sample(grid).values
        assert np.allclose(lhs, merged.sample(grid).values, atol=1e-14)

    def test_alias_rejected(self):
        grid = make_grid(8)
        with pytest.raises(ValueError, match="alias"):
            HarmonicSpec(harmonics=[(4, 1.0, 0.0)]).sample(grid)

    def test_duplicate_wavenumber_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            HarmonicSpec(harmonics=[(1, 1.0, 0.0), (1, 0.0, 1.0)])


class TestDerivative:
    def test_constant_derivative_is_zero(self):
        grid = make_grid(32)
        f = HarmonicSpec(constant=3.0).sample(grid)
        assert np.max(np.abs(derivative(f, 1).values)) < 1e-14

    def test_first_derivative_closed_form(self):
        grid = make_grid(64)
        f = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid)
        expected = -2 * np.pi * np.sin(2 * np.pi * grid.nodes)
        assert np.max(np.abs(derivative(f, 1).values - expected)) < 1e-12

    def test_second_derivative_closed_form(self):
        grid = make_grid(64)
        f = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid)
        expected = -4 * np.pi**2 * np.cos(2 * np.pi * grid.nodes)
        assert np.max(np.abs(derivative(f, 2).values - expected)) < 1e-11

    def test_rejects_other_orders(self):
        grid = make_grid(8)
        f = HarmonicSpec(constant=1.0).sample(grid)
        with pytest.raises(ValueError):
            derivative(f, 3)

    @pytest.mark.parametrize("n", [64, 256, 384, 4096])
    def test_cached_multiplier_keeps_the_bits(self, n):
        grid = make_grid(n)
        # Random nodal values, so the dropped Nyquist mode is not zero.
        f = GridFunction(grid, np.random.default_rng(n).normal(size=n))
        k = 2.0 * np.pi * np.fft.rfftfreq(n, d=grid.h)
        first = 1j * k
        first[-1] = 0.0
        for order, mult in ((1, first), (2, -(k**2))):
            expected = np.fft.irfft(np.fft.rfft(f.values) * mult, n)
            assert np.array_equal(derivative(f, order).values, expected)
            cached = grid_module._multiplier(n, order)
            assert cached is grid_module._multiplier(n, order)
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 1.0
        with pytest.raises(ValueError, match="order"):
            derivative(f, 3)

    def test_linearity(self):
        grid = make_grid(128)
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = random_harmonic(grid, rng)
            g = random_harmonic(grid, rng)
            alpha, beta = rng.uniform(-2, 2, 2)
            lhs = derivative(f * alpha + g * beta, 1).values
            rhs = alpha * derivative(f, 1).values + beta * derivative(g, 1).values
            assert np.max(np.abs(lhs - rhs)) < 1e-10

class TestIntegrate:
    def test_unit_constant(self):
        grid = make_grid(16)
        assert integrate(HarmonicSpec(constant=1.0).sample(grid)) == pytest.approx(1.0, abs=1e-15)

    def test_cosine_integrates_to_zero(self):
        grid = make_grid(16)
        f = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid)
        assert abs(integrate(f)) < 1e-15

    def test_cosine_squared(self):
        grid = make_grid(16)
        f = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid)
        assert integrate(f * f) == pytest.approx(0.5, abs=1e-14)

    def test_integration_by_parts(self):
        grid = make_grid(256)
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = random_harmonic(grid, rng)
            g = random_harmonic(grid, rng)
            lhs = integrate(derivative(f, 1) * g)
            rhs = -integrate(f * derivative(g, 1))
            assert abs(lhs - rhs) < 1e-10

    def test_derivative_integrates_to_zero(self):
        grid = make_grid(256)
        rng = np.random.default_rng(6)
        for _ in range(5):
            f = random_harmonic(grid, rng)
            assert abs(integrate(derivative(f, 1))) < 1e-12

    def test_refinement_consistency(self):
        rng = np.random.default_rng(7)
        spec = HarmonicSpec(
            constant=0.3,
            harmonics=[(k, rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in (1, 2, 5)],
        )
        for n in (64, 128, 256):
            coarse, fine = make_grid(n), make_grid(2 * n)
            fc, ff = spec.sample(coarse), spec.sample(fine)
            assert abs(integrate(fc) - integrate(ff)) < 1e-10
            dc, df = derivative(fc, 1), derivative(ff, 1)
            assert np.max(np.abs(dc.values - df.values[::2])) < 1e-10


class TestCsv:
    def test_roundtrip(self, tmp_path):
        grid = make_grid(64)
        f = HarmonicSpec(harmonics=[(2, 0.7, -0.1)]).sample(grid)
        path = tmp_path / "f.csv"
        lines = ["x,value"] + [
            f"{x:.15g},{v:.15g}" for x, v in zip(grid.nodes, f.values)
        ]
        path.write_text("\n".join(lines) + "\n")
        loaded = function_from_csv(path, grid)
        assert np.max(np.abs(loaded.values - f.values)) < 1e-14

    def test_node_mismatch_rejected(self, tmp_path):
        grid = make_grid(8)
        path = tmp_path / "f.csv"
        rows = "\n".join(f"{(i + 0.5) / 8},{1.0}" for i in range(8))
        path.write_text("x,value\n" + rows + "\n")
        with pytest.raises(ValueError, match="nodes"):
            function_from_csv(path, grid)

    @pytest.mark.parametrize("text, line", [
        ("x,value,note\n0.0,1.0\n", 1),
        ("x,value\n0.0,1.0\n0.125,1.0,7\n", 3),
    ], ids=["header", "row"])
    def test_extra_column_rejected(self, tmp_path, text, line):
        path = tmp_path / "three.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}: expected 2 columns "
                                             "x,value, found 3"):
            function_from_csv(path, make_grid(8))

    @pytest.mark.parametrize("x, value", [("nan", "1.0"), ("0.25", "-inf"),
                                          ("0.25", "1e400")])
    def test_non_finite_entry_rejected(self, tmp_path, x, value):
        # NaN compares false against the node tolerance, so it needs its own check
        rows = [f"{i / 8!r},1.0" for i in range(8)]
        rows[2] = f"{x},{value}"
        path = tmp_path / "f.csv"
        path.write_text("x,value\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 4: "
                                             "x and value must be finite$"):
            function_from_csv(path, make_grid(8))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(
        header=st.sampled_from(["x,value", " X , Value", "x", "x,value,w",
                                "value,x"]),
        values=st.lists(st.floats(-1e300, 1e300), min_size=4, max_size=4),
        edits=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2), _CELLS),
                       max_size=3))
    def test_loader_returns_values_or_names_the_file(self, tmp_path_factory,
                                                     header, values, edits):
        # Each edit overwrites x (0) or value (1) of a row, appends a third
        # column (2), or with row 4 appends a one-cell row.
        rows = [[repr(i / 4), repr(v)] for i, v in enumerate(values)]
        for row, col, cell in edits:
            if row == 4:
                rows.append([cell])
            elif col == 2:
                rows[row].append(cell)
            else:
                rows[row][col] = cell
        path = tmp_path_factory.mktemp("csv") / "f.csv"
        path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
        try:
            loaded = function_from_csv(path, make_grid(4))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        # blank lines (a one-cell row holding "") are skipped
        expected = [float(r[1]) for r in rows if r != [""]]
        assert np.array_equal(loaded.values, expected)

    def test_wrong_length_rejected(self, tmp_path):
        grid = make_grid(8)
        path = tmp_path / "f.csv"
        path.write_text("x,value\n0.0,1.0\n")
        with pytest.raises(ValueError, match="rows"):
            function_from_csv(path, grid)
