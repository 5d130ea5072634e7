"""Uniform periodic grids on the unit circle and calculus on sampled functions.

The circle is the interval [0, 1) with 0 and 1 identified.  Everything else
in the package (operators, propagators, path simulation, quadrature) is built
on the three primitives here: sampling of trigonometric sums, Fourier
differentiation and rectangle-rule quadrature.  On a uniform periodic grid the
rectangle rule coincides with the trapezoid rule and is spectrally accurate
for smooth integrands, and Fourier differentiation is exact (to roundoff) for
harmonics below the Nyquist mode.
"""

from __future__ import annotations

import csv
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "PeriodicGrid",
    "GridFunction",
    "HarmonicSpec",
    "make_grid",
    "derivative",
    "integrate",
    "function_from_csv",
]


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform discretization of the circle with nodes x_i = i/n."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"grid size must be an integer, got {self.n!r}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {self.n}")
        # np.interp's abscissae on the circle, the nodes followed by 1.0, and
        # the knot after each of them, +inf after 1.0, for the cell lookup:
        # two views of one array
        ends = np.append(np.arange(self.n + 1, dtype=float) / self.n, np.inf)
        ends.setflags(write=False)
        knots = ends[:-1]
        object.__setattr__(self, "_knots", knots)
        object.__setattr__(self, "_next_knots", ends[1:])
        object.__setattr__(self, "_nodes", knots[:-1])

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes  # type: ignore[attr-defined]


def make_grid(n: int) -> PeriodicGrid:
    """Build a uniform periodic grid with n nodes (n even, n >= 4)."""
    return PeriodicGrid(n)


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function sampled at the nodes of a PeriodicGrid."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"values must have shape ({self.grid.n},), got {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("grid function values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # Small arithmetic surface so numerical code reads like the formulas.
    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, GridFunction):
            if other.grid != self.grid:
                raise ValueError("grid functions live on different grids")
            return other.values
        return np.asarray(other, dtype=float)

    def __add__(self, other) -> "GridFunction":
        return GridFunction(self.grid, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other) -> "GridFunction":
        return GridFunction(self.grid, self.values - self._coerce(other))

    def __rsub__(self, other) -> "GridFunction":
        return GridFunction(self.grid, self._coerce(other) - self.values)

    def __mul__(self, other) -> "GridFunction":
        return GridFunction(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """np.interp's table on the grid's knots xp (the values, then the first
        again) and its slopes (table[i+1] - table[i]) / (xp[i+1] - xp[i]),
        padded by 0.0; built on the first read and kept read-only."""
        table = np.concatenate([self.values, self.values[:1]])
        slope = np.concatenate([np.diff(table) / np.diff(self.grid._knots), [0.0]])
        table.setflags(write=False)
        slope.setflags(write=False)
        return table, slope

    def interp(self, x) -> np.ndarray | float:
        """Evaluate at circle points of any shape by periodic linear interpolation.

        A scalar gives a float, an array an array of its shape, with the
        bits of np.interp on the wrapped points.  Non-finite points raise
        ValueError: they lie nowhere on the circle.
        """
        xw = np.array(x, dtype=float)
        if not np.all(np.isfinite(xw)):
            raise ValueError("interpolation points must be finite")
        (out,) = periodic_reader(self.grid, self)(wrap(xw))
        return float(out) if np.isscalar(x) else out


# Points per lookup pass: larger inputs are read block by block, so each of
# the lookup's temporaries (cells, offsets, gathered slopes and values) stays
# at 512 KiB whatever the input size.
_BLOCK_POINTS = 1 << 16


def wrap(x: np.ndarray) -> np.ndarray:
    """Map onto [0, 1) in place.

    x - floor(x) has the bits of np.remainder(x, 1.0) for every finite x
    (the fraction is exact, and for x < 0 both round frac + 1 once) without
    the division np.remainder spends per element; a tiny negative x rounds
    up to 1.0, which wraps to 0.0.
    """
    x -= np.floor(x)
    np.subtract(x, 1.0, out=x, where=x >= 1.0)
    return x


def periodic_reader(grid: PeriodicGrid, *functions: GridFunction):
    """Reader of grid functions at points of [0, 1], one array per function.

    The cells are found once for all functions: floor(x n) can miss the
    cell by one where x n rounds across an integer, or where the node i/n
    itself rounds, so one comparison on each side settles it.  The right
    side reads the grid's next knots, xp[i + 1] with +inf after 1.0, so a
    cell of n (x = 1.0, or x n rounded up to n) needs no clamp: it stays at
    n for x = 1.0, where slope 0.0 and the repeated first value give
    np.interp's last value, and falls back to n - 1 below it.  Each function
    then takes np.interp's own formula, slope[i] (x - xp[i]) + table[i], with
    the slopes each GridFunction keeps from its first read; the bits are
    np.interp's on the n nodes followed by 1.0, with the first value repeated
    there, for any number of points.  Points of any shape are read, a 0-d
    array as a numpy float; inputs above _BLOCK_POINTS points are read block
    by block.
    """
    n, xp, next_xp = grid.n, grid._knots, grid._next_knots
    tables = [f._table for f in functions]

    def lookup(x):
        i = (x * n).astype(np.intp)
        i -= xp[i] > x
        i += next_xp[i] <= x
        offset = x - xp[i]
        return [slope[i] * offset + table[i] for table, slope in tables]

    def read(x: np.ndarray) -> list:
        if not tables:
            return []
        if x.ndim == 0:  # the lookup's in-place corrections need an array
            return [out[0] for out in read(x.reshape(1))]
        if x.size <= _BLOCK_POINTS:
            return lookup(x)
        flat = x.reshape(-1)
        outs = [np.empty(flat.size) for _ in tables]
        for lo in range(0, flat.size, _BLOCK_POINTS):
            hi = lo + _BLOCK_POINTS
            for out, values in zip(outs, lookup(flat[lo:hi])):
                out[lo:hi] = values
        return [out.reshape(x.shape) for out in outs]

    return read


@dataclass(frozen=True)
class HarmonicSpec:
    """Finite trigonometric sum: constant + sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x).

    Each harmonic is a row (k, a, b) of real numbers: k a positive integer
    not repeated, a and b finite.  Any other row raises ValueError.
    """

    constant: float = 0.0
    harmonics: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        norm = []
        seen = set()
        for item in self.harmonics:
            try:
                k, a, b = item
            except (TypeError, ValueError):
                raise ValueError(
                    f"harmonic entries must be (k, a, b), got {item!r}") from None
            if not all(isinstance(v, numbers.Real) for v in (k, a, b)):
                raise ValueError(f"harmonic entries must be numbers, got {item!r}")
            if not (k >= 1 and k % 1 == 0):  # inf % 1 and nan % 1 are nan
                raise ValueError(f"wavenumbers must be positive integers, got {k!r}")
            k = int(k)
            if k in seen:
                raise ValueError(f"duplicate wavenumber {k}")
            seen.add(k)
            if not all(abs(v) <= sys.float_info.max for v in (a, b)):  # nan fails too
                raise ValueError(f"harmonic coefficients must be finite, got {item!r}")
            norm.append((k, float(a), float(b)))
        object.__setattr__(self, "harmonics", tuple(norm))
        object.__setattr__(self, "constant", float(self.constant))

    @np.errstate(over="ignore", invalid="ignore")  # GridFunction rejects inf and nan
    def sample(self, grid: PeriodicGrid) -> GridFunction:
        """Evaluate the sum at the grid nodes; rejects aliased wavenumbers."""
        kmax = max((k for k, _, _ in self.harmonics), default=0)
        if kmax >= grid.n // 2:
            raise ValueError(
                f"wavenumber {kmax} aliases on a grid with {grid.n} nodes "
                f"(need k < {grid.n // 2})"
            )
        x = grid.nodes
        vals = np.full(grid.n, self.constant)
        for k, a, b in self.harmonics:
            vals = vals + a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
        return GridFunction(grid, vals)


@lru_cache(maxsize=None)
def _multiplier(n: int, order: int) -> np.ndarray:
    """Read-only Fourier symbol of d^order/dx^order on n nodes, rfft layout.

    The first derivative's symbol i k keeps its Nyquist entry: rfft of real
    samples gives a real Nyquist coefficient, its product with i k is
    imaginary, and irfft reads only the real part of that bin, so the mode
    drops out all the same.
    """
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    mult = 1j * k if order == 1 else -(k**2)
    mult.setflags(write=False)
    return mult


def _derivative_values(values: np.ndarray, order: int) -> np.ndarray:
    """derivative() on raw nodal samples: the same FFTs, multiplier and bits."""
    n = values.shape[0]
    return np.fft.irfft(np.fft.rfft(values) * _multiplier(n, order), n)


def derivative(f: GridFunction, order: int = 1) -> GridFunction:
    """Fourier differentiation of periodic samples (order 1 or 2).

    Exact for harmonic content below the Nyquist mode.  The Nyquist mode is
    dropped for the first derivative (its sampled derivative is odd and
    unrepresentable on the grid).  The multiplier i k or -k^2 is built once
    per (n, order) and cached read-only, so a call costs one rfft, one
    product and one irfft.
    """
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    return GridFunction(f.grid, _derivative_values(f.values, order))


def integrate(f: GridFunction) -> float:
    """Rectangle-rule integral over the circle (trapezoid-equivalent here)."""
    return float(f.grid.h * np.sum(f.values))


def function_from_csv(path, grid: PeriodicGrid) -> GridFunction:
    """Load samples from a CSV with exactly two columns x,value at the grid nodes.

    The x column must reproduce the nodes i/n (up to 1e-12 print roundoff);
    values are used verbatim.  A header or row with another column count, or
    a non-finite entry, raises ValueError naming its line.  The file is read
    as UTF-8, and a leading byte-order mark (as spreadsheets write) is skipped.
    """
    xs, vals = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)

        def two_columns(row):
            if len(row) != 2:
                raise ValueError(f"{path}: line {reader.line_num}: expected 2 "
                                 f"columns x,value, found {len(row)}")

        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["x", "value"]:
            raise ValueError(f"{path}: expected CSV header 'x,value'")
        two_columns(header)
        for row in reader:
            if not row:
                continue
            two_columns(row)
            where = f"{path}: line {reader.line_num}"
            try:
                xs.append(float(row[0]))
                vals.append(float(row[1]))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if not np.isfinite([xs[-1], vals[-1]]).all():
                raise ValueError(f"{where}: x and value must be finite")
    if len(xs) != grid.n:
        raise ValueError(f"{path}: expected {grid.n} rows, found {len(xs)}")
    xs = np.asarray(xs)
    if np.max(np.abs(xs - grid.nodes)) > 1e-12:
        raise ValueError(f"{path}: x column does not match the grid nodes")
    return GridFunction(grid, np.asarray(vals))
