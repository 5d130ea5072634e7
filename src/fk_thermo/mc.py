"""Path simulation on the circle with reproducible counter-based randomness.

Each path owns a Philox stream keyed by the run seed and offset in the
counter space by the path index, so the numbers a path consumes depend only
on (seed, index).  Estimates assembled from per-path values are therefore
bit-identical no matter how the work is chunked or scheduled.  Every path
draws one uniform first (used for initial-law sampling when requested) and
then its Gaussian increments.

Increments are streamed: a block of paths keeps its streams open and draws
a chunk of steps at a time into one reused buffer, so memory is
O(block x chunk) plus the recorded positions, independent of the horizon.
Drift and potential are read off the grid by grid.periodic_reader's cell
lookup, the one route every off-node read of a grid function takes; its
bits do not depend on how many points it reads, and a stream drawn in
pieces equals one drawn whole.

A block of a few paths spends its time in numpy's fixed per-call cost, not
in arithmetic, so blocks narrower than _SCALAR_PATHS walk path by path on
Python floats over the lookup's own tables (grid._interp_tables).  That walk
makes the same IEEE operations in the same order as the vectorized step, so
it changes the time a narrow run takes and not its bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .grid import GridFunction, PeriodicGrid, _interp_tables, periodic_reader, wrap

__all__ = ["McConfig", "PathEnsemble", "simulate_paths", "sample_from_density"]

_MAX_DOUBLES = 300_000_000  # ~2.4 GB guard: recorded positions plus increments
_CHUNK_DOUBLES = 1 << 21  # 16 MiB increment buffer per block of paths
_BLOCK_PATHS = 20_000  # paths stepped together
_SCALAR_PATHS = 40  # narrower blocks step path by path on Python floats
_WINDOW_STEPS = 4096  # most steps drawn at once: the scalar walk's window
_WORD = 2**64 - 1  # mask of one 64-bit word of a Philox key or counter


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo run parameters: path count, step size and stream seed."""

    n_paths: int
    dt: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


class _PhiloxKey(ISeedSequence):
    """A run seed handed to Philox as its 128-bit key, word for word.

    Philox(_PhiloxKey(seed)) is the generator Philox(key=seed) builds,
    without the OS-entropy SeedSequence that key= creates and never reads,
    which is most of the cost of one path's stream.  One key serves every
    path of a run.
    """

    def __init__(self, seed: int) -> None:
        self._words = np.array([seed & _WORD, seed >> 64], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words

    def stream(self, index: int) -> np.random.Generator:
        """The stream of path index: the Philox counter starts at index << 128.

        The counter goes in as its four 64-bit words, low first; numpy
        would split the integer index << 128 into the same words in Python,
        at several times the cost.
        """
        counter = np.array([0, 0, index & _WORD, index >> 64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(self, counter=counter))


@dataclass(frozen=True)
class PathEnsemble:
    """Batch of circle-valued trajectories plus running potential integrals.

    positions holds the recorded states, one row per path; with
    record_stride=s the columns are steps 0, s, 2s, ..., n_steps.  The
    potential integrals are left-endpoint Riemann sums of the designated
    grid function along the full-resolution path (independent of the stride).
    """

    dt: float
    n_steps: int
    n_paths: int
    positions: np.ndarray
    record_stride: int
    potential_integrals: np.ndarray | None

    def __post_init__(self) -> None:
        n_rec = self.n_steps // self.record_stride + 1
        if self.positions.shape != (self.n_paths, n_rec):
            raise ValueError("positions shape inconsistent with stride")
        if self.potential_integrals is not None and (
            self.potential_integrals.shape != (self.n_paths,)
        ):
            raise ValueError("one potential integral per path expected")
        self.positions.setflags(write=False)
        if self.potential_integrals is not None:
            self.potential_integrals.setflags(write=False)

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    @property
    def recorded_steps(self) -> np.ndarray:
        return np.arange(0, self.n_steps + 1, self.record_stride)


def sample_from_density(density: GridFunction, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling of a nonnegative grid density (piecewise constant).

    The density is treated as constant on each cell [x_i, x_{i+1}); the
    resulting CDF is piecewise linear and inverted exactly.
    """
    vals = density.values
    if np.any(vals < 0):
        raise ValueError("initial density must be nonnegative")
    h = density.grid.h
    cell_mass = vals * h
    total = cell_mass.sum()
    if total <= 0:
        raise ValueError("initial density must have positive mass")
    cdf = np.concatenate([[0.0], np.cumsum(cell_mass / total)])
    cdf[-1] = 1.0
    idx = np.clip(np.searchsorted(cdf, uniforms, side="right") - 1, 0,
                  density.grid.n - 1)
    seg = cdf[idx + 1] - cdf[idx]
    seg = np.where(seg > 0, seg, 1.0)
    frac = (uniforms - cdf[idx]) / seg
    return wrap(density.grid.nodes[idx] + h * frac)


def _scalar_window(x, acc, increments, left, stride, dt, tables):
    """Walk one path through one window of scaled increments on Python floats.

    Each step makes the vectorized step's IEEE operations in its order: the
    cell int(x n) with the cell lookup's two one-sided corrections,
    np.interp's slope[i] (x - xp[i]) + table[i], the potential term added
    to acc, the drift term added to the increment, then grid.wrap's
    x - floor(x) and its >= 1.0 fix; so the bits are the vectorized ones.
    tables is (xp, drift, potential) as lists, each function a
    (table, slope) pair or None.  left counts the steps up to the next
    recorded one.  Returns (x, acc, the positions recorded in the window).
    """
    x_nodes, drift, potential = tables
    n = len(x_nodes) - 1
    if drift is not None:
        d_table, d_slope = drift
    if potential is not None:
        p_table, p_slope = potential
    recorded = []
    for inc in increments:
        i = int(x * n)
        if i == n:
            i -= 1
        if x_nodes[i] > x:
            i -= 1
        elif x_nodes[i + 1] <= x:
            i += 1
        offset = x - x_nodes[i]
        if potential is not None:
            acc += (p_slope[i] * offset + p_table[i]) * dt
        if drift is not None:
            inc = inc + (d_slope[i] * offset + d_table[i]) * dt
        x = x + inc
        x -= floor(x)
        if x >= 1.0:
            x -= 1.0
        left -= 1
        if not left:
            recorded.append(x)
            left = stride
    return x, acc, recorded


def simulate_paths(
    grid: PeriodicGrid,
    drift: GridFunction | None,
    start: float | GridFunction,
    T: float,
    cfg: McConfig,
    potential: GridFunction | None = None,
    record_stride: int | None = None,
) -> PathEnsemble:
    """Euler walk X <- wrap(X + drift(X) dt + sqrt(dt) xi) over [0, T].

    start is either a fixed circle point or an initial density to sample by
    inverse CDF.  Off-node drift and potential values come from periodic
    linear interpolation; a drift that is zero at every node is not read at
    all, since adding +-0.0 dt to an increment moves no path.
    record_stride controls which steps land in the ensemble (None records
    endpoints only); it must divide the step count.

    Paths run in blocks of _BLOCK_PATHS.  A block keeps its paths' streams
    and draws their increments step chunk by step chunk into one reused
    (block, chunk) buffer, chunk = min(_WINDOW_STEPS, _CHUNK_DOUBLES //
    block) steps, at least one, so memory is O(block x chunk) plus the
    recorded positions, whatever T is; the guard counts both.  A block of
    at least _SCALAR_PATHS paths steps them together, reading drift and
    potential through one grid.periodic_reader built per call, whose cell
    lookup both share.  A block narrower than _SCALAR_PATHS (40, where the
    two kernels' times cross at n=512, dt=1e-3) walks each path through
    each chunk on Python floats with the same operations in the same order,
    and writes the chunk's recorded positions into the path's row.  The
    bits are the same every way, so the ensemble depends on (seed, path
    index) alone, not on the block or chunk size.
    """
    if not T > 0:
        raise ValueError(f"horizon must be positive, got {T}")
    steps_float = T / cfg.dt
    n_steps = int(round(steps_float))
    if n_steps < 1 or abs(steps_float - n_steps) > 1e-9 * max(1.0, steps_float):
        raise ValueError(f"T={T} is not an integer number of dt={cfg.dt} steps")
    stride = n_steps if record_stride is None else int(record_stride)
    if stride < 1 or n_steps % stride != 0:
        raise ValueError(f"record_stride {stride} must divide {n_steps} steps")
    n_rec = n_steps // stride + 1
    widest = min(_BLOCK_PATHS, cfg.n_paths)
    chunk = min(n_steps, _WINDOW_STEPS, max(1, _CHUNK_DOUBLES // widest))
    if cfg.n_paths * n_rec + widest * chunk > _MAX_DOUBLES:
        raise ValueError("recorded positions and increment buffer would exceed "
                         "the memory guard; increase record_stride")

    if isinstance(start, GridFunction) and start.grid != grid:
        raise ValueError("initial density lives on a different grid")
    if drift is not None and drift.grid != grid:
        raise ValueError("drift lives on a different grid")
    if potential is not None and potential.grid != grid:
        raise ValueError("potential lives on a different grid")
    if drift is not None and not drift.values.any():
        drift = None
    # potential first, drift last: read(x)[0] and read(x)[-1]
    fields = [f for f in (potential, drift) if f is not None]
    read = periodic_reader(grid, *fields)
    xp, tables, slopes = _interp_tables(grid, *fields)
    pairs = [(table.tolist(), slope.tolist()) for table, slope in zip(tables, slopes)]
    scalar_tables = (xp.tolist(), pairs[-1] if drift is not None else None,
                     pairs[0] if potential is not None else None)

    positions = np.empty((cfg.n_paths, n_rec))
    integrals = np.zeros(cfg.n_paths) if potential is not None else None
    sqrt_dt = np.sqrt(cfg.dt)
    normals = np.empty((widest, chunk))
    key = _PhiloxKey(cfg.seed)

    for lo in range(0, cfg.n_paths, _BLOCK_PATHS):
        hi = min(lo + _BLOCK_PATHS, cfg.n_paths)
        nb = hi - lo
        gens = [key.stream(lo + j) for j in range(nb)]
        uniforms = np.array([gen.random() for gen in gens])
        if isinstance(start, GridFunction):
            x = sample_from_density(start, uniforms)
        else:
            x = wrap(np.full(nb, float(start)))
        positions[lo:hi, 0] = x
        acc = np.zeros(nb) if integrals is not None else None
        narrow = nb < _SCALAR_PATHS
        if narrow:  # the scalar walk carries each path's state as floats
            x, acc = x.tolist(), [0.0] * nb
        col = 1
        for k0 in range(0, n_steps, chunk):
            width = min(chunk, n_steps - k0)
            for j, gen in enumerate(gens):
                gen.standard_normal(out=normals[j, :width])
            increments = normals[:nb, :width]
            increments *= sqrt_dt
            if narrow:
                first = k0 // stride + 1
                for j in range(nb):
                    x[j], acc[j], recorded = _scalar_window(
                        x[j], acc[j], increments[j].tolist(),
                        stride - k0 % stride, stride, cfg.dt, scalar_tables)
                    positions[lo + j, first:first + len(recorded)] = recorded
                continue
            for k in range(width):
                values = read(x)
                if acc is not None:
                    acc += values[0] * cfg.dt
                step = increments[:, k]
                if drift is not None:
                    step = step + values[-1] * cfg.dt
                x = wrap(x + step)
                if (k0 + k + 1) % stride == 0:
                    positions[lo:hi, col] = x
                    col += 1
        if integrals is not None:
            integrals[lo:hi] = acc

    return PathEnsemble(
        dt=cfg.dt,
        n_steps=n_steps,
        n_paths=cfg.n_paths,
        positions=positions,
        record_stride=stride,
        potential_integrals=integrals,
    )
