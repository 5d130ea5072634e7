"""Path engine: per-path streams, streamed increments, block and chunk
independence, the scalar walk of narrow blocks, zero drifts, the memory
guard."""

import tracemalloc

import numpy as np
import pytest

import fk_thermo.mc as mc
from fk_thermo import (GridFunction, HarmonicSpec, McConfig, PropagatorConfig,
                       gibbs_density, make_grid, simulate_paths)
from fk_thermo.mc import sample_from_density

from oracles import euler_paths


@pytest.mark.parametrize("seed", [12345, 2**64 + 99])
@pytest.mark.parametrize("index", [0, 1, 2**40 + 3, 2**64 - 1, 2**64 + 5])
def test_stream_is_philox_at_key_seed_and_counter_index(seed, index):
    # The counter goes in as words; the contract is Philox(key=seed,
    # counter=index << 128), across the 64-bit word boundary too.
    stream = mc._PhiloxKey(seed).stream(index)
    reference = np.random.Generator(
        np.random.Philox(key=seed, counter=index << 128))
    state, expected = stream.bit_generator.state, reference.bit_generator.state
    assert state.keys() == expected.keys()
    for name in ("counter", "key"):
        assert np.array_equal(state["state"][name], expected["state"][name])
    for name in ("buffer", "buffer_pos", "has_uint32", "uinteger"):
        assert np.array_equal(state[name], expected[name])
    assert np.array_equal(stream.standard_normal(1000),
                          reference.standard_normal(1000))


@pytest.mark.parametrize("with_potential", [False, True])
@pytest.mark.parametrize("stride", [1, None])
@pytest.mark.parametrize("n_paths", [5, 600])
def test_zero_drift_walks_as_no_drift(vcos512, n_paths, stride,
                                      with_potential):
    # 5 paths take the scalar walk, 600 the index lookup; a drift of +0.0
    # or -0.0 at every node gives the bits of no drift and of the
    # reference walk reading the zero table.
    grid = vcos512.grid
    potential = vcos512 if with_potential else None
    cfg = McConfig(n_paths=n_paths, dt=1e-3, seed=21)
    none = simulate_paths(grid, None, 0.3, 0.05, cfg, potential=potential,
                          record_stride=stride)
    positions, integrals = euler_paths(
        np.zeros(grid.n), None if potential is None else potential.values,
        0.3, 50, 1e-3, n_paths, 21, 50 if stride is None else stride)
    assert np.array_equal(none.positions, positions)
    for zero in (0.0, -0.0):
        drift = GridFunction(grid, np.full(grid.n, zero))
        ens = simulate_paths(grid, drift, 0.3, 0.05, cfg, potential=potential,
                             record_stride=stride)
        assert np.array_equal(ens.positions, none.positions)
        if potential is None:
            assert ens.potential_integrals is None
        else:
            assert np.array_equal(ens.potential_integrals,
                                  none.potential_integrals)
            assert np.array_equal(ens.potential_integrals, integrals)


@pytest.mark.parametrize("stride", [1, None])
@pytest.mark.parametrize("block_paths, chunk_doubles", [
    (20_000, None), (123, None), (20_000, 7), (123, 7), (20_000, 7 * 700),
])
def test_ensembles_identical_across_chunking(vcos512, eig_cos512, monkeypatch,
                                             stride, block_paths,
                                             chunk_doubles):
    # 700 paths in one block or in blocks of 123, the last one of 85; chunks
    # of 1, 7 and 39 steps leave a ragged last chunk of the 100 steps.
    monkeypatch.setattr(mc, "_BLOCK_PATHS", block_paths)
    if chunk_doubles is not None:
        monkeypatch.setattr(mc, "_CHUNK_DOUBLES", chunk_doubles)
    density = gibbs_density(eig_cos512)
    cfg = McConfig(n_paths=700, dt=1e-3, seed=8)
    ens = simulate_paths(vcos512.grid, eig_cos512.drift, density, 0.1, cfg,
                         potential=vcos512, record_stride=stride)
    positions, integrals = euler_paths(
        eig_cos512.drift.values, vcos512.values,
        lambda u: sample_from_density(density, u), 100, 1e-3, 700, 8,
        100 if stride is None else stride)
    assert np.array_equal(ens.positions, positions)
    assert np.array_equal(ens.potential_integrals, integrals)


def test_memory_flat_in_horizon(vcos512, eig_cos512, monkeypatch):
    # chunks of 50 steps: quadrupling the horizon adds no increment memory
    monkeypatch.setattr(mc, "_CHUNK_DOUBLES", 100 * 50)
    cfg = McConfig(n_paths=100, dt=1e-3, seed=4)

    def peak_bytes(T):
        tracemalloc.start()
        try:
            simulate_paths(vcos512.grid, eig_cos512.drift, 0.3, T, cfg,
                           potential=vcos512)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak_bytes(0.5), peak_bytes(2.0)
    assert long - short < 64 * 1024  # whole-horizon draws would add 1.2 MB


def test_memory_guard_refuses_before_allocating():
    cfg = McConfig(n_paths=1_000_000, dt=1e-3, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="memory guard"):
            simulate_paths(make_grid(512), None, 0.5, 1000.0, cfg,
                           record_stride=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_memory_guard_counts_increment_buffer(monkeypatch):
    # 10 endpoint-only paths over 1000 steps: 20 recorded doubles plus a
    # 10 x 1000 increment buffer
    grid = make_grid(64)
    cfg = McConfig(n_paths=10, dt=1e-3, seed=1)
    monkeypatch.setattr(mc, "_MAX_DOUBLES", 10_019)
    with pytest.raises(ValueError, match="memory guard"):
        simulate_paths(grid, None, 0.5, 1.0, cfg)
    monkeypatch.setattr(mc, "_MAX_DOUBLES", 10_020)
    assert simulate_paths(grid, None, 0.5, 1.0, cfg).positions.shape == (10, 2)


@pytest.mark.parametrize("T, dt, steps", [
    (1.0, 1e-3, 1000), (0.3, 0.1, 3), (0.5, 0.3, None), (1e-12, 1.0, None),
    (float("inf"), 1e-3, None), (float("nan"), 1e-3, None),
])
def test_step_count_shared_by_paths_and_propagation(T, dt, steps):
    if steps is not None:
        assert mc.step_count(T, dt) == steps
        assert PropagatorConfig(t=T, dt=dt).n_steps == steps
        return
    with pytest.raises(ValueError, match="not an integer number"):
        mc.step_count(T, dt)
    with pytest.raises(ValueError, match="not an integer number"):
        simulate_paths(make_grid(8), None, 0.5, T, McConfig(1, dt, 1))
    with pytest.raises(ValueError, match="not an integer number"):
        PropagatorConfig(t=T, dt=dt)


@pytest.mark.parametrize("dt", [0.0, -0.0, float("nan")])
def test_step_count_rejects_non_positive_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        mc.step_count(1.0, dt)


def test_fixed_start_recorded_inside_unit_interval():
    # -1e-20 % 1.0 rounds to 1.0; the recorded start must wrap to 0.0
    grid = make_grid(64)
    drift = HarmonicSpec(harmonics=[(1, 1.0, 0.0)]).sample(grid)
    cfg = McConfig(n_paths=3, dt=1e-3, seed=1)
    ens = simulate_paths(grid, drift, -1e-20, 0.01, cfg, record_stride=1)
    assert np.array_equal(ens.positions[:, 0], np.zeros(3))
    positions, _ = euler_paths(drift.values, None, -1e-20, 10, 1e-3, 3, 1, 1)
    assert np.array_equal(ens.positions, positions)


_CROSSOVER = mc._SCALAR_PATHS


@pytest.mark.parametrize("fields", ["drift+potential", "drift", "potential"])
@pytest.mark.parametrize("n_paths, block_paths", [
    (1, None), (23, None), (24, None), (25, None), (_CROSSOVER - 1, None),
    (_CROSSOVER, None), (_CROSSOVER + 1, None), (700, 230),
])
def test_scalar_walk_identical_to_reference(vcos512, eig_cos512, monkeypatch,
                                            n_paths, block_paths, fields):
    # Blocks narrower than the crossover walk on Python floats, wider ones
    # step together; 23-25 paths are narrow blocks of several widths, and
    # 700 paths in blocks of 230 leave a narrow last block of 10.  Windows
    # of 7 steps leave a ragged last window of the 102 steps.
    if block_paths is not None:
        monkeypatch.setattr(mc, "_BLOCK_PATHS", block_paths)
    monkeypatch.setattr(mc, "_WINDOW_STEPS", 7)
    drift = eig_cos512.drift if "drift" in fields else None
    potential = vcos512 if "potential" in fields else None
    density = gibbs_density(eig_cos512)
    cfg = McConfig(n_paths=n_paths, dt=1e-3, seed=12)
    for start in (0.3, -1e-20, density):
        for stride in (1, 3, None):
            ens = simulate_paths(vcos512.grid, drift, start, 0.102, cfg,
                                 potential=potential, record_stride=stride)
            positions, integrals = euler_paths(
                None if drift is None else drift.values,
                None if potential is None else potential.values,
                (lambda u: sample_from_density(density, u))
                if start is density else start,
                102, 1e-3, n_paths, 12, 102 if stride is None else stride)
            assert np.array_equal(ens.positions, positions)
            if potential is None:
                assert ens.potential_integrals is None
            else:
                assert np.array_equal(ens.potential_integrals, integrals)


def test_scalar_and_vectorized_walks_agree(vcos512, eig_cos512, monkeypatch):
    # 9000 steps: the default window leaves a ragged last window of 808
    cfg = McConfig(n_paths=5, dt=1e-3, seed=13)
    runs = []
    for crossover in (0, 10**9):
        monkeypatch.setattr(mc, "_SCALAR_PATHS", crossover)
        runs.append(simulate_paths(vcos512.grid, eig_cos512.drift,
                                   gibbs_density(eig_cos512), 9.0, cfg,
                                   potential=vcos512, record_stride=3))
    vectorized, scalar = runs
    assert np.array_equal(vectorized.positions, scalar.positions)
    assert np.array_equal(vectorized.potential_integrals,
                          scalar.potential_integrals)


def test_memory_flat_in_horizon_one_path(vcos512, eig_cos512):
    # 5000 and 20000 steps both exceed the scalar walk's window; converting
    # the whole horizon to Python floats would add about 600 KB
    cfg = McConfig(n_paths=1, dt=1e-4, seed=4)

    def peak_bytes(T):
        tracemalloc.start()
        try:
            simulate_paths(vcos512.grid, eig_cos512.drift, 0.3, T, cfg,
                           potential=vcos512)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak_bytes(0.5), peak_bytes(2.0)
    assert long - short < 64 * 1024
