"""Path engine: per-path streams, streamed increments, block and chunk
independence, the scalar walk of narrow blocks, zero drifts, the memory
guard, and path ranges split over forked processes."""

import errno
import os
import threading
import tracemalloc

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import fk_thermo.mc as mc
from fk_thermo import (GridFunction, HarmonicSpec, McConfig,
                       gibbs_density, make_grid, simulate_paths)
from fk_thermo.feynman_kac import PropagatorConfig
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
    # chunks of 50 steps: quadrupling the horizon adds no increment memory.
    # The increment buffer is mapped, which tracemalloc does not see, so the
    # shapes of the mapped buffers are checked too: positions, integrals,
    # then increments.
    monkeypatch.setattr(mc, "_CHUNK_DOUBLES", 100 * 50)
    cfg = McConfig(n_paths=100, dt=1e-3, seed=4)
    shapes, shared_zeros = [], mc._shared_zeros

    def recorded(shape):
        shapes.append(shape)
        return shared_zeros(shape)

    monkeypatch.setattr(mc, "_shared_zeros", recorded)

    def peak_bytes(T):
        shapes.clear()
        tracemalloc.start()
        try:
            simulate_paths(vcos512.grid, eig_cos512.drift, 0.3, T, cfg,
                           potential=vcos512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shapes == [(100, 2), (100,), (100, 50)], (T, shapes)
        return peak

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
    # 10 endpoint-only paths: 20 recorded doubles plus a 10 x 500 increment
    # buffer over 500 steps, inside the window, or a 10 x 512 one (the
    # window) over 1000 steps
    grid = make_grid(64)
    cfg = McConfig(n_paths=10, dt=1e-3, seed=1)
    for T, needed in ((0.5, 20 + 10 * 500), (1.0, 20 + 10 * 512)):
        monkeypatch.setattr(mc, "_MAX_DOUBLES", needed - 1)
        with pytest.raises(ValueError, match="memory guard"):
            simulate_paths(grid, None, 0.5, T, cfg)
        monkeypatch.setattr(mc, "_MAX_DOUBLES", needed)
        assert simulate_paths(grid, None, 0.5, T, cfg).positions.shape == (10, 2)


@pytest.mark.parametrize("n_paths, T, buffer", [
    (100, 2.0, (100, 512)), (5000, 0.5, (5000, 419)),
])
def test_increment_buffer_bounded_by_window(vcos512, eig_cos512, monkeypatch,
                                            n_paths, T, buffer):
    # Endpoint-only runs map positions, integrals, then increments.  100
    # paths over 2000 steps draw 512 steps at a time; 5000 paths over 500
    # steps keep 2^21 // 5000 = 419.  Neither chunking moves a bit: both
    # equal a run drawing 7 steps at a time.
    shapes, shared_zeros = [], mc._shared_zeros

    def recorded(shape):
        shapes.append(shape)
        return shared_zeros(shape)

    monkeypatch.setattr(mc, "_shared_zeros", recorded)
    cfg = McConfig(n_paths=n_paths, dt=1e-3, seed=14)
    runs = []
    for window in (mc._WINDOW_STEPS, 7):
        monkeypatch.setattr(mc, "_WINDOW_STEPS", window)
        runs.append(simulate_paths(vcos512.grid, eig_cos512.drift, 0.3, T, cfg,
                                   potential=vcos512))
    assert shapes[:3] == [(n_paths, 2), (n_paths,), buffer]
    assert shapes[5] == (n_paths, 7)
    assert np.array_equal(runs[0].positions, runs[1].positions)
    assert np.array_equal(runs[0].potential_integrals, runs[1].potential_integrals)


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
        PropagatorConfig(t=T, dt=dt).n_steps


def test_mean_and_se_squares_at_the_scale_of_the_values():
    # Deviations of 1e301 square past the largest double unless scaled
    # first; copies of one value have standard error 0, not ulps of it.
    x = np.random.default_rng(3).standard_normal(50)
    mean, se = mc.mean_and_se(x)
    big_mean, big_se = mc.mean_and_se(x * 2.0**1000)
    assert big_mean == mean * 2.0**1000
    assert big_se == pytest.approx(se * 2.0**1000, rel=1e-14)
    assert mc.mean_and_se(np.full(100, 3.8e260)) == (float(np.full(100, 3.8e260).mean()), 0.0)
    assert mc.mean_and_se(np.zeros(3)) == (0.0, 0.0)


@pytest.mark.parametrize("dt", [0.0, -0.0, float("nan")])
def test_step_count_rejects_non_positive_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        mc.step_count(1.0, dt)


@pytest.mark.parametrize("n_paths, seed, field", [
    (2.5, 1, "n_paths"), (10.0, 1, "n_paths"), ("10", 1, "n_paths"),
    (10, 1.5, "seed"), (10, 1.0, "seed"), (10, None, "seed"),
])
def test_config_names_a_non_integral_count_or_seed(n_paths, seed, field):
    # Without the check these construct, and simulate_paths fails later
    # with a bare TypeError that names neither field.
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        McConfig(n_paths=n_paths, dt=1e-3, seed=seed)


def test_config_accepts_numpy_integers():
    cfg = McConfig(n_paths=np.int32(3), dt=1e-3, seed=np.uint64(2**64 - 1))
    ens = simulate_paths(make_grid(8), None, 0.5, 0.01, cfg)
    assert np.array_equal(ens.positions,
                          simulate_paths(make_grid(8), None, 0.5, 0.01,
                                         McConfig(3, 1e-3, 2**64 - 1)).positions)


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
    # 9000 steps: the default window leaves a ragged last window of 296
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


def _count_forks(monkeypatch):
    """Record the child pid of each os.fork the parent makes."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _force_processes(monkeypatch, count, min_steps=1):
    monkeypatch.setattr(mc, "_usable_cpus", lambda: count)
    monkeypatch.setattr(mc, "_MIN_RANGE_STEPS", min_steps)


@pytest.mark.parametrize("cpus, n_paths, widest, n_steps, count", [
    (2, 4, 4, 10**5, 2),            # a few long paths split
    (2, 200, 200, 200, 1),          # 40000 path-steps: the fork costs more
    (2, 2000, 2000, 200, 2),        # 1000 x 200 per range clears 2**17
    (4, 2000, 2000, 200, 3),        # 500 x 200 per range would not
    (4, 3, 3, 10**6, 3),            # never more ranges than paths
    (4, 10**5, 2, 10, 2),           # nor than rows of the increment buffer
    (4, 40_000, 20_000, 10, 3),     # ranges of several blocks
    (1, 20_000, 20_000, 1000, 1),   # one usable CPU
])
def test_process_count(monkeypatch, cpus, n_paths, widest, n_steps, count):
    monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
    assert mc._process_count(n_paths, widest, n_steps) == count


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(n_paths=st.integers(1, 3000), k=st.integers(1, 12),
                  stride=st.sampled_from([1, 2, 5, None]),
                  fields=st.sampled_from(["", "drift", "potential", "drift+potential"]),
                  density_start=st.booleans(), processes=st.integers(1, 4),
                  block_paths=st.sampled_from([20_000, 700, 57]))
def test_forked_ranges_identical_to_serial(vcos512, eig_cos512, n_paths, k,
                                           stride, fields, density_start,
                                           processes, block_paths):
    # Ranges of one path, ranges of several blocks (57 and 700 paths per
    # block, split over the processes' rows of the buffer) and ranges
    # narrower than the scalar walk's crossover all keep the serial bits.
    drift = eig_cos512.drift if "drift" in fields else None
    potential = vcos512 if "potential" in fields else None
    start = gibbs_density(eig_cos512) if density_start else 0.3
    n_steps = k * (stride or 1)
    cfg = McConfig(n_paths=n_paths, dt=1e-3, seed=n_paths)
    runs = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(mc, "_BLOCK_PATHS", block_paths)
        forks = _count_forks(monkeypatch)
        for count in (1, processes):
            _force_processes(monkeypatch, count)
            runs.append(simulate_paths(vcos512.grid, drift, start, n_steps * 1e-3,
                                       cfg, potential=potential,
                                       record_stride=stride))
    assert len(forks) == min(processes, n_paths, block_paths) - 1
    _no_child_left()
    serial, split = runs
    assert np.array_equal(split.positions, serial.positions)
    if potential is None:
        assert split.potential_integrals is None
    else:
        assert np.array_equal(split.potential_integrals,
                              serial.potential_integrals)


def test_wide_block_split_unevenly(vcos512, eig_cos512, monkeypatch):
    # 20000 x 20 path-steps: four CPUs would leave 100000 per range, under
    # 2**17, so three ranges of 6666, 6667 and 6667 paths run
    cfg = McConfig(n_paths=20_000, dt=1e-3, seed=14)
    forks, runs = _count_forks(monkeypatch), []
    for cpus in (1, 4):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
        runs.append(simulate_paths(vcos512.grid, eig_cos512.drift,
                                   gibbs_density(eig_cos512), 0.02, cfg,
                                   potential=vcos512, record_stride=4))
    assert len(forks) == 2
    _no_child_left()
    serial, split = runs
    assert np.array_equal(split.positions, serial.positions)
    assert np.array_equal(split.potential_integrals, serial.potential_integrals)


def _record_parent_walks(monkeypatch):
    """Record the (first, last) paths of each range the parent walks."""
    walks, run_ranges, parent = [], mc._run_ranges, os.getpid()

    def recorded(walk, ranges):
        def logged(*args):
            if os.getpid() == parent:
                walks.append(args[:2])
            walk(*args)

        run_ranges(logged, ranges)

    monkeypatch.setattr(mc, "_run_ranges", recorded)
    return walks


def _inject_fault(monkeypatch, in_parent):
    """Make every range walked in the parent, or in a child, raise."""
    parent, walk = os.getpid(), mc._scalar_window

    def faulty(*args):
        if (os.getpid() == parent) == in_parent:
            raise RuntimeError("injected fault")
        return walk(*args)

    monkeypatch.setattr(mc, "_scalar_window", faulty)


def _check_parent_rewalks(vcos512, eig_cos512, monkeypatch, capfd, n_paths,
                          processes, refused=(), failing_children=False):
    """Split n_paths over processes while the forks numbered in refused
    raise EAGAIN and, with failing_children, every child's range raises.
    The parent must walk its own range and then each refused or failed one
    in path order, for the serial bits, with nothing on stderr and no child
    left."""
    cfg = McConfig(n_paths=n_paths, dt=1e-3, seed=n_paths)
    serial = simulate_paths(vcos512.grid, eig_cos512.drift, 0.3, 0.1, cfg,
                            potential=vcos512)
    _force_processes(monkeypatch, processes)
    if failing_children:
        _inject_fault(monkeypatch, in_parent=False)
    attempts, fork = [], os.fork

    def refusing():
        attempts.append(None)
        if len(attempts) in refused:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", refusing)
    forks, walks = _count_forks(monkeypatch), _record_parent_walks(monkeypatch)
    split = simulate_paths(vcos512.grid, eig_cos512.drift, 0.3, 0.1, cfg,
                           potential=vcos512)
    _no_child_left()
    bounds = [n_paths * r // processes for r in range(processes + 1)]
    walked = {0, *refused, *(range(processes) if failing_children else ())}
    assert len(attempts) == processes - 1
    assert len(forks) == processes - 1 - len(refused)
    assert walks == [(bounds[r], bounds[r + 1]) for r in sorted(walked)]
    assert np.array_equal(split.positions, serial.positions)
    assert np.array_equal(split.potential_integrals, serial.potential_integrals)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("failing", ["child", "parent"])
def test_no_process_outlives_a_failed_range(vcos512, eig_cos512, monkeypatch,
                                            capfd, failing):
    # 8 paths over 4 processes: ranges of 2 paths, each on the scalar walk.
    # A range that fails in a child is walked again by the parent; a fault
    # in the parent's own range kills the children and re-raises.
    if failing == "child":
        _check_parent_rewalks(vcos512, eig_cos512, monkeypatch, capfd, 8, 4,
                              failing_children=True)
        return
    _force_processes(monkeypatch, 4)
    _inject_fault(monkeypatch, in_parent=True)
    cfg = McConfig(n_paths=8, dt=1e-3, seed=3)
    with pytest.raises(RuntimeError, match="injected fault"):
        simulate_paths(vcos512.grid, eig_cos512.drift, 0.3, 0.1, cfg)
    _no_child_left()


@pytest.mark.parametrize("processes, refused, failing_children", [
    (2, {1}, False),        # the only fork
    (3, {2}, False),        # the first fork succeeds, the second is refused
    (4, {2, 3}, False),
    (4, {1, 2, 3}, False),  # every fork
    (4, {2}, True),         # forked ranges 1 and 3 fail around unforked 2
], ids=["only", "second", "last-two", "every", "among-failed-children"])
def test_unforkable_ranges_walk_in_the_parent(vcos512, eig_cos512, monkeypatch,
                                              capfd, processes, refused,
                                              failing_children):
    # A fork that raises EAGAIN leaves its range to the parent, which walks
    # it once the children that did fork are reaped.  12 paths per run.
    _check_parent_rewalks(vcos512, eig_cos512, monkeypatch, capfd, 12,
                          processes, refused, failing_children)


def test_serial_while_another_thread_runs(vcos512, eig_cos512, monkeypatch):
    # A fork copies only its own thread, so no fork while another is alive.
    _force_processes(monkeypatch, 4)
    cfg = McConfig(n_paths=500, dt=1e-3, seed=6)
    forks = _count_forks(monkeypatch)
    split = simulate_paths(vcos512.grid, eig_cos512.drift, 0.3, 0.05, cfg,
                           potential=vcos512)
    assert len(forks) == 3
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        serial = simulate_paths(vcos512.grid, eig_cos512.drift, 0.3, 0.05, cfg,
                                potential=vcos512)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(forks) == 3
    assert np.array_equal(split.positions, serial.positions)
    assert np.array_equal(split.potential_integrals, serial.potential_integrals)
