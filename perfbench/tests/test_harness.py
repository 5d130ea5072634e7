"""Self-tests of the benchmark harness: span arithmetic, rebinding, counts.

    python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import worker
import workloads
from fk_thermo import cli
from fk_thermo.grid import GridFunction

ROOT = Path(__file__).resolve().parents[2]


def test_self_times_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    selfs = spans.self_times(parents, starts, ends)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(selfs) == pytest.approx(ends[0] - starts[0])


def test_self_time_counts_overlapping_children_once():
    selfs = spans.self_times([-1, 0, 0], [0.0, 1.0, 3.0], [10.0, 4.0, 6.0])
    assert selfs[0] == pytest.approx(5.0)


def test_job_self_times_add_up_to_the_root_span():
    tracer = spans.Tracer()
    leaf = tracer._wrap("leaf", lambda: sum(range(1000)))
    mid = tracer._wrap("mid", lambda: [leaf() for _ in range(3)])
    with tracer.job("synthetic"):
        mid()
        leaf()
    assert [tracer.names[i] for i in tracer.span_names] == (
        ["job.synthetic", "mid", "leaf", "leaf", "leaf", "leaf"])
    assert tracer.parents == [-1, 0, 1, 1, 1, 0]
    assert max(tracer.root_self_sum_errors()) <= 1e-12


def _bindings():
    names = {(ns.__name__, key): value for ns in spans.package_namespaces()
             for key, value in vars(ns).items()}
    names[("GridFunction", "interp")] = GridFunction.__dict__["interp"]
    return names


def test_uninstall_restores_every_rebound_name(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hasattr(sys.modules["fk_thermo.cli"].principal_eigenpair, "__perfbench_original__")
        assert hasattr(sys.modules["fk_thermo"].simulate_paths, "__perfbench_original__")
        with tracer.job("eigen"):
            assert cli.main(["eigen", "--grid.n=64", f"--run.out={tmp_path}"]) == 0
    finally:
        tracer.uninstall()
    called = {tracer.names[i] for i in tracer.span_names}
    assert {"cli.main", "config.parse_config", "spectral.principal_eigenpair",
            "serialize.write_csv", "grid.derivative"} <= called
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert spans.leftover_wrappers() == []


def test_counts_match_job_inputs(tmp_path):
    inputs = workloads.make_inputs("paths-wide", 5, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, records = worker.run_round(workloads.WORKLOADS["paths-wide"], inputs, tracer)
    finally:
        tracer.uninstall()
    assert not any(r["failed"] for r in records)
    w = workloads
    steps = round(w.PDE_T / w.DT)
    metrics = tracer.layer_metrics()
    assert metrics["mc.path_steps"] == (w.DOOB_PATHS * round(w.DOOB_T / w.DT)
                                        + (w.FK_PATHS + w.WEIGHT_PATHS) * steps)
    # propagate_pde directly, and once inside normalized_semigroup
    assert metrics["feynman_kac.cn_steps"] == 2 * steps
    assert metrics["feynman_kac.propagate_pde.calls"] == 2


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paths-wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
