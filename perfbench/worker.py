"""One workload in one process: set up, then run timed rounds, traced or not.

    python3 perfbench/worker.py --workload W --seed S --seconds R
        --mode setup|run|trace --t0 T

--t0 is CLOCK_MONOTONIC when the parent spawned this process, so the set-up
time covers interpreter start, the imports of numpy, scipy and fk_thermo and
input generation.  The BLAS thread count is capped at nproc before numpy is
imported.  The last stdout line is one JSON object for the parent
(perfbench/run.py); CLI jobs' own prints are captured.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cap_blas_threads() -> tuple[int, int]:
    """Set every BLAS/OpenMP thread variable to min(current, nproc)."""
    nproc = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return nproc, cap


def environment(nproc: int, cap: int) -> dict:
    import numpy as np
    import platform
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": cap}


def run_round(jobs, inputs, tracer=None) -> tuple[float, list]:
    """Run one round of jobs back to back; return its seconds and job records.

    A job that raises or misses a check is recorded as failed and the round
    goes on.
    """
    ctx: dict = {}
    records = []
    for job in jobs:
        name = job.__name__.removeprefix("job_")
        error, checks = None, []
        start = time.perf_counter()
        try:
            if tracer is None:
                checks = job(inputs, ctx)
            else:
                with tracer.job(name):
                    checks = job(inputs, ctx)
        except Exception:  # a failing job is counted, the benchmark goes on
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        failed = [c for c in checks if not c.passed]
        if error or failed:
            print(f"job {name} FAILED: {error or failed}", file=sys.stderr)
        records.append({"job": name, "seconds": seconds,
                        "failed": bool(error or failed),
                        "checks": [[c.name, float(c.value), float(c.tolerance)]
                                   for c in checks]})
    return sum(r["seconds"] for r in records), records


def timed_rounds(jobs, inputs, seconds: float) -> dict:
    start = time.perf_counter()
    rounds, records = [], []
    while not rounds or time.perf_counter() - start < seconds:
        wall, recs = run_round(jobs, inputs)
        rounds.append(wall)
        records += recs
    return {"rounds": rounds, "jobs": records}


def traced_rounds(jobs, inputs, seconds: float, spans_path: Path) -> dict:
    """Traced rounds, each with its own Tracer, until --seconds have passed.

    Per-layer metrics are the median over rounds (the maximum for peaks).
    All spans are written out after the last round.
    """
    import spans

    start = time.perf_counter()
    rounds, tracers, records, leftovers = [], [], [], []
    while not rounds or time.perf_counter() - start < seconds:
        tracer = spans.Tracer()
        tracer.install()
        try:
            wall, recs = run_round(jobs, inputs, tracer)
        finally:
            tracer.uninstall()
        leftovers += spans.leftover_wrappers()
        rounds.append(wall)
        records += recs
        tracers.append(tracer)

    per_round = [t.layer_metrics() for t in tracers]
    layers = {k: (max if k in spans.PEAKS else statistics.median)(m[k] for m in per_round)
              for k in per_round[0]}
    with gzip.open(spans_path, "wt") as fh:
        for index, t in enumerate(tracers):
            t.write(fh, index)
    return {"rounds": rounds, "jobs": records, "layers": layers,
            "leftover_wrappers": leftovers,
            "self_sum_error_s": max(e for t in tracers for e in t.root_self_sum_errors()),
            "baseline": [row for t in tracers for row in t.baseline]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    nproc, cap = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import fk_thermo
    import workloads

    if Path(fk_thermo.__file__).resolve().parent != ROOT / "src" / "fk_thermo":
        print(f"fk_thermo imported from {fk_thermo.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    inputs = workloads.make_inputs(args.workload, args.seed, out)
    result = {"setup_s": _now() - args.t0}
    if args.mode != "setup":
        jobs = workloads.WORKLOADS[args.workload]
        if args.mode == "run":
            result.update(timed_rounds(jobs, inputs, args.seconds))
        else:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            result.update(traced_rounds(jobs, inputs, args.seconds, spans_path))
        import resource
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = environment(nproc, cap)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
