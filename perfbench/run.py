"""fk-thermo benchmark: one workload per invocation, in its own process.

    python3 perfbench/run.py --workload grid-large --seed 1 --seconds 15 --trace 0

Run from the repository root (or any checkout of it); the package is taken
from ./src.  The set-up time is sampled SETUP_SAMPLES times, each a fresh
process started and timed to "inputs ready"; the last of them goes on to run
the workload's rounds back to back (a closed loop, one caller) until
--seconds have passed.  --trace 1 then runs traced rounds in a second fresh
process and reports per-layer metrics instead of end-to-end ones.

Human-readable lines come first; the last stdout line is the JSON result.
Exit code 1 on a failed or timed-out worker, 2 on a checkout without
src/fk_thermo.  Details and the layer map: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "fk_thermo"
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170.0   # every run must end well inside 180 s

# Rows of ROADMAP.md's baseline table, keyed by (traced span, size); a size
# of None matches calls of any size, which are then printed with their own.
BASELINE = {
    ("spectral.principal_eigenpair", "n=4096"): "4.8 s",
    ("spectral.build_generator", "n=4096"): "350 ms",
    ("thermo.admissible_from_eigen", "n=2048"): "0.39 s",
    ("thermo.admissible_from_eigen", "n=4096"): "2.1 s",
    ("mc.simulate_paths", None): "154 ns/path-step (10k paths x 1000 steps, drift only, 1.54 s)",
    ("thermo.entropy_finite_T_mc", None): "825 MiB peak RSS (T=10, 10k paths)",
    ("thermo.maximize_pressure", "n=256 K=8"): "5.6 s (917 iterations)",
}


def tail(samples: list) -> tuple | None:
    """Highest of p99/p95/p90/p75 with at least ten samples above it."""
    ordered = sorted(samples)
    for p in (99, 95, 90, 75):
        k = int(len(ordered) * p / 100)
        if len(ordered) - k - 1 >= 10:
            return p, ordered[k]
    return None


def src_lines() -> dict:
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "init" if path.stem == "__init__" else path.stem
        counts[f"{name}.src_lines"] = len(path.read_text().splitlines())
    counts["src_lines_total"] = sum(counts.values())
    return counts


def spawn(args, mode: str, deadline: float) -> dict:
    """Start one worker, wait for it, return its JSON line (or exit 1)."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--t0", repr(t0)]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit(f"perfbench: {mode} worker timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def print_jobs(records: list) -> None:
    by_job: dict[str, list] = {}
    for rec in records:
        by_job.setdefault(rec["job"], []).append(rec["seconds"])
    for name, secs in by_job.items():
        print(f"  job {name}: median {statistics.median(secs):.4f} s over {len(secs)}")


def with_units(values: dict, listed: list) -> dict:
    """Attach BENCHMARK.json's units; the names must match its list exactly."""
    units = {m["name"]: m["unit"] for m in listed}
    if values.keys() != units.keys():
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: "
                 f"{sorted(values.keys() ^ units.keys())}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def print_baseline(rows: list) -> None:
    """Per-call measurements next to the ROADMAP baseline rows they match."""
    seen: dict[tuple, list] = {}
    for name, size, value, unit in rows:
        if (name, size) in BASELINE or (name, None) in BASELINE:
            seen.setdefault((name, size, unit), []).append(value)
    for (name, size, unit), values in sorted(seen.items()):
        roadmap = BASELINE.get((name, size)) or BASELINE[(name, None)]
        print(f"baseline {name} [{size}]: {statistics.median(values):.4g} {unit} "
              f"(median of {len(values)}); ROADMAP: {roadmap}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package at {PACKAGE}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    res = spawn(args, "run", deadline)
    setups.append(res["setup_s"])
    env = res["env"]
    records = res["jobs"]
    if args.trace:
        # Traced rounds get a fresh process of their own, so peak-RSS rises and
        # first-call costs match those of the untraced rounds they are compared to.
        traced = spawn(args, "trace", deadline)
        records = records + traced["jobs"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print_jobs(res["jobs"])
    attempted, failed = len(records), sum(rec["failed"] for rec in records)
    print(f"fail_frac {failed / attempted:.4g} ({failed} of {attempted} jobs)")

    rounds = res["rounds"]
    wall = statistics.median(rounds)
    high = tail(rounds)
    print(f"wall_s {wall:.4f} s, median of {len(rounds)} untraced rounds; "
          + (f"p{high[0]} {high[1]:.4f} s" if high else
             "no tail percentile (needs at least 20 rounds)"))
    setup = statistics.median(setups)
    print(f"setup_s {setup:.4f} s, median of {len(setups)} processes")
    print(f"peak_rss_mib {res['peak_rss_mib']:.1f} MiB")

    correct = failed == 0
    if args.trace:
        layers = traced["layers"]
        layers["trace_overhead_frac"] = statistics.median(traced["rounds"]) / wall - 1
        metrics = with_units({**layers, **src_lines()}, bench["per_layer"])
        for name, m in metrics.items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")
        print(f"traced rounds {len(traced['rounds'])}; largest |sum of self "
              f"times - root span| {traced['self_sum_error_s']:.3g} s")
        print_baseline(traced["baseline"])
        if traced["leftover_wrappers"]:
            print(f"wrappers left bound: {traced['leftover_wrappers']}", file=sys.stderr)
        correct = (correct and not traced["leftover_wrappers"]
                   and traced["self_sum_error_s"] <= 1e-9)
    else:
        metrics = with_units({"wall_s": wall, "setup_s": setup,
                              "peak_rss_mib": res["peak_rss_mib"]}, bench["end_to_end"])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
