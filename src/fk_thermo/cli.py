"""Command-line front end: eigen, propagate, simulate, entropy, maximize, verify.

Every command reads a sectioned key=value config (plus --section.key=value
overrides).  Once the config parses, a meta.json echo of the fully resolved
settings is written to run.out before the command runs, so a failed run
still records its config.  Each cmd_* returns (exit_code, report, tables,
summary) and main writes them: the CSV tables, then <command>.json, then
the summary line(s) ending in " -> <out>/<command>.json".  Floats and key
order are fixed, so identical configs reproduce byte-identical files.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
configuration error (a non-finite --perturb-eigenvalue included), 3 named
numerical failure: any NumericalFailure (NonConvergence, PositivityViolation,
DegenerateGap, DecompositionMismatch, EntropyMismatch, WeightOverflow),
reported as one "fk-thermo: <Name>: <message>" line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_config
from .feynman_kac import propagate_mc, propagate_pde_many
from .gibbs import bin_density, histogram_density, rn_weights, tv_distance
from .grid import GridFunction, HarmonicSpec, integrate
from .mc import McConfig, mean_and_se, simulate_paths
from .serialize import write_csv, write_json
from .spectral import (NumericalFailure, build_generator, critical_point_count,
                       gibbs_density, principal_eigenpair)
from .thermo import (admissible_from_eigen, admissible_from_values,
                     entropy_report, maximize_pressure, pressure_decomposition,
                     relative_entropy)


def _solve(cfg: RunConfig):
    grid = cfg.build_grid()
    V = cfg.build_function("potential", grid)
    solution = principal_eigenpair(build_generator(V))
    return grid, V, solution


def cmd_eigen(cfg: RunConfig):
    grid, V, sol = _solve(cfg)
    tables = {"eigen.csv": (["x", "V", "F", "density_muV", "drift"],
                            [grid.nodes, V.values, sol.eigenfunction.values,
                             gibbs_density(sol).values, sol.drift.values])}
    report = {
        "lambda": sol.eigenvalue,
        "gamma": sol.normalization,
        "spectral_gap": sol.spectral_gap,
        "n": grid.n,
        "critical_points_F": critical_point_count(sol.eigenfunction),
        "residual": sol.residual,
        "residual_bound": sol.residual_bound,
        "sweeps": sol.sweeps,
        "min_F": sol.min_F,
    }
    return 0, report, tables, (f"eigen: lambda={sol.eigenvalue:.12g} "
                               f"gap={sol.spectral_gap:.6g} n={grid.n}")


def cmd_propagate(cfg: RunConfig):
    grid = cfg.build_grid()
    V = cfg.build_function("potential", grid)
    f = cfg.build_function("g", grid)
    if not f.values.any():  # a zero [g] starts from the constant 1
        f = GridFunction(grid, np.ones(grid.n))
    tables = {}
    report = {"method": cfg.method, "t": cfg.t, "dt": cfg.dt, "n": grid.n,
              "x": cfg.x}
    if cfg.method == "pde":
        [u] = propagate_pde_many(V, [f], [cfg.t])[cfg.t]
        tables["propagate.csv"] = (["x", "u"], [grid.nodes, u.values])
        report["value"] = float(u.interp(cfg.x))
    else:
        mc = McConfig(n_paths=cfg.paths, dt=cfg.dt, seed=cfg.seed)
        estimate, std_error = propagate_mc(V, f, cfg.x, mc, cfg.t)
        report.update(paths=cfg.paths, seed=cfg.seed, value=estimate,
                      std_error=std_error)
    return 0, report, tables, f"propagate[{cfg.method}]: value={report['value']:.12g}"


def cmd_simulate(cfg: RunConfig):
    grid = cfg.build_grid()
    V = cfg.build_function("potential", grid)
    sol = None
    if cfg.drift == "doob" or cfg.init == "density:muV":
        sol = principal_eigenpair(build_generator(V))

    if cfg.drift == "doob":
        drift = sol.drift
        target = gibbs_density(sol)
    else:
        ad = admissible_from_values(cfg.build_function("g", grid))
        drift = ad.drift
        target = ad.density
    start = cfg.initial_state(grid, gibbs_density(sol) if sol else None)

    target_bins = bin_density(target, cfg.bins)  # rejects bins not dividing n
    mc = McConfig(n_paths=cfg.paths, dt=cfg.dt, seed=cfg.seed)
    stride = 1 if cfg.save_paths else None
    ens = simulate_paths(grid, drift, start, cfg.T, mc, record_stride=stride)

    finals = ens.positions[:, -1]
    bin_left, counts, empirical = histogram_density(finals, cfg.bins)
    tv = tv_distance(counts / counts.sum(), target_bins)
    tables = {"histogram.csv": (
        ["bin_left", "count", "empirical_density", "target_density"],
        [bin_left, counts, empirical, target_bins * cfg.bins])}
    if cfg.save_paths:
        steps = ens.recorded_steps
        path_ids = np.repeat(np.arange(ens.n_paths), steps.size)
        step_col = np.tile(steps, ens.n_paths)
        tables["paths.csv"] = (["path_id", "step", "x"],
                               [path_ids, step_col, ens.positions.ravel()])
    report = {"tv_distance": tv, "n_paths": cfg.paths, "T": cfg.T, "dt": cfg.dt}
    return 0, report, tables, f"simulate: tv_distance={tv:.6g} paths={cfg.paths}"


def cmd_entropy(cfg: RunConfig):
    grid, V, sol = _solve(cfg)
    if cfg.g_use == "doob":
        ad = admissible_from_eigen(sol, V)
    else:
        ad = admissible_from_values(cfg.build_function("g", grid))
    report = entropy_report(ad, V, sol)
    return 0, report, {}, (
        f"entropy: H={report['entropy']:.12g} pressure={report['pressure']:.12g} "
        f"lambda={report['lambda']:.12g}")


def cmd_maximize(cfg: RunConfig):
    grid, V, sol = _solve(cfg)
    result = maximize_pressure(V, K=cfg.K, lr=cfg.lr, iters=cfg.iters)
    ad = admissible_from_values(result.spec.sample(grid))
    payload = {**entropy_report(ad, V, sol), "iterations": len(result.trace) - 1,
               "stop": result.stop, "grad_norm": result.grad_norm}
    tables = {"trace.csv": (["iter", "value", "grad_norm"],
                            list(zip(*result.trace)))}
    return 0, payload, tables, (f"maximize: value={result.value:.12g} "
                                f"lambda={sol.eigenvalue:.12g}")


def run_verify(cfg: RunConfig, perturb_eigenvalue: float = 0.0):
    """Cross-module invariant battery; returns (exit_code, check records)."""
    grid, V, sol = _solve(cfg)
    lam = sol.eigenvalue
    checks = []

    def record(name: str, value: float, tolerance: float) -> None:
        checks.append({
            "name": name,
            "value": float(value),
            "tolerance": float(tolerance),
            "pass": bool(value <= tolerance),
        })

    # Eigenvalue and eigenvector shift covariance.
    worst_lam, worst_vec = 0.0, 0.0
    for c in (-1.0, 0.5, 3.0):
        shifted = principal_eigenpair(build_generator(V + c))
        worst_lam = max(worst_lam, abs(shifted.eigenvalue - lam - c))
        worst_vec = max(worst_vec, float(np.max(np.abs(
            shifted.eigenfunction.values - sol.eigenfunction.values))))
    record("eigen_shift_lambda", worst_lam, 1e-9)
    record("eigen_shift_vector", worst_vec, 1e-9)

    rng = np.random.default_rng(cfg.seed)
    scale = min(1.0, (grid.n / 128) ** 2)  # keeps e^{2g} resolved below n=128
    kmax = min(4, grid.n // 8)  # k >= n/8 is too coarsely sampled below n=32

    def random_harmonic() -> GridFunction:
        # wavenumbers 1-kmax, each (a, b) drawn uniform on [-1, 1] in turn, scaled
        return HarmonicSpec(harmonics=[(k, *scale * rng.uniform(-1.0, 1.0, 2))
                                       for k in range(1, kmax + 1)]).sample(grid)

    fs = [random_harmonic() for _ in range(9)]

    # Self-adjointness of the propagator in the flat inner product, relative to
    # the products' scale past 1, where their roundoff can pass 1e-9 absolute.
    F = sol.eigenfunction
    sweep = propagate_pde_many(V, fs[:6] + [F], (0.1, 0.5))
    worst = 0.0
    for i in (0, 2, 4):
        for t in (0.1, 0.5):
            (f, g), (pf, pg) = fs[i:i + 2], sweep[t][i:i + 2]
            a, b = integrate(pf * g), integrate(f * pg)
            worst = max(worst, abs(a - b) / max(1.0, abs(a) + abs(b)))
    record("selfadjoint_residual", worst, 1e-9)

    # The flat propagator against the eigenpair: P_t F = e^{lambda t} F,
    # node by node.
    grown = np.exp(0.5 * lam) * F.values
    record("eigen_identity",
           float(np.max(np.abs(sweep[0.5][6].values - grown) / grown)), 1e-8)

    # The normalized semigroup fixes constants; in the Doob frame, as in
    # normalized_semigroup.
    ones = GridFunction(grid, np.ones(grid.n))
    unit = propagate_pde_many(V, [ones], (0.1, 0.5, 1.0), eigenpair=sol)
    worst = max(float(np.max(np.abs(u.values - 1.0))) for [u] in unit.values())
    record("stochastic_unit", worst, 1e-8)

    # Stationarity of the eigen-density under the normalized semigroup.
    density = gibbs_density(sol)
    worst = 0.0
    moved = propagate_pde_many(V, fs[6:], [0.5], eigenpair=sol)[0.5]
    for f, u in zip(fs[6:], moved):
        worst = max(worst, abs(integrate(u * density) - integrate(f * density)))
    record("gibbs_stationarity", worst, 1e-7)

    # Entropy rates never positive.
    worst = -np.inf
    for _ in range(10):
        ad = admissible_from_values(random_harmonic())
        worst = max(worst, relative_entropy(ad))
    record("entropy_sign", worst, 1e-10)

    # Pressure decomposition against the (possibly fault-injected) eigenvalue.
    reference = admissible_from_eigen(sol, V)
    ads = [admissible_from_values(random_harmonic()) for _ in range(10)]
    faulty = dataclasses.replace(sol, eigenvalue=lam + perturb_eigenvalue)
    _, residuals, tolerance = pressure_decomposition(ads, reference, V, faulty)
    record("pressure_decomposition", max(residuals), tolerance)

    # Base-measure path weights average to one.
    mc = McConfig(n_paths=cfg.paths, dt=cfg.dt, seed=cfg.seed)
    ens = simulate_paths(grid, None, cfg.x, 0.5, mc, potential=V,
                         record_stride=None)
    mean, se = mean_and_se(rn_weights(ens, sol))
    record("martingale_mean", abs(mean - 1.0), 3 * se + 5e-3)

    code = 0 if all(c["pass"] for c in checks) else 1
    return code, checks


def cmd_verify(cfg: RunConfig, perturb_eigenvalue: float):
    code, checks = run_verify(cfg, perturb_eigenvalue)
    lines = [f"{'PASS' if c['pass'] else 'FAIL'} {c['name']}: "
             f"value={c['value']:.6g} tolerance={c['tolerance']:.6g}"
             for c in checks]
    lines.append(f"verify: {'all checks passed' if code == 0 else 'FAILURES detected'}")
    return code, {"checks": checks, "exit_code": code}, {}, "\n".join(lines)


_COMMANDS = {"eigen": cmd_eigen, "propagate": cmd_propagate,
             "simulate": cmd_simulate, "entropy": cmd_entropy,
             "maximize": cmd_maximize, "verify": cmd_verify}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fk-thermo",
        description=("Eigenpairs, weighted-heat propagation, Gibbs diffusions "
                     "and pressure checks on the circle."),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a sectioned key=value config")
        if name == "verify":
            p.add_argument("--perturb-eigenvalue", type=float, default=0.0,
                           help="fault injection: offset the eigenvalue used "
                                "by the pressure-decomposition check; give a "
                                "negative offset as --perturb-eigenvalue=-1e-6")
    args, extra = parser.parse_known_args(argv)

    try:
        text = ""
        perturb = getattr(args, "perturb_eigenvalue", 0.0)
        if not math.isfinite(perturb):
            raise ConfigError(f"--perturb-eigenvalue must be finite, got {perturb}")
        if args.config is not None:
            text = Path(args.config).read_text()
        cfg = parse_config(text, overrides=extra)
    except (ConfigError, OSError) as exc:
        print(f"fk-thermo: {exc}", file=sys.stderr)
        return 2

    # The subcommand's own flags (verify's --perturb-eigenvalue) go to it.
    options = {key: value for key, value in vars(args).items()
               if key not in ("command", "config")}
    out = Path(cfg.out)
    report_path = out / f"{args.command}.json"
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "meta.json", {"command": args.command,
                                       "version": __version__,
                                       "config": cfg.resolved()})
        code, report, tables, summary = _COMMANDS[args.command](cfg, **options)
        for name, (header, columns) in tables.items():
            write_csv(out / name, header, columns)
        write_json(report_path, report)
    except (ConfigError, ValueError, OSError) as exc:
        # precondition violations surfaced by the library are usage errors
        print(f"fk-thermo: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"fk-thermo: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"{summary} -> {report_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
