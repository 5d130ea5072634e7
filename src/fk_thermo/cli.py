"""Command-line front end: eigen, propagate, simulate, entropy, maximize, verify.

Every command reads a sectioned key=value config (plus --section.key=value
overrides), writes a meta.json echo of the fully resolved settings next to
its outputs, and emits deterministic CSV/JSON (fixed float formatting, fixed
key order), so identical configs reproduce byte-identical files.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
configuration error, 3 named numerical failure (NonConvergence,
PositivityViolation, DegenerateGap, DecompositionMismatch or
EntropyMismatch), reported as one "fk-thermo: <Name>: <message>" line on
stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_config
from .feynman_kac import PropagatorConfig, check_selfadjoint, propagate_mc, propagate_pde
from .gibbs import (bin_density, histogram_density, normalized_semigroup,
                    rn_weights, simulate_sde, tv_distance)
from .grid import GridFunction, HarmonicSpec, function_from_csv, integrate
from .mc import McConfig
from .serialize import write_csv, write_json
from .spectral import (DegenerateGap, NonConvergence, PositivityViolation,
                       build_generator, critical_point_count, gibbs_density,
                       principal_eigenpair)
from .thermo import (DecompositionMismatch, EntropyMismatch,
                     admissible_from_eigen, admissible_from_spec,
                     admissible_from_values, make_entropy_report,
                     maximize_pressure, pressure_decomposition,
                     relative_entropy)

_COMMANDS = ("eigen", "propagate", "simulate", "entropy", "maximize", "verify")
_NUMERICAL_FAILURES = (NonConvergence, PositivityViolation, DegenerateGap,
                       DecompositionMismatch, EntropyMismatch)


def _solve(cfg: RunConfig):
    grid = cfg.build_grid()
    V = cfg.build_potential(grid)
    solution = principal_eigenpair(build_generator(V))
    return grid, V, solution


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_meta(cfg: RunConfig, out: Path, command: str) -> None:
    write_json(out / "meta.json", {
        "command": command,
        "version": __version__,
        "config": cfg.resolved(),
    })


def _g_section_given(cfg: RunConfig) -> bool:
    return any(key.startswith("g.") for key in cfg.raw)


def cmd_eigen(cfg: RunConfig) -> int:
    grid, V, sol = _solve(cfg)
    out = _outdir(cfg)
    _write_meta(cfg, out, "eigen")
    density = gibbs_density(sol)
    write_csv(out / "eigen.csv",
              ["x", "V", "F", "density_muV", "drift"],
              [grid.nodes, V.values, sol.eigenfunction.values,
               density.values, sol.drift.values])
    write_json(out / "eigen.json", {
        "lambda": sol.eigenvalue,
        "gamma": sol.normalization,
        "spectral_gap": sol.spectral_gap,
        "n": grid.n,
        "critical_points_F": critical_point_count(sol.eigenfunction),
    })
    print(f"eigen: lambda={sol.eigenvalue:.12g} gap={sol.spectral_gap:.6g} "
          f"n={grid.n} -> {out / 'eigen.json'}")
    return 0


def cmd_propagate(cfg: RunConfig) -> int:
    grid = cfg.build_grid()
    V = cfg.build_potential(grid)
    if _g_section_given(cfg):
        f = cfg.build_g(grid)
    else:
        f = GridFunction(grid, np.ones(grid.n))
    out = _outdir(cfg)
    _write_meta(cfg, out, "propagate")
    if cfg.method == "pde":
        u = propagate_pde(V, f, PropagatorConfig(t=cfg.t, dt=cfg.dt))
        write_csv(out / "propagate.csv", ["x", "u"], [grid.nodes, u.values])
        report = {
            "method": "pde",
            "t": cfg.t,
            "dt": cfg.dt,
            "n": grid.n,
            "x": cfg.x,
            "value": float(u.interp(cfg.x)),
        }
    else:
        mc = McConfig(n_paths=cfg.paths, dt=cfg.dt, seed=cfg.seed)
        estimate, std_error = propagate_mc(V, f, cfg.x, mc, cfg.t)
        report = {
            "method": "mc",
            "t": cfg.t,
            "dt": cfg.dt,
            "n": grid.n,
            "x": cfg.x,
            "paths": cfg.paths,
            "seed": cfg.seed,
            "value": estimate,
            "std_error": std_error,
        }
    write_json(out / "propagate.json", report)
    print(f"propagate[{cfg.method}]: value={report['value']:.12g} "
          f"-> {out / 'propagate.json'}")
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    grid = cfg.build_grid()
    V = cfg.build_potential(grid)
    out = _outdir(cfg)
    _write_meta(cfg, out, "simulate")

    sol = None
    if cfg.drift == "doob" or cfg.init == "density:muV":
        sol = principal_eigenpair(build_generator(V))

    if cfg.drift == "doob":
        drift = sol.drift
        target = gibbs_density(sol)
    else:
        ad = admissible_from_values(cfg.build_g(grid))
        drift = ad.drift
        target = ad.density

    if cfg.init.startswith("point:"):
        start: float | GridFunction = float(cfg.init.split(":", 1)[1])
    elif cfg.init == "density:muV":
        start = gibbs_density(sol)
    else:
        path = cfg.init.split(":", 1)[1]
        raw = function_from_csv(path, grid)
        if np.any(raw.values < 0):
            raise ConfigError(f"initial density {path} has negative entries")
        total = integrate(raw)
        if abs(total - 1.0) > 1e-8:
            raise ConfigError(f"initial density {path} integrates to {total}, not 1")
        start = GridFunction(grid, raw.values / total)

    mc = McConfig(n_paths=cfg.paths, dt=cfg.dt, seed=cfg.seed)
    stride = 1 if cfg.save_paths else None
    ens = simulate_sde(drift, start, cfg.T, mc, record_stride=stride)

    finals = ens.positions[:, -1]
    bin_left, counts, empirical = histogram_density(finals, cfg.bins)
    target_bins = bin_density(target, cfg.bins)
    tv = tv_distance(counts / counts.sum(), target_bins)
    write_csv(out / "histogram.csv",
              ["bin_left", "count", "empirical_density", "target_density"],
              [bin_left, counts, empirical, target_bins * cfg.bins])
    if cfg.save_paths:
        steps = ens.recorded_steps
        path_ids = np.repeat(np.arange(ens.n_paths), steps.size)
        step_col = np.tile(steps, ens.n_paths)
        write_csv(out / "paths.csv", ["path_id", "step", "x"],
                  [path_ids, step_col, ens.positions.ravel()])
    write_json(out / "simulate.json", {
        "tv_distance": tv,
        "n_paths": cfg.paths,
        "T": cfg.T,
        "dt": cfg.dt,
    })
    print(f"simulate: tv_distance={tv:.6g} paths={cfg.paths} "
          f"-> {out / 'simulate.json'}")
    return 0


def _report_dict(report) -> dict:
    return {
        "entropy": report.entropy,
        "mean_potential": report.mean_potential,
        "pressure": report.pressure,
        "gap": report.gap,
        "lambda": report.lambda_ref,
    }


def cmd_entropy(cfg: RunConfig) -> int:
    grid, V, sol = _solve(cfg)
    if cfg.g_use == "doob":
        ad = admissible_from_eigen(sol, V)
    else:
        ad = admissible_from_values(cfg.build_g(grid))
    report = make_entropy_report(ad, V, sol)
    out = _outdir(cfg)
    _write_meta(cfg, out, "entropy")
    write_json(out / "entropy.json", _report_dict(report))
    print(f"entropy: H={report.entropy:.12g} pressure={report.pressure:.12g} "
          f"lambda={report.lambda_ref:.12g} -> {out / 'entropy.json'}")
    return 0


def cmd_maximize(cfg: RunConfig) -> int:
    grid, V, sol = _solve(cfg)
    out = _outdir(cfg)
    _write_meta(cfg, out, "maximize")
    result = maximize_pressure(V, K=cfg.K, lr=cfg.lr, iters=cfg.iters)
    ad = admissible_from_spec(result.spec, grid)
    report = make_entropy_report(ad, V, sol)
    payload = _report_dict(report)
    payload["iterations"] = len(result.trace) - 1
    payload["stop"] = result.stop
    payload["grad_norm"] = result.grad_norm
    write_json(out / "maximize.json", payload)
    write_csv(out / "trace.csv", ["iter", "value", "grad_norm"],
              [[row[0] for row in result.trace],
               [row[1] for row in result.trace],
               [row[2] for row in result.trace]])
    print(f"maximize: value={result.value:.12g} lambda={sol.eigenvalue:.12g} "
          f"-> {out / 'maximize.json'}")
    return 0


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

    def random_harmonic() -> GridFunction:
        # wavenumbers 1-4, each (a, b) drawn uniform on [-1, 1] in turn
        return HarmonicSpec(harmonics=[(k, *rng.uniform(-1.0, 1.0, 2))
                                       for k in range(1, 5)]).sample(grid)

    # Self-adjointness of the propagator in the flat inner product.
    worst = 0.0
    for _ in range(3):
        f = random_harmonic()
        g = random_harmonic()
        for t in (0.1, 0.5):
            worst = max(worst, check_selfadjoint(V, f, g, t, cfg.dt))
    record("selfadjoint_residual", worst, 1e-9)

    # The normalized semigroup fixes constants.
    ones = GridFunction(grid, np.ones(grid.n))
    worst = 0.0
    for t in (0.1, 0.5, 1.0):
        out = normalized_semigroup(sol, V, ones, t, cfg.dt)
        worst = max(worst, float(np.max(np.abs(out.values - 1.0))))
    record("stochastic_unit", worst, 1e-8)

    # Stationarity of the eigen-density under the normalized semigroup.
    density = gibbs_density(sol)
    worst = 0.0
    for _ in range(3):
        f = random_harmonic()
        moved = normalized_semigroup(sol, V, f, 0.5, cfg.dt)
        worst = max(worst, abs(integrate(moved * density) - integrate(f * density)))
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
    _, residuals, tolerance = pressure_decomposition(
        ads, reference, V, lam, lam + perturb_eigenvalue)
    record("pressure_decomposition", max(residuals), tolerance)

    # Base-measure path weights average to one.
    mc = McConfig(n_paths=cfg.paths, dt=cfg.dt, seed=cfg.seed)
    zero_drift = GridFunction(grid, np.zeros(grid.n))
    ens = simulate_sde(zero_drift, cfg.x, 0.5, mc, potential=V,
                       record_stride=None)
    weights = rn_weights(ens, sol)
    se = float(weights.std(ddof=1) / np.sqrt(cfg.paths))
    record("martingale_mean", abs(float(weights.mean()) - 1.0), 3 * se + 5e-3)

    code = 0 if all(c["pass"] for c in checks) else 1
    return code, checks


def cmd_verify(cfg: RunConfig, perturb_eigenvalue: float) -> int:
    out = _outdir(cfg)
    _write_meta(cfg, out, "verify")
    code, checks = run_verify(cfg, perturb_eigenvalue)
    write_json(out / "verify.json", {"checks": checks, "exit_code": code})
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"{status} {c['name']}: value={c['value']:.6g} "
              f"tolerance={c['tolerance']:.6g}")
    print(f"verify: {'all checks passed' if code == 0 else 'FAILURES detected'} "
          f"-> {out / 'verify.json'}")
    return code


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
                                "by the pressure-decomposition check")
    args, extra = parser.parse_known_args(argv)

    try:
        text = ""
        if args.config is not None:
            text = Path(args.config).read_text()
        cfg = parse_config(text, overrides=extra)
    except (ConfigError, OSError) as exc:
        print(f"fk-thermo: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "eigen":
            return cmd_eigen(cfg)
        if args.command == "propagate":
            return cmd_propagate(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "entropy":
            return cmd_entropy(cfg)
        if args.command == "maximize":
            return cmd_maximize(cfg)
        return cmd_verify(cfg, args.perturb_eigenvalue)
    except (ConfigError, ValueError, OSError) as exc:
        # precondition violations surfaced by the library are usage errors
        print(f"fk-thermo: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_FAILURES as exc:
        print(f"fk-thermo: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
