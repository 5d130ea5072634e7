"""Span tracing of fk_thermo's public functions, driven from outside the package.

Tracer.install rebinds each traced function, in every fk_thermo namespace
that holds it (``cli`` imports ``principal_eigenpair``, ``gibbs`` imports
``simulate_paths``, ``fk_thermo/__init__`` re-exports nearly everything), to
a wrapper that records a span: name, start, end, parent span and job id.
GridFunction.interp is wrapped on the class.  Tracer.uninstall puts every
original object back.  Spans stay in memory until the run ends.

A few wrappers also observe arguments or results to give counts at the layer
boundary (operator bytes, Crank-Nicolson steps, path steps, path-weight ESS,
ascent iterations, bytes written).
"""

from __future__ import annotations

import contextlib
import inspect
import os
import resource
import sys
import time

import numpy as np

# (module, attribute) of every traced function.  The end-to-end metric each
# one should move, and on which workload, is listed in perfbench/README.md.
TRACED = [
    ("spectral", "build_generator"), ("spectral", "principal_eigenpair"),
    ("feynman_kac", "propagate_pde"), ("feynman_kac", "propagate_mc"),
    ("mc", "simulate_paths"),
    ("gibbs", "simulate_sde"), ("gibbs", "rn_weights"),
    ("gibbs", "rn_weights_admissible"), ("gibbs", "normalized_semigroup"),
    ("thermo", "admissible_from_eigen"), ("thermo", "pressure_gap"),
    ("thermo", "maximize_pressure"), ("thermo", "pressure_value"),
    ("thermo", "admissible_from_values"), ("thermo", "entropy_finite_T_mc"),
    ("grid", "derivative"), ("grid", "integrate"), ("grid", "GridFunction.interp"),
    ("cli", "main"), ("config", "parse_config"),
    ("serialize", "write_csv"), ("serialize", "write_json"),
]
SPAN_NAMES = [f"{mod}.{attr}" for mod, attr in TRACED]

COUNTERS = ["spectral.operator_bytes", "feynman_kac.cn_steps", "mc.path_steps",
            "mc.peak_rss_rise_mib", "thermo.ascent_iters", "serialize.bytes_written"]
PEAKS = {"spectral.operator_bytes", "mc.peak_rss_rise_mib"}  # max, not sums

_MARK = "__perfbench_original__"


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _array_bytes(obj) -> int:
    """nbytes of the arrays an object holds, one level into its attributes."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif hasattr(value, "__dict__"):
            total += sum(v.nbytes for v in vars(value).values()
                         if isinstance(v, np.ndarray))
    return total


def self_times(parents, starts, ends) -> list:
    """Span duration minus the union of its direct children's intervals.

    Children of one span never overlap in a single-threaded run, but the
    union is taken anyway, clipped to the parent, so the arithmetic holds
    for any input.
    """
    children: dict[int, list] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i in range(len(parents)):
        covered, cursor = 0.0, starts[i]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, ends[i])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((ends[i] - starts[i]) - covered)
    return out


class Tracer:
    """Span recorder plus the rebinding that routes fk_thermo calls through it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.span_names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = [-1]
        self.job_id = -1
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self.ess: list[float] = []
        self.baseline: list[tuple] = []   # (span name, size label, value, unit)
        self._patched: list[tuple] = []   # (namespace, attribute, original)

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> int:
        name_id = self.name_ids.get(name)
        if name_id is None:
            name_id = self.name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.starts)
        self.parents.append(self.stack[-1])
        self.jobs.append(self.job_id)
        self.span_names.append(name_id)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, start: float, end: float) -> None:
        self.starts[sid] = start
        self.ends[sid] = end
        self.stack.pop()

    @contextlib.contextmanager
    def job(self, name: str):
        """Root span of one job; spans opened inside carry its job id."""
        self.job_id += 1
        sid = self._open(f"job.{name}")
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, start, time.perf_counter())

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name)
            after = observe(tracer, signature.bind(*args, **kwargs).arguments) if observe else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(sid, start, end)
            if after is not None:
                after(result, end - start)
            return result

        setattr(traced, _MARK, fn)
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------ rebinding

    def install(self) -> None:
        """Route every reference to a traced function through a span wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        import fk_thermo  # noqa: F401  (ensures the submodules are loaded)
        namespaces = package_namespaces()
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            module = sys.modules[f"fk_thermo.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    # ------------------------------------------------------------ results

    def layer_metrics(self) -> dict:
        """calls and self_s per traced function, plus the boundary counters."""
        selfs = self_times(self.parents, self.starts, self.ends)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for name_id, s in zip(self.span_names, selfs):
            name = self.names[name_id]
            if name in calls:
                calls[name] += 1
                self_s[name] += s
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counters)
        cn, paths = self.counters["feynman_kac.cn_steps"], self.counters["mc.path_steps"]
        out["feynman_kac.cn_step_us"] = 1e6 * self_s["feynman_kac.propagate_pde"] / cn if cn else 0.0
        out["mc.path_step_ns"] = 1e9 * self_s["mc.simulate_paths"] / paths if paths else 0.0
        out["gibbs.ess_frac"] = float(np.median(self.ess)) if self.ess else 0.0
        iters = self.counters["thermo.ascent_iters"]
        out["thermo.pressure_evals_per_iter"] = (
            self._evals_under("thermo.maximize_pressure", "thermo.pressure_value") / iters
            if iters else 0.0)
        return out

    def _evals_under(self, ancestor: str, name: str) -> int:
        """Spans called `name` that run inside a span called `ancestor`."""
        anc_id, name_id = self.name_ids.get(ancestor), self.name_ids.get(name)
        inside = [False] * len(self.parents)
        count = 0
        for i, p in enumerate(self.parents):
            inside[i] = p >= 0 and (inside[p] or self.span_names[p] == anc_id)
            count += inside[i] and self.span_names[i] == name_id
        return count

    def root_self_sum_errors(self) -> list:
        """Per job: |sum of self times of its spans - root span duration|."""
        selfs = self_times(self.parents, self.starts, self.ends)
        sums: dict[int, float] = {}
        for job, s in zip(self.jobs, selfs):
            sums[job] = sums.get(job, 0.0) + s
        return [abs(sums[self.jobs[i]] - (self.ends[i] - self.starts[i]))
                for i, p in enumerate(self.parents) if p < 0]

    def write(self, fh, round_index: int) -> None:
        """Spans as CSV rows: round, id, parent, job, name, start, end.

        Times are perf_counter seconds; a header is written for round 0.
        """
        if round_index == 0:
            fh.write("round,id,parent,job,name,start,end\n")
        for i in range(len(self.starts)):
            fh.write(f"{round_index},{i},{self.parents[i]},{self.jobs[i]},"
                     f"{self.names[self.span_names[i]]},"
                     f"{self.starts[i]!r},{self.ends[i]!r}\n")


def package_namespaces() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if n == "fk_thermo" or n.startswith("fk_thermo.")]


def leftover_wrappers() -> list:
    """Names in fk_thermo namespaces (and GridFunction) still bound to a wrapper."""
    found = [f"{ns.__name__}.{key}" for ns in package_namespaces()
             for key, value in vars(ns).items() if hasattr(value, _MARK)]
    from fk_thermo.grid import GridFunction
    found += [f"GridFunction.{key}" for key, value in vars(GridFunction).items()
              if hasattr(value, _MARK)]
    return found


# ---------------------------------------------------------------- observers
# Each takes (tracer, bound arguments) before the call and returns a callback
# that gets (result, seconds) after it.

def _obs_build(tracer, args):
    n = args["V"].grid.n

    def after(op, seconds):
        c = tracer.counters
        c["spectral.operator_bytes"] = max(c["spectral.operator_bytes"], _array_bytes(op))
        tracer.baseline.append(("spectral.build_generator", f"n={n}", seconds, "s"))
    return after


def _obs_eigen(tracer, args):
    n = args["op"].grid.n
    return lambda sol, seconds: tracer.baseline.append(
        ("spectral.principal_eigenpair", f"n={n}", seconds, "s"))


def _obs_companion(tracer, args):
    n = args["solution"].eigenfunction.grid.n
    return lambda ad, seconds: tracer.baseline.append(
        ("thermo.admissible_from_eigen", f"n={n}", seconds, "s"))


def _obs_cn(tracer, args):
    def after(u, seconds):
        tracer.counters["feynman_kac.cn_steps"] += args["cfg"].n_steps
    return after


def _obs_paths(tracer, args):
    before = _rss_mib()

    def after(ens, seconds):
        c = tracer.counters
        steps = ens.n_paths * ens.n_steps
        c["mc.path_steps"] += steps
        c["mc.peak_rss_rise_mib"] = max(c["mc.peak_rss_rise_mib"], _rss_mib() - before)
        tracer.baseline.append(("mc.simulate_paths", f"{ens.n_paths} paths x {ens.n_steps} steps",
                                1e9 * seconds / steps, "ns/path-step"))
    return after


def _obs_weights(tracer, args):
    def after(w, seconds):
        tracer.ess.append(float(w.sum() ** 2 / (w.size * np.sum(w * w))))
    return after


def _obs_ascent(tracer, args):
    n, K = args["V"].grid.n, args["K"]

    def after(result, seconds):
        tracer.counters["thermo.ascent_iters"] += len(result.trace) - 1
        tracer.baseline.append(("thermo.maximize_pressure", f"n={n} K={K}", seconds, "s"))
    return after


def _obs_entropy(tracer, args):
    label = f"T={args['T']:g}, {args['cfg'].n_paths} paths"
    return lambda r, seconds: tracer.baseline.append(
        ("thermo.entropy_finite_T_mc", label, _rss_mib(), "MiB peak RSS"))


def _obs_write(tracer, args):
    def after(r, seconds):
        tracer.counters["serialize.bytes_written"] += os.path.getsize(args["path"])
    return after


_OBSERVERS = {
    "spectral.build_generator": _obs_build,
    "spectral.principal_eigenpair": _obs_eigen,
    "thermo.admissible_from_eigen": _obs_companion,
    "feynman_kac.propagate_pde": _obs_cn,
    "mc.simulate_paths": _obs_paths,
    "gibbs.rn_weights": _obs_weights,
    "gibbs.rn_weights_admissible": _obs_weights,
    "thermo.maximize_pressure": _obs_ascent,
    "thermo.entropy_finite_T_mc": _obs_entropy,
    "serialize.write_csv": _obs_write,
    "serialize.write_json": _obs_write,
}
