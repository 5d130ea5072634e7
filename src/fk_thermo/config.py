"""Sectioned key=value run configuration with strict validation.

Grammar (line oriented): `[section]` headers, `key = value` entries, `#`
starts a comment.  Values are integers, decimals, bare strings, or bracketed
numeric lists like [[1,1,0],[2,0,0.5]].  Sections and keys outside the
schema, duplicate keys, non-finite numbers (inf, nan, or a literal such as
1e999 that overflows), values that break their _SCHEMA row's rule, a grid
size or harmonic sum (constant included) that make_grid or HarmonicSpec
rejects or that cannot be allocated, and a malformed run.init are rejected
with the offending line or key named; the rows are checked first, in order.
Rules that tie keys to a command (bins dividing n for simulate, K <= n/4
for maximize) are checked by the library function that command calls.
"""

from __future__ import annotations

import ast
import math
from dataclasses import make_dataclass

from .grid import (GridFunction, HarmonicSpec, PeriodicGrid, function_from_csv,
                   integrate, make_grid)

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_override"]


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


# One row per key: (section, key, type, default, rule).  The row order is the
# meta.json echo order.  Keys of [grid] and [run] become RunConfig attributes
# of the same name; those of [potential] and [g] get the section as a prefix.
# A rule is the tuple of allowed values, a _BOUNDS phrase, or None.
_SCHEMA: tuple[tuple[str, str, type, object, object], ...] = (
    ("grid", "n", int, 512, None),
    ("potential", "constant", float, 0.0, None),
    ("potential", "harmonics", tuple, (), None),
    ("potential", "csv", str, None, None),
    ("run", "t", float, 0.5, "be positive"),
    ("run", "dt", float, 1e-3, "be positive"),
    ("run", "T", float, 1.0, "be positive"),
    ("run", "paths", int, 10_000, "be a positive integer"),
    ("run", "seed", int, 42, "fit in uint64"),
    ("run", "K", int, 8, "be a positive integer"),
    ("run", "lr", float, 0.2, "be positive"),
    ("run", "iters", int, 500, "be a positive integer"),
    ("run", "bins", int, 64, "be at least 2"),
    ("run", "x", float, 0.25, None),
    ("run", "method", str, "pde", ("pde", "mc")),
    ("run", "init", str, "density:muV", None),
    ("run", "drift", str, "doob", ("doob", "g-spec")),
    ("run", "out", str, ".", None),
    ("run", "save_paths", int, 0, (0, 1)),
    ("g", "constant", float, 0.0, None),
    ("g", "harmonics", tuple, (), None),
    ("g", "csv", str, None, None),
    ("g", "use", str, "spec", ("spec", "doob")),
)
_TYPES = {(section, key): kind for section, key, kind, *_ in _SCHEMA}
_BOUNDS = {
    "be positive": lambda value: value > 0,
    "be a positive integer": lambda value: value >= 1,
    "fit in uint64": lambda value: 0 <= value < 2**64,
    "be at least 2": lambda value: value >= 2,
}


def _attribute(section: str, key: str) -> str:
    return key if section in ("grid", "run") else f"{section}_{key}"


class _RunConfigMethods:
    """Builders and the meta.json echo; the fields come from _SCHEMA."""

    def build_grid(self) -> PeriodicGrid:
        return make_grid(self.n)

    def build_function(self, section: str, grid: PeriodicGrid) -> GridFunction:
        """The [potential] or [g] section on grid: its CSV if one is given,
        otherwise its harmonic sum."""
        csv = getattr(self, _attribute(section, "csv"))
        if csv is not None:
            return function_from_csv(csv, grid)
        return HarmonicSpec(getattr(self, _attribute(section, "constant")),
                            getattr(self, _attribute(section, "harmonics"))).sample(grid)

    def initial_state(self, grid: PeriodicGrid,
                      mu_V: GridFunction | None) -> float | GridFunction:
        """simulate's start from run.init: the point of point:<x>, mu_V for
        density:muV, or the nonnegative unit-mass density in a CSV."""
        kind, _, value = self.init.partition(":")
        if kind == "point":
            return float(value)
        if value == "muV":
            return mu_V
        raw = function_from_csv(value, grid)
        if raw.values.min() < 0:
            raise ConfigError(f"initial density {value} has negative entries")
        total = integrate(raw)
        if abs(total - 1.0) > 1e-8:
            raise ConfigError(f"initial density {value} integrates to {total}, not 1")
        return GridFunction(grid, raw.values / total)

    def resolved(self) -> dict:
        """Plain dict echo of every effective setting, for meta.json."""
        out: dict[str, dict] = {}
        for section, key, kind, *_ in _SCHEMA:
            value = getattr(self, _attribute(section, key))
            if kind is tuple:
                value = [list(h) for h in value]
            out.setdefault(section, {})[key] = value
        return out


RunConfig = make_dataclass(
    "RunConfig",
    [(_attribute(section, key), kind) for section, key, kind, *_ in _SCHEMA],
    bases=(_RunConfigMethods,),
    namespace={
        "__module__": __name__,
        "__doc__": "Fully validated run configuration with defaults applied: "
                   "one attribute per _SCHEMA row.",
    },
)


def _parse_value(section: str, key: str, text: str, where: str):
    expected = _TYPES[(section, key)]
    text = text.strip()
    if expected is tuple:
        try:
            parsed = ast.literal_eval(text)
        except (ValueError, SyntaxError) as exc:
            raise ConfigError(f"{where}: cannot parse list value {text!r}") from exc
        if not isinstance(parsed, (list, tuple)):
            raise ConfigError(f"{where}: {key} must be a bracketed list")
        return tuple(parsed)
    if expected in (int, float):
        try:
            return expected(text)
        except ValueError as exc:
            noun = "an integer" if expected is int else "a number"
            raise ConfigError(f"{where}: {key} must be {noun}, got {text!r}") from exc
    return text


def _entries_from_text(text: str) -> dict[tuple[str, str], object]:
    entries: dict[tuple[str, str], object] = {}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not any(section == row[0] for row in _SCHEMA):
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw_line!r}")
        if section is None:
            raise ConfigError(f"{where}: entry before any [section] header")
        key, _, value_text = line.partition("=")
        key = key.strip()
        if (section, key) not in _TYPES:
            raise ConfigError(f"{where}: unknown key {key!r} in section [{section}]")
        if (section, key) in entries:
            raise ConfigError(
                f"{where}: duplicate key {key!r} in section [{section}]"
            )
        entries[(section, key)] = _parse_value(section, key, value_text, where)
    return entries


def parse_override(token: str) -> tuple[str, str, object]:
    """Parse one --section.key=value command-line override."""
    body = token[2:] if token.startswith("--") else token
    dotted, eq, value_text = body.partition("=")
    section, dot, key = dotted.partition(".")
    if not eq or not dot or (section, key) not in _TYPES:
        raise ConfigError(f"bad override {token!r}; expected --section.key=value")
    return section, key, _parse_value(section, key, value_text, f"override {token}")


def _validate(entries: dict[tuple[str, str], object]) -> RunConfig:
    merged = {(section, key): default for section, key, _, default, _ in _SCHEMA}
    merged.update(entries)

    def check(cond: bool, message: str) -> None:
        if not cond:
            raise ConfigError(message)

    for section, key, kind, _, rule in _SCHEMA:
        value, name = merged[(section, key)], f"{section}.{key}"
        if kind is float:
            check(math.isfinite(value), f"{name} must be finite, got {value}")
        if isinstance(rule, tuple):
            check(value in rule,
                  f"{name} must be {' or '.join(map(str, rule))}, got {value!r}")
        elif rule is not None:
            check(_BOUNDS[rule](value), f"{name} must {rule}, got {value}")

    try:
        grid = make_grid(merged[("grid", "n")])
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"grid.n: {exc}") from None
    for section in ("potential", "g"):
        try:
            spec = HarmonicSpec(merged[(section, "constant")],
                                merged[(section, "harmonics")])
            spec.sample(grid)
        except ValueError as exc:
            raise ConfigError(f"{section}.harmonics: {exc}") from None
        merged[(section, "harmonics")] = spec.harmonics

    init = merged[("run", "init")]
    check(init.startswith(("point:", "density:")),
          f"run.init must be point:<x> or density:muV or density:<csv>, got {init!r}")
    kind, _, point = init.partition(":")
    if kind == "point":
        try:
            point = float(point)
        except ValueError:
            raise ConfigError(f"run.init point value is not a number: {init!r}")
        check(math.isfinite(point), f"run.init point must be finite, got {init!r}")

    return RunConfig(
        **{_attribute(section, key): merged[(section, key)]
           for section, key, *_ in _SCHEMA})


def parse_config(text: str, overrides: list[str] | None = None) -> RunConfig:
    """Parse sectioned key=value text, apply overrides, validate everything."""
    entries = _entries_from_text(text)
    for token in overrides or []:
        section, key, value = parse_override(token)
        entries[(section, key)] = value
    return _validate(entries)
