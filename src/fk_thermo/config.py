"""Sectioned key=value run configuration with strict validation.

Grammar (line oriented): `[section]` headers, `key = value` entries, `#`
starts a comment.  Values are integers, decimals, bare strings, or bracketed
numeric lists like [[1,1,0],[2,0,0.5]].  Sections and keys outside the
schema, duplicate keys, non-finite numbers (inf, nan, or a literal such as
1e999 that overflows), per-key sign and enumeration violations, and a grid
size or harmonic sum (constant included) that make_grid or HarmonicSpec
rejects are all rejected with the offending line or key named.  Rules that
tie keys to a command (bins dividing n for simulate, K <= n/4 for maximize)
are checked by the library function that command calls.
"""

from __future__ import annotations

import ast
import math
from dataclasses import make_dataclass

from .grid import GridFunction, HarmonicSpec, PeriodicGrid, function_from_csv, make_grid

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_override"]


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


# One row per key: (section, key, type, default).  The row order is the
# meta.json echo order.  Keys of [grid] and [run] become RunConfig attributes
# of the same name; those of [potential] and [g] get the section as a prefix.
_SCHEMA: tuple[tuple[str, str, type, object], ...] = (
    ("grid", "n", int, 512),
    ("potential", "constant", float, 0.0),
    ("potential", "harmonics", tuple, ()),
    ("potential", "csv", str, None),
    ("run", "t", float, 0.5),
    ("run", "dt", float, 1e-3),
    ("run", "T", float, 1.0),
    ("run", "paths", int, 10_000),
    ("run", "seed", int, 42),
    ("run", "K", int, 8),
    ("run", "lr", float, 0.2),
    ("run", "iters", int, 500),
    ("run", "bins", int, 64),
    ("run", "x", float, 0.25),
    ("run", "method", str, "pde"),
    ("run", "init", str, "density:muV"),
    ("run", "drift", str, "doob"),
    ("run", "out", str, "."),
    ("run", "save_paths", int, 0),
    ("g", "constant", float, 0.0),
    ("g", "harmonics", tuple, ()),
    ("g", "csv", str, None),
    ("g", "use", str, "spec"),
)
_TYPES = {(section, key): kind for section, key, kind, _ in _SCHEMA}


def _attribute(section: str, key: str) -> str:
    return key if section in ("grid", "run") else f"{section}_{key}"


class _RunConfigMethods:
    """Builders and the meta.json echo; the fields come from _SCHEMA."""

    def build_grid(self) -> PeriodicGrid:
        return make_grid(self.n)

    def build_potential(self, grid: PeriodicGrid) -> GridFunction:
        if self.potential_csv is not None:
            return function_from_csv(self.potential_csv, grid)
        spec = HarmonicSpec(constant=self.potential_constant,
                            harmonics=self.potential_harmonics)
        return spec.sample(grid)

    def build_g(self, grid: PeriodicGrid) -> GridFunction:
        if self.g_csv is not None:
            return function_from_csv(self.g_csv, grid)
        spec = HarmonicSpec(constant=self.g_constant, harmonics=self.g_harmonics)
        return spec.sample(grid)

    def resolved(self) -> dict:
        """Plain dict echo of every effective setting, for meta.json."""
        out: dict[str, dict] = {}
        for section, key, kind, _ in _SCHEMA:
            value = getattr(self, _attribute(section, key))
            if kind is tuple:
                value = [list(h) for h in value]
            out.setdefault(section, {})[key] = value
        return out


RunConfig = make_dataclass(
    "RunConfig",
    [(_attribute(section, key), kind) for section, key, kind, _ in _SCHEMA],
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
    if expected is int:
        try:
            value = int(text)
        except ValueError as exc:
            raise ConfigError(f"{where}: {key} must be an integer, got {text!r}") from exc
        return value
    if expected is float:
        try:
            return float(text)
        except ValueError as exc:
            raise ConfigError(f"{where}: {key} must be a number, got {text!r}") from exc
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
    merged = {(section, key): default for section, key, _, default in _SCHEMA}
    merged.update(entries)

    def get(section: str, key: str):
        return merged[(section, key)]

    def check(cond: bool, message: str) -> None:
        if not cond:
            raise ConfigError(message)

    for (section, key), kind in _TYPES.items():
        if kind is float:
            value = get(section, key)
            check(math.isfinite(value), f"{section}.{key} must be finite, got {value}")

    try:
        grid = make_grid(get("grid", "n"))
    except ValueError as exc:
        raise ConfigError(f"grid.n: {exc}") from None
    for section in ("potential", "g"):
        try:
            spec = HarmonicSpec(get(section, "constant"), get(section, "harmonics"))
            spec.sample(grid)
        except ValueError as exc:
            raise ConfigError(f"{section}.harmonics: {exc}") from None
        merged[(section, "harmonics")] = spec.harmonics

    for key in ("dt", "t", "T", "lr"):
        value = get("run", key)
        check(value > 0, f"run.{key} must be positive, got {value}")
    for key in ("paths", "K", "iters"):
        value = get("run", key)
        check(value >= 1, f"run.{key} must be a positive integer, got {value}")
    seed = get("run", "seed")
    check(0 <= seed < 2**64, f"run.seed must fit in uint64, got {seed}")
    bins = get("run", "bins")
    check(bins >= 2, f"run.bins must be at least 2, got {bins}")
    method = get("run", "method")
    check(method in ("pde", "mc"), f"run.method must be pde or mc, got {method!r}")
    init = get("run", "init")
    check(init.startswith(("point:", "density:")),
          f"run.init must be point:<x> or density:muV or density:<csv>, got {init!r}")
    if init.startswith("point:"):
        try:
            point = float(init.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"run.init point value is not a number: {init!r}")
        check(math.isfinite(point), f"run.init point must be finite, got {init!r}")
    drift = get("run", "drift")
    check(drift in ("doob", "g-spec"),
          f"run.drift must be doob or g-spec, got {drift!r}")
    use = get("g", "use")
    check(use in ("spec", "doob"), f"g.use must be spec or doob, got {use!r}")
    save_paths = get("run", "save_paths")
    check(save_paths in (0, 1), f"run.save_paths must be 0 or 1, got {save_paths}")

    return RunConfig(
        **{_attribute(section, key): merged[(section, key)]
           for section, key, _, _ in _SCHEMA})


def parse_config(text: str, overrides: list[str] | None = None) -> RunConfig:
    """Parse sectioned key=value text, apply overrides, validate everything."""
    entries = _entries_from_text(text)
    for token in overrides or []:
        section, key, value = parse_override(token)
        entries[(section, key)] = value
    return _validate(entries)
