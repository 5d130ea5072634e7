"""Deterministic JSON and CSV emission.

Floats are printed with 15 significant digits, keys keep insertion order and
lines end with \\n, so identical runs produce byte-identical outputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_number", "dumps_json", "write_json", "write_csv"]


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    value = float(x)
    if not np.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value}")
    return f"{value:.15g}"


def _encode(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return format_number(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{_encode(str(k))}: {_encode(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    return _encode(obj) + "\n"


def write_json(path, obj) -> None:
    """Write obj as JSON; a value that cannot be serialized leaves no file."""
    text = dumps_json(obj)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_csv(path, header: list[str], columns: list) -> None:
    """Write equal-length columns under a header row; a bad value leaves no file."""
    lengths = {len(col) for col in columns}
    if len(lengths) != 1:
        raise ValueError("all CSV columns must have the same length")
    rows = [",".join(format_number(v) for v in row) for row in zip(*columns)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(header), *rows, ""]))
