"""Deterministic JSON and CSV emission.

Floats are printed with 15 significant digits, keys keep insertion order and
lines end with \\n, so identical runs produce byte-identical outputs.

A CSV table is checked whole before its file opens, then streamed
_BLOCK_ROWS rows at a time, so the memory it holds does not grow with its
length.  A value that cannot be serialized, in a table or a JSON report,
raises ValueError and leaves no file.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["format_number", "write_json", "write_csv"]

# Rows converted to Python scalars at once: bounds what a table of any length
# holds.  Blocks of 4096 rows left more of the heap in use after the write.
_BLOCK_ROWS = 1024


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    value = float(x)
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value}")
    return f"{value:.15g}"


def _encode(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return format_number(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{_encode(str(k))}: {_encode(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, obj) -> None:
    """Write obj as JSON; a value that cannot be serialized leaves no file."""
    text = _encode(obj) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _column(col) -> tuple[str, np.ndarray]:
    """The printf field of one CSV column and the cells it formats.

    An integer array, or a finite float array of at most double precision,
    is kept as is: %d and %.15g print its Python scalars as format_number
    does.  Any other column is formatted now, cell by cell.
    """
    if isinstance(col, np.ndarray) and col.ndim == 1:
        if col.dtype.kind in "iu":
            return "%d", col
        if col.dtype.kind == "f" and col.dtype.itemsize <= 8 and np.isfinite(col).all():
            return "%.15g", col
    return "%s", np.array([format_number(v) for v in col], dtype=object)


def write_csv(path, header: list[str], columns: list) -> None:
    """Write equal-length columns under a header row; a bad value leaves no file."""
    lengths = {len(col) for col in columns}
    if len(lengths) != 1:
        raise ValueError("all CSV columns must have the same length")
    (length,) = lengths
    fields, cells = zip(*map(_column, columns))
    row = ",".join(fields) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, length, _BLOCK_ROWS):
            block = [c[start:start + _BLOCK_ROWS].tolist() for c in cells]
            fh.writelines(map(row.__mod__, zip(*block)))
