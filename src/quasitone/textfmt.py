"""Deterministic text formats for CSV and JSON artifacts, and the one
reader of numeric CSV files.

Every exported float of a field, moments or score file has 17 significant
digits, through fmt17 or the row formats ("%.17g", finiteness checked per
array) of fields and scores, so two runs with the same inputs produce
byte-identical files and a parse of the text recovers the exact float64
bits. The one exception is the sonogram CSV (render.write_sonogram_csv):
it writes "%.9g", nine significant digits, which is deterministic too but
not lossless.

read_csv_table reads the field CSV (r,p,value) and the wavefunction CSV
(x,re,im) alike: one parse of the whole text, and a line-by-line rescan
only to name the file, line and cell of a fault.
"""

from __future__ import annotations

import math

import numpy as np


def fmt17(x: float) -> str:
    """Render a float with 17 significant digits (lossless for float64)."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value cannot be serialized: {x!r}")
    return format(float(x), ".17g")


def json_scalar(value) -> str:
    """One JSON scalar: floats via fmt17, strings escaped, ints verbatim,
    None as null."""
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt17(value)
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    raise TypeError(f"unsupported scalar type: {type(value)!r}")


def json_value(value) -> str:
    """Serialize nested dicts, lists, and scalars deterministically on one
    line; dicts keep insertion order."""
    if isinstance(value, dict):
        return "{" + ", ".join(f'"{k}": {json_value(v)}' for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(json_value, value)) + "]"
    return json_scalar(value)


def read_csv_table(path, header: str) -> np.ndarray:
    """The rows under the exact header line of a numeric CSV file, as a
    (rows, columns) float64 array; empty lines are skipped.

    Raises OSError when the file cannot be read, and ValueError naming
    the file, and the line where there is one, for a wrong header, a row
    whose width differs from the header's, or a cell that is not a finite
    number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != header:
        raise ValueError(f"{path}: expected header {header!r}")
    rows, width = lines[1:], header.count(",") + 1
    if not any(rows):
        return np.empty((0, width))
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        _raise_first_bad_row(path, rows, width)
    if table.shape[1] != width or not np.isfinite(table).all():
        _raise_first_bad_row(path, rows, width)
    return table


def _raise_first_bad_row(path, rows, width):
    """Raise ValueError for the first row, line 2 of the file onward, of
    the wrong width or with a cell that np.loadtxt, which parses the whole
    table too, does not read as a finite number."""
    for n, line in enumerate(rows, start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError(f"{path}: line {n}: expected {width} cells, got {len(cells)}")
        for cell in cells:
            try:
                # an empty cell is no line to np.loadtxt, so it unpacks no value
                (x,) = np.loadtxt([cell], delimiter=",", comments=None, ndmin=1) if cell else ()
            except ValueError:
                raise ValueError(f"{path}: line {n}: value {cell!r} is not a number") from None
            if not math.isfinite(x):
                raise ValueError(f"{path}: line {n}: value {cell!r} is not finite")
