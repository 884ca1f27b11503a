"""Deterministic text formats for CSV and JSON artifacts, and the one
reader of numeric CSV files.

Every exported float of a field, moments or score file has 17 significant
digits, through fmt17, fmt17_column (a column formatted once per distinct
value) or the row formats ("%.17g", finiteness checked per array) of
fields and scores, so two runs with the same inputs produce byte-identical
files and a parse of the text recovers the exact float64 bits. The one
exception is the sonogram CSV (render.write_sonogram_csv): it writes
"%.9g", nine significant digits, which is deterministic too but not
lossless.

read_csv_table reads the field CSV (r,p,value) and the wavefunction CSV
(x,re,im) alike: one parse of the whole text, and a line-by-line rescan
only to name the file, line and cell of a fault.

written is the one write path: a command writes all its files or none.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

from .errors import refuse


def fmt17(x: float) -> str:
    """Render a float with 17 significant digits (lossless for float64)."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value cannot be serialized: {x!r}")
    return format(float(x), ".17g")


def fmt17_column(values) -> list[str]:
    """"%.17g" of each value of a float64 array, in order. Each distinct
    bit pattern is formatted once, so a value that repeats along a column
    costs one format, and -0.0 still prints -0. Raises ValueError for a
    non-finite value, the first in column order, as fmt17 does."""
    values = np.asarray(values, dtype=np.float64)
    refuse(values, np.isfinite(values), ValueError, "non-finite value cannot be serialized: {!r}")
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    distinct = bits.view(np.float64)
    text = np.array(("%.17g " * distinct.size % tuple(distinct.tolist())).split(), dtype=object)
    return text[inverse.ravel()].tolist()


def json_value(value) -> str:
    """Deterministic one-line JSON of nested dicts (in insertion order),
    lists and scalars: floats via fmt17, strings escaped, ints verbatim, None null."""
    if isinstance(value, dict):
        return "{" + ", ".join(f'"{k}": {json_value(v)}' for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(json_value, value)) + "]"
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


class _Temporary(str):
    """The temporary path + ".part" that an open written() block gave for
    path, its target; a nested block writes it in place."""

    def __new__(cls, path):
        temp = super().__new__(cls, f"{path}.part")
        temp.target = str(path)
        return temp


@contextlib.contextmanager
def written(*paths):
    """Temporaries path + ".part" for the block to write: each replaces its
    path, the first path last, when the block ends; all are removed if it
    raises. A temporary of an enclosing block, or a path that exists as no
    regular file (a device, a pipe, a symlink), is written in place. An
    OSError that names a temporary, or one of a block of one path that
    names no file, as write() raises past a file-size limit or on a full
    disk, is given the path the caller named instead."""
    temps = [
        p if isinstance(p, _Temporary) or os.path.islink(p) or (os.path.exists(p) and not os.path.isfile(p))
        else _Temporary(p) for p in paths
    ]
    own = {t: t.target for p, t in zip(paths, temps) if t is not p}
    try:
        yield temps
        for temp in reversed(own):
            os.replace(temp, own[temp])
    except OSError as exc:
        targets = {t: t.target for t in temps if isinstance(t, _Temporary)}
        if exc.filename in targets:  # a new error, as os.replace's names a second file
            raise type(exc)(exc.errno, exc.strerror, targets[exc.filename]) from exc
        if exc.filename is None and exc.strerror is not None and len(paths) == 1:
            exc.filename = getattr(paths[0], "target", str(paths[0]))
        raise
    finally:
        for temp in filter(os.path.exists, own):
            os.remove(temp)


def read_text(path) -> str:
    """The text of a UTF-8 file, newlines translated as open() does.
    Raises OSError when the file cannot be read, and ValueError naming it
    when its bytes are not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


def read_csv_table(path, header: str) -> np.ndarray:
    """The rows under the exact header line of a numeric CSV file, as a
    (rows, columns) float64 array; empty lines are skipped.

    Raises OSError when the file cannot be read, and ValueError naming
    the file, and the line where there is one, for text that is not UTF-8,
    a wrong header, a row whose width differs from the header's, or a cell
    that is not a finite number.
    """
    lines = read_text(path).splitlines()
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


def csv_row_line(path, index) -> int:
    """Line number in path, from 1, of row `index` of the table that
    read_csv_table returns: the header is line 1, empty lines are skipped."""
    lines = read_text(path).splitlines()
    return [n for n, line in enumerate(lines[1:], start=2) if line][index]


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
