"""Deterministic text formatting for CSV and JSON artifacts.

Every exported float of a field, moments or score file has 17 significant
digits, through fmt17 or the row formats ("%.17g", finiteness checked per
array) of fields and scores, so two runs with the same inputs produce
byte-identical files and a parse of the text recovers the exact float64
bits. The one exception is the sonogram CSV (render.write_sonogram_csv):
it writes "%.9g", nine significant digits, which is deterministic too but
not lossless.
"""

from __future__ import annotations

import math


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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt17(value)
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    raise TypeError(f"unsupported scalar type: {type(value)!r}")


def json_value(value, indent: int = 0) -> str:
    """Serialize nested dicts, lists, and scalars deterministically.

    Dicts keep insertion order. Lists of scalars stay on one line; lists of
    dicts get one element per line for readable score files.
    """
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [f'"{k}": {json_value(v, indent)}' for k, v in value.items()]
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(isinstance(v, dict) for v in items):
            inner = ",\n".join(pad + "  " + json_value(v, indent + 2) for v in items)
            return "[\n" + inner + "\n" + pad + "]"
        return "[" + ", ".join(json_value(v, indent) for v in items) + "]"
    return json_scalar(value)
