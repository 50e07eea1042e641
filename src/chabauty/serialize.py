"""JSON interchange: the subgroup schema and a deterministic writer.

The subgroup format is exactly
``{"ambient_dim": n, "continuous_basis": [[...], ...],
"discrete_basis": [[...], ...]}`` with row vectors and decimal floats.
Reading canonicalizes, so non-canonical generator lists are accepted.
Floats are written with 17 significant digits, infinity as the string
"inf" and the indeterminate covolume as the string "indeterminate".
"""
from __future__ import annotations

import json
import math

import numpy as np

from .errors import DimensionMismatch
from .invariants import INDETERMINATE
from .subgroup import ClosedSubgroup, _as_rows, make_subgroup


def subgroup_to_dict(group: ClosedSubgroup) -> dict:
    return {
        "ambient_dim": group.ambient_dim,
        "continuous_basis": [list(map(float, row))
                             for row in group.continuous_basis],
        "discrete_basis": [list(map(float, row))
                           for row in group.discrete_basis],
    }


def _number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) \
        and not isinstance(x, bool)


def subgroup_from_dict(data: dict) -> ClosedSubgroup:
    """The subgroup of a schema object; the "type" that ``dual`` writes
    is ignored.  Raises DimensionMismatch for a non-object, an unknown
    key, an ``ambient_dim`` that is not an integer and a basis that is
    not a list of rows of ``ambient_dim`` numbers, named by its key."""
    keys = ("ambient_dim", "continuous_basis", "discrete_basis", "type")
    if not isinstance(data, dict) or set(data) - set(keys):
        raise DimensionMismatch(f"a subgroup is an object with keys {keys}")
    n = data.get("ambient_dim")
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DimensionMismatch(f"ambient_dim {n!r} is not an integer")
    bases = [data.get(key, []) for key in keys[1:3]]
    if not all(isinstance(rows, list) and all(
            isinstance(row, list) and all(map(_number, row)) for row in rows)
            for rows in bases):
        raise DimensionMismatch("a basis must be a list of rows of numbers")
    if n >= 0:  # a shape error names the file's key
        bases = [_as_rows(rows, n, key) for key, rows in zip(keys[1:3], bases)]
    return make_subgroup(n, *bases)


def load_subgroup(path) -> ClosedSubgroup:
    with open(path, "r", encoding="utf-8") as handle:
        return subgroup_from_dict(json.load(handle))


def format_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """Deterministic JSON text for the CLI outputs."""
    if obj is None:
        return "null"
    if obj is INDETERMINATE:
        return '"indeterminate"'
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, complex):
        return dumps([obj.real, obj.imag])
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
