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
from .subgroup import ClosedSubgroup, make_subgroup


def subgroup_to_dict(group: ClosedSubgroup) -> dict:
    return {
        "ambient_dim": group.ambient_dim,
        "continuous_basis": [list(map(float, row))
                             for row in group.continuous_basis],
        "discrete_basis": [list(map(float, row))
                           for row in group.discrete_basis],
    }


def subgroup_from_dict(data: dict) -> ClosedSubgroup:
    try:
        n = int(data["ambient_dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"bad subgroup object: {exc}") from exc
    return make_subgroup(n,
                         data.get("continuous_basis") or [],
                         data.get("discrete_basis") or [])


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
