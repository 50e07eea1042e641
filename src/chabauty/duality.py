"""The duality involution on closed subgroups of R^n.

The dual of a subgroup consists of all vectors with integer scalar
product against every element.  It swaps a type (p, q) subgroup with a
type (n-(p+q), q) one: the continuous directions force orthogonality,
the lattice directions dualize inside their own span, and the unused
directions become free.
"""
from __future__ import annotations

import numpy as np

from . import _lattice
from .subgroup import ClosedSubgroup, make_subgroup


def dual(group: ClosedSubgroup) -> ClosedSubgroup:
    """The dual subgroup, in canonical form."""
    n = group.ambient_dim
    cb = group.continuous_basis
    db = group.discrete_basis
    # an orthonormal frame of the lattice's span keeps the inversion
    # well conditioned, and the complement free of the lattice's scale
    w = _lattice.orthonormalize(db)
    comp = _lattice.orthonormal_complement(np.vstack([cb, w]))
    coords = db @ w.T
    dual_coords = np.linalg.inv(coords).T
    dual_rows = dual_coords @ w
    return make_subgroup(n, comp, dual_rows)
