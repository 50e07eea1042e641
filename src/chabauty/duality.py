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
    spanned = np.vstack([cb, db])
    comp = _lattice.orthonormal_complement(spanned, n)
    if db.shape[0] == 0:
        return make_subgroup(n, comp, None)
    # dualize the lattice inside its own span, in an orthonormal frame
    # of that span to keep the inversion well conditioned
    w = _lattice.orthonormalize(db)
    coords = db @ w.T
    dual_coords = np.linalg.inv(coords).T
    dual_rows = dual_coords @ w
    return make_subgroup(n, comp, dual_rows)
