"""Successive norms, systole, covolume and scale types.

The i-th norm of a closed subgroup is the radius at which the subgroup
generated by elements of norm <= r jumps to rank i: the first p are 0
(continuous directions), the next q are the finite generation radii of
the discrete part, the rest are infinity.

Each finite norm is the norm of the shortest vector of some nonzero
class of L/2L, L the discrete part: a vector that is not the only one
of its class up to sign is the sum of two strictly shorter lattice
vectors.  So the norms and their realizers come from the 2^q - 1 class
vectors of the subgroup's shared solver, the query its Voronoi cell
reads too, with no ball enumeration: ``LatticeSolver.successive_norms``
runs the residual pass over them, and this module pads its result.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import WrongAmbientDim
from .subgroup import ClosedSubgroup, GroupType, _kept, _solver


class _Indeterminate:
    """Covolume of a line in the plane: it takes every value at once, so
    a single number would be wrong.  Serialized as "indeterminate"."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Indeterminate"


INDETERMINATE = _Indeterminate()


def generation_data(group: ClosedSubgroup):
    """Successive norms together with the lattice vectors realizing the
    finite generation radii.

    The realizers span, radius by radius, the same flag of subspaces as
    the full point sets do, which lets callers build scale
    decompositions without enumerating medium-radius balls.

    The class query of the subgroup's solver holds at most 10^6 nodes
    on one level of its search, summed over the 2^q - 1 classes.  Over
    that, EnumerationBudgetExceeded names the rank and the cap, and
    nothing is kept.

    Computed once per subgroup object and kept on it; both arrays are
    read-only."""
    return _kept(group, "_generation_data", _generation_data)


def _generation_data(group: ClosedSubgroup):
    """p zeros, the solver's ``successive_norms``, then infinity."""
    n, p = group.ambient_dim, group.continuous_dim
    out = np.full(n, np.inf)
    out[:p] = 0.0
    realizers = np.zeros((0, n))
    if group.discrete_rank:
        sizes, realizers = _solver(group).successive_norms()
        out[p:p + len(sizes)] = sizes
    out.setflags(write=False)
    realizers.setflags(write=False)
    return out, realizers


def norms(group: ClosedSubgroup) -> np.ndarray:
    """The n successive norms as an array with values in [0, inf]."""
    return generation_data(group)[0]


def systole(group: ClosedSubgroup) -> float:
    """The first norm: length of the shortest nonzero element (inf for
    the trivial group, 0 when there is a continuous direction)."""
    if group.ambient_dim == 0:
        return math.inf
    return float(norms(group)[0])


def covolume(group: ClosedSubgroup):
    """Area of the quotient plane, for subgroups of R^2 only.

    Lattices give the determinant of a basis; types (1,1) and (2,0) give
    0, types (0,1) and (0,0) give inf, and a line gives INDETERMINATE.
    """
    if group.ambient_dim != 2:
        raise WrongAmbientDim("covolume is defined for subgroups of R^2")
    p, q = group.group_type
    if (p, q) == (0, 2):
        return abs(float(np.linalg.det(group.discrete_basis)))
    if (p, q) in ((1, 1), (2, 0)):
        return 0.0
    if (p, q) in ((0, 1), (0, 0)):
        return math.inf
    return INDETERMINATE


def discrete_covolume(group: ClosedSubgroup) -> float:
    """Volume of the fundamental cell of the discrete part, any ambient
    dimension.  Plumbing helper, not the planar covolume above."""
    if group.discrete_rank == 0:
        return 1.0
    g = group.discrete_basis @ group.discrete_basis.T
    return float(np.sqrt(max(np.linalg.det(g), 0.0)))


def delta_type(group: ClosedSubgroup, delta: float) -> GroupType | None:
    """Type of the subgroup as seen at scale delta, or None when some
    norm sits within 1e-9 (relative to the threshold, if larger than 1)
    of delta or 1 / delta: the subgroup is not decomposable there."""
    if not 0 < delta < 1:
        raise ValueError("the scale must lie in (0, 1)")
    vals = norms(group)
    inv = 1.0 / delta
    for v in vals:
        if not math.isinf(v):
            if abs(v - delta) <= 1e-9 or abs(v - inv) <= 1e-9 * inv:
                return None
    p = int(np.sum(vals < delta))
    q = int(np.sum((vals > delta) & (vals < inv)))
    return GroupType(p, q)
