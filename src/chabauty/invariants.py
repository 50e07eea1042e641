"""Successive norms, systole, covolume and scale types.

The i-th norm of a closed subgroup is the radius at which the subgroup
generated by elements of norm <= r jumps to rank i: the first p are 0
(continuous directions), the next q are the finite generation radii of
the discrete part, the rest are infinity.
"""
from __future__ import annotations

import math
import weakref

import numpy as np

from . import _lattice
from .errors import WrongAmbientDim
from .subgroup import ClosedSubgroup, GroupType


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


def _generation_radii_sorted(basis: np.ndarray, rank_tol: float,
                             cap: int):
    """Enumerate every lattice point up to the largest basis norm,
    sorted by norm, and record the radii where the span rank jumps
    together with the points realizing them.

    One residual array holds every point with the accepted directions
    projected out, in the order they were accepted; each step accepts
    the first point whose residual is not negligible and projects its
    direction out of the points after it."""
    q = basis.shape[0]
    row_norms = np.linalg.norm(basis, axis=1)
    pts, _ = _lattice.enumerate_ball(
        basis, float(row_norms.max()) * (1 + 1e-12), cap)
    sizes = np.linalg.norm(pts, axis=1)
    keep = sizes > rank_tol
    pts, sizes = pts[keep], sizes[keep]
    resid = pts.copy()
    thresholds = rank_tol * np.maximum(1.0, sizes)
    picked = []
    start = 0
    while len(picked) < q:
        above = np.flatnonzero(
            np.linalg.norm(resid[start:], axis=1) > thresholds[start:])
        if above.size == 0:
            break
        i = start + int(above[0])
        u = resid[i] / np.linalg.norm(resid[i])
        picked.append(i)
        start = i + 1
        tail = resid[start:]
        tail -= np.outer(tail @ u, u)
    return sizes[picked], pts[picked]


def _generation_radii_projected(basis: np.ndarray, rank_tol: float,
                                cap: int):
    """Generation radii via iterated shortest-vector-outside-the-span
    searches in the quotient lattice.

    Equivalent to the sorted enumeration but immune to the blowup of
    very anisotropic spectra (say norms 1, 1, 1000), where the ball at
    the largest basis norm holds millions of points."""
    q, n = basis.shape
    zero_tol = max(1e-12, 1e-10 * float(np.linalg.norm(basis, axis=1).max()))
    span = np.zeros((0, n))
    radii = []
    realizers = []
    while len(radii) < q:
        proj = basis - (basis @ span.T) @ span
        qrows, qcoeff, kernel = _lattice.basis_from_generators(
            proj, zero_tol)
        inside = kernel @ basis if kernel.shape[0] else np.zeros((0, n))
        solver = _lattice.LatticeSolver(inside) if inside.shape[0] else None

        def lifted_norm(coeff_rows):
            full = coeff_rows @ basis
            along = (full @ span.T) @ span if span.shape[0] else 0.0
            resid = full - along
            if solver is None:
                red = np.linalg.norm(along, axis=1) if span.shape[0] \
                    else np.zeros(full.shape[0])
            else:
                red, _ = solver.closest(np.atleast_2d(along))
            return np.sqrt(np.linalg.norm(resid, axis=1) ** 2 + red ** 2), full

        best_sizes, best_fulls = lifted_norm(qcoeff)
        order = int(np.argmin(best_sizes))
        best, realizer = float(best_sizes[order]), best_fulls[order]
        pts, coeffs = _lattice.enumerate_ball(qrows, best * (1 + 1e-12), cap)
        nz = np.linalg.norm(pts, axis=1) > zero_tol
        if np.any(nz):
            sizes, fulls = lifted_norm(coeffs[nz] @ qcoeff)
            arg = int(np.argmin(sizes))
            if sizes[arg] < best:
                best, realizer = float(sizes[arg]), fulls[arg]
        radii.append(best)
        realizers.append(realizer)
        resid = realizer - (realizer @ span.T) @ span if span.shape[0] \
            else realizer
        span = np.vstack([span, resid / np.linalg.norm(resid)])
    return np.array(radii), np.array(realizers)


_generation_memo: "weakref.WeakKeyDictionary[ClosedSubgroup, dict]" = \
    weakref.WeakKeyDictionary()


def generation_data(group: ClosedSubgroup, rank_tol: float = 1e-9,
                    cap: int = 1_000_000):
    """Successive norms together with the lattice vectors realizing the
    finite generation radii.

    The realizers span, radius by radius, the same flag of subspaces as
    the full point sets do, which lets callers build scale
    decompositions without enumerating medium-radius balls.

    Computed once per subgroup object and arguments: the result is kept
    for as long as the subgroup lives and both arrays are read-only.
    Concurrent first calls on one subgroup may each compute it; the
    values are equal."""
    key = (rank_tol, cap)
    hit = _generation_memo.get(group, {}).get(key)
    if hit is None:
        hit = _generation_data(group, rank_tol, cap)
        for arr in hit:
            arr.setflags(write=False)
        _generation_memo.setdefault(group, {})[key] = hit
    return hit


def _generation_data(group: ClosedSubgroup, rank_tol: float, cap: int):
    n = group.ambient_dim
    p = group.continuous_dim
    q = group.discrete_rank
    out = np.full(n, np.inf)
    out[:p] = 0.0
    if q == 0:
        return out, np.zeros((0, n))
    basis = group.discrete_basis
    nu = _lattice.dual_coefficient_norms(basis)
    rmax = float(np.linalg.norm(basis, axis=1).max())
    box = np.prod(2 * np.floor(rmax * nu + 1e-9) + 1)
    if box <= 262_144:
        radii, realizers = _generation_radii_sorted(basis, rank_tol, cap)
    else:
        radii, realizers = _generation_radii_projected(basis, rank_tol, cap)
    out[p:p + len(radii)] = radii
    return out, realizers


def norms(group: ClosedSubgroup, rank_tol: float = 1e-9,
          cap: int = 1_000_000) -> np.ndarray:
    """The n successive norms as an array with values in [0, inf]."""
    return generation_data(group, rank_tol, cap)[0]


def systole(group: ClosedSubgroup, rank_tol: float = 1e-9) -> float:
    """The first norm: length of the shortest nonzero element (inf for
    the trivial group, 0 when there is a continuous direction)."""
    if group.ambient_dim == 0:
        return math.inf
    return float(norms(group, rank_tol)[0])


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


def delta_type(group: ClosedSubgroup, delta: float, tol: float = 1e-9,
               rank_tol: float = 1e-9) -> GroupType | None:
    """Type of the subgroup as seen at scale delta, or None when some
    norm sits within ``tol`` of a threshold (the subgroup is not
    decomposable there); the norms use ``rank_tol``."""
    if not 0 < delta < 1:
        raise ValueError("the scale must lie in (0, 1)")
    vals = norms(group, rank_tol)
    inv = 1.0 / delta
    for v in vals:
        if not math.isinf(v):
            if abs(v - delta) <= tol * max(1.0, delta):
                return None
            if abs(v - inv) <= tol * max(1.0, inv):
                return None
    p = int(np.sum(vals < delta))
    q = int(np.sum((vals > delta) & (vals < inv)))
    return GroupType(p, q)
