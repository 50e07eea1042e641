"""Canonical representation of closed subgroups of R^n.

Every closed subgroup of R^n is a direct sum of a linear subspace (its
continuous part) and a lattice inside the orthogonal complement of that
subspace (its discrete part).  ``ClosedSubgroup`` stores exactly that:
an orthonormal basis of the continuous part and a reduced basis of the
discrete part, rows as vectors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _lattice
from .errors import (DimensionMismatch, EnumerationBudgetExceeded,
                     InvalidType, NonClosedInput, NonFiniteInput,
                     SingularMatrix)


class GroupType(NamedTuple):
    """The pair (continuous dimension, discrete rank)."""

    p: int
    q: int


@dataclass(frozen=True, eq=False)
class ClosedSubgroup:
    """Canonical form of a closed subgroup of R^n.

    ``continuous_basis`` has orthonormal rows; ``discrete_basis`` rows
    are independent, orthogonal to the continuous part and reduced.
    Instances are immutable and shareable across threads; what is
    derived from them is kept on them by ``_kept``.
    """

    ambient_dim: int
    continuous_basis: np.ndarray
    discrete_basis: np.ndarray

    def __post_init__(self):
        def shaped(arr):
            a = np.asarray(arr, dtype=float)
            if a.size == 0:
                return np.zeros((0, self.ambient_dim))
            return a.reshape(-1, self.ambient_dim)

        cb = shaped(self.continuous_basis)
        db = shaped(self.discrete_basis)
        cb.setflags(write=False)
        db.setflags(write=False)
        object.__setattr__(self, "continuous_basis", cb)
        object.__setattr__(self, "discrete_basis", db)

    @property
    def continuous_dim(self) -> int:
        return self.continuous_basis.shape[0]

    @property
    def discrete_rank(self) -> int:
        return self.discrete_basis.shape[0]

    @property
    def group_type(self) -> GroupType:
        return GroupType(self.continuous_dim, self.discrete_rank)

    @property
    def rank(self) -> int:
        return self.continuous_dim + self.discrete_rank

    def __repr__(self):
        p, q = self.group_type
        return f"ClosedSubgroup(n={self.ambient_dim}, type=({p},{q}))"


def _finite(rows: np.ndarray) -> bool:
    """Are all entries and squared row norms of ``rows`` finite?"""
    return bool(np.isfinite(np.einsum("ij,ij->i", rows, rows)).all())


def _as_rows(vectors, n: int, what: str) -> np.ndarray:
    if vectors is None:
        return np.zeros((0, n))
    arr = np.asarray(list(vectors), dtype=float)
    if arr.size == 0:
        return np.zeros((0, n))
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise DimensionMismatch(
            f"{what} must be vectors of length {n}, got shape {arr.shape}")
    return arr


def make_subgroup(n: int, continuous_gens=None,
                  discrete_gens=None) -> ClosedSubgroup:
    """Canonical closed subgroup generated by the given vectors.

    The continuous span is orthonormalized; discrete generators are
    projected onto its orthogonal complement and basis-reduced.  The
    projected discrete generators must be independent over the reals,
    otherwise the generated group would wind densely in some direction
    (or carry an undetectable redundancy) and NonClosedInput is raised.
    A NaN or infinite entry, or a generator whose squared norm
    overflows, raises NonFiniteInput.  Rank decisions read
    ``_lattice.RANK_TOL``.
    """
    if n < 0:
        raise DimensionMismatch("ambient dimension must be nonnegative")
    cont = _as_rows(continuous_gens, n, "continuous generators")
    disc = _as_rows(discrete_gens, n, "discrete generators")
    if not (_finite(cont) and _finite(disc)):
        raise NonFiniteInput(
            "generators must have finite entries and squared norms")
    cbasis = _lattice.orthonormalize(cont)
    if disc.shape[0]:
        proj = disc - (disc @ cbasis.T) @ cbasis
        sizes = np.linalg.norm(proj, axis=1)
        ref = np.maximum(1.0, np.linalg.norm(disc, axis=1))
        proj = proj[sizes > _lattice.RANK_TOL * ref]
    else:
        proj = disc
    if proj.shape[0]:
        if proj.shape[0] > n - cbasis.shape[0]:
            raise NonClosedInput(
                "more discrete generators than the complement can carry")
        sv = np.linalg.svd(proj, compute_uv=False)
        if sv[-1] <= _lattice.RANK_TOL * max(1.0, sv[0]):
            raise NonClosedInput(
                "projected discrete generators are dependent over the reals")
        dbasis = _lattice.reduce_basis(proj)
    else:
        dbasis = np.zeros((0, n))
    return ClosedSubgroup(n, cbasis, dbasis)


def standard_subgroup(n: int, p: int, q: int) -> ClosedSubgroup:
    """The axis-aligned representative: span(e_1..e_p) + Z e_{p+1..p+q}."""
    if p < 0 or q < 0 or p + q > n:
        raise InvalidType(f"type ({p},{q}) does not fit in dimension {n}")
    eye = np.eye(n)
    return ClosedSubgroup(n, eye[:p], eye[p:p + q])


def type_of(group: ClosedSubgroup) -> GroupType:
    return group.group_type


def points_in_ball(group: ClosedSubgroup, radius: float,
                   cap: int = 1_000_000) -> np.ndarray:
    """Discrete-part lattice points of norm <= radius, exactly.

    The continuous part is reported separately by the basis; the points
    of the full subgroup inside the ball are v + d with v in the
    continuous part and d among the returned points.  Raises ValueError
    unless the radius is finite and nonnegative.
    """
    pts, _ = _lattice.enumerate_ball(group.discrete_basis, radius, cap)
    return pts


def points_in_ball_with_coefficients(group: ClosedSubgroup, radius: float,
                                     cap: int = 1_000_000):
    return _lattice.enumerate_ball(group.discrete_basis, radius, cap)


def _kept(group: ClosedSubgroup, key: str, build):
    """``build(group)``, computed on first use and kept in the subgroup's
    ``__dict__`` as ``functools.cached_property`` does, without its lock,
    which Python 3.10 and 3.11 share among all instances.  A build that
    raises keeps nothing; concurrent first calls may each build, and all
    get the first value kept."""
    state = group.__dict__
    if key not in state:
        state.setdefault(key, build(group))
    return state[key]


def _solver(group: ClosedSubgroup) -> _lattice.LatticeSolver:
    """Closest-vector solver of the discrete part, built once per
    subgroup object."""
    return _kept(group, "_solver",
                 lambda g: _lattice.LatticeSolver(g.discrete_basis))


def _distances(group: ClosedSubgroup, rows: np.ndarray) -> np.ndarray:
    """Distances from the rows of ``rows`` to the subgroup: the
    continuous part is projected out, and the solver takes the rest."""
    x = np.atleast_2d(rows)
    cb = group.continuous_basis
    if cb.shape[0]:
        x = x - (x @ cb.T) @ cb
    if not group.discrete_rank:
        return np.linalg.norm(x, axis=1)
    return _solver(group).closest(x)[0]


def nearest_point(group: ClosedSubgroup, x) -> np.ndarray:
    """The point of the subgroup closest to x (ties broken by the solver).

    ``x`` is one point or an (m, n) array of points, one per row; the
    result has the shape of ``x``, and all rows share one solver call.
    """
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    if x.ndim > 2 or rows.shape[1] != group.ambient_dim:
        raise DimensionMismatch("point has wrong length")
    cb = group.continuous_basis
    near = (rows @ cb.T) @ cb
    if group.discrete_rank:
        solver = _solver(group)
        _, coeffs = solver.closest(rows - near)
        near = near + coeffs @ solver.basis
    return near.reshape(x.shape)


def distance_to_subgroup(x, group: ClosedSubgroup) -> float:
    """Euclidean distance from x to the subgroup, exact closest-vector."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return float(np.linalg.norm(x - nearest_point(group, x)))


def apply_linear(matrix, group: ClosedSubgroup) -> ClosedSubgroup:
    """Canonical form of the image under an invertible linear map."""
    g = np.asarray(matrix, dtype=float)
    n = group.ambient_dim
    if g.shape != (n, n):
        raise DimensionMismatch(f"expected a {n}x{n} matrix, got {g.shape}")
    sv = np.linalg.svd(g, compute_uv=False)
    if sv[-1] <= _lattice.RANK_TOL * max(1.0, sv[0]):
        raise SingularMatrix("matrix is singular within tolerance")
    return make_subgroup(n,
                         group.continuous_basis @ g.T,
                         group.discrete_basis @ g.T)


def scale(group: ClosedSubgroup, t: float) -> ClosedSubgroup:
    """Homothety t * group, with the degenerate conventions:

    t = inf returns the continuous part, t = 0 returns the full span.
    A complex or NaN factor, of any numeric type, raises ValueError, and
    a lattice vector whose squared norm overflows, or falls below the
    smallest normal float, raises NonFiniteInput.
    """
    if isinstance(t, (complex, np.complexfloating)) or math.isnan(t):
        raise ValueError("scale factor must be a real number in [0, inf]")
    if t < 0:
        raise ValueError("scale factor must be nonnegative")
    n = group.ambient_dim
    if math.isinf(t):
        return ClosedSubgroup(n, group.continuous_basis, np.zeros((0, n)))
    if t == 0:
        span = _lattice.orthonormalize(
            np.vstack([group.continuous_basis, group.discrete_basis]))
        return ClosedSubgroup(n, span, np.zeros((0, n)))
    with np.errstate(over="ignore"):
        basis = t * group.discrete_basis
    sq = np.einsum("ij,ij->i", basis, basis)
    if not np.all((sq >= np.finfo(float).tiny) & (sq < math.inf)):
        raise NonFiniteInput(
            f"scaling by {t} overflows or underflows the squared norm of "
            "a lattice vector")
    return ClosedSubgroup(n, group.continuous_basis, basis)


def random_subgroup(n: int, group_type, seed: int) -> ClosedSubgroup:
    """Deterministic random canonical subgroup of the requested type;
    the reduced basis vectors have norms in [0.6, 2.4]."""
    p, q = int(group_type[0]), int(group_type[1])
    if p < 0 or q < 0 or p + q > n:
        raise InvalidType(f"type ({p},{q}) does not fit in dimension {n}")
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(n, n))
    qmat, rmat = np.linalg.qr(mat)
    qmat = qmat * np.sign(np.diag(rmat))
    frame = qmat.T  # rows orthonormal
    cont = frame[:p]
    if q == 0:
        return ClosedSubgroup(n, cont, np.zeros((0, n)))
    comp = frame[p:]
    lo, hi = 0.6, 2.4
    for _ in range(64):
        coeff = rng.normal(size=(q, n - p))
        coeff = _lattice.lll_reduce(coeff) if q > 1 else coeff
        sizes = np.linalg.norm(coeff, axis=1)
        rmin, rmax = sizes.min(), sizes.max()
        if rmin <= 0 or lo / rmin > hi / rmax:
            continue
        s = math.exp(rng.uniform(math.log(lo / rmin), math.log(hi / rmax)))
        basis = _lattice.reduce_basis(s * coeff @ comp)
        return ClosedSubgroup(n, cont, basis)
    raise EnumerationBudgetExceeded(
        "could not draw a basis with norms in [0.6, 2.4] in 64 tries")
