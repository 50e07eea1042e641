"""Canonical representation of closed subgroups of R^n.

Every closed subgroup of R^n is a direct sum of a linear subspace (its
continuous part) and a lattice inside the orthogonal complement of that
subspace (its discrete part).  ``ClosedSubgroup`` stores exactly that:
an orthonormal basis of the continuous part and a reduced basis of the
discrete part, rows as vectors.
"""
from __future__ import annotations

import math
import weakref
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


@dataclass(frozen=True)
class Tolerance:
    """Numeric thresholds: ``rank_tol`` for rank decisions during
    canonicalization, ``recon_tol`` for reconstruction equality."""

    rank_tol: float = 1e-9
    recon_tol: float = 1e-6

    def __post_init__(self):
        if self.rank_tol <= 0 or self.recon_tol <= 0:
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True, eq=False)
class ClosedSubgroup:
    """Canonical form of a closed subgroup of R^n.

    ``continuous_basis`` has orthonormal rows; ``discrete_basis`` rows
    are independent, orthogonal to the continuous part and reduced.
    Instances are immutable and shareable across threads.
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


def make_subgroup(n: int, continuous_gens=None, discrete_gens=None,
                  tol: Tolerance = DEFAULT_TOL) -> ClosedSubgroup:
    """Canonical closed subgroup generated by the given vectors.

    The continuous span is orthonormalized; discrete generators are
    projected onto its orthogonal complement and basis-reduced.  The
    projected discrete generators must be independent over the reals,
    otherwise the generated group would wind densely in some direction
    (or carry an undetectable redundancy) and NonClosedInput is raised.
    A NaN or infinite entry, or a generator whose squared norm
    overflows, raises NonFiniteInput.
    """
    if n < 0:
        raise DimensionMismatch("ambient dimension must be nonnegative")
    cont = _as_rows(continuous_gens, n, "continuous generators")
    disc = _as_rows(discrete_gens, n, "discrete generators")
    if not all(np.isfinite(np.einsum("ij,ij->i", a, a)).all()
               for a in (cont, disc)):
        raise NonFiniteInput(
            "generators must have finite entries and squared norms")
    cbasis = _lattice.orthonormalize(cont, tol.rank_tol)
    if disc.shape[0]:
        proj = disc - (disc @ cbasis.T) @ cbasis
        sizes = np.linalg.norm(proj, axis=1)
        ref = np.maximum(1.0, np.linalg.norm(disc, axis=1))
        proj = proj[sizes > tol.rank_tol * ref]
    else:
        proj = disc
    if proj.shape[0]:
        if proj.shape[0] > n - cbasis.shape[0]:
            raise NonClosedInput(
                "more discrete generators than the complement can carry")
        sv = np.linalg.svd(proj, compute_uv=False)
        if sv[-1] <= tol.rank_tol * max(1.0, sv[0]):
            raise NonClosedInput(
                "projected discrete generators are dependent over the reals")
        dbasis = _lattice.reduce_basis(proj, tol.rank_tol)
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
    continuous part and d among the returned points.
    """
    pts, _ = _lattice.enumerate_ball(group.discrete_basis, radius, cap)
    return pts


def points_in_ball_with_coefficients(group: ClosedSubgroup, radius: float,
                                     cap: int = 1_000_000):
    return _lattice.enumerate_ball(group.discrete_basis, radius, cap)


_solvers: "weakref.WeakKeyDictionary[ClosedSubgroup, _lattice.LatticeSolver]" \
    = weakref.WeakKeyDictionary()


def _solver(group: ClosedSubgroup) -> _lattice.LatticeSolver:
    """Closest-vector solver of the discrete part, built once per
    subgroup object and kept for as long as the subgroup lives.
    Concurrent first calls may each build one; they are equal."""
    solver = _solvers.get(group)
    if solver is None:
        solver = _solvers[group] = _lattice.LatticeSolver(
            group.discrete_basis)
    return solver


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


def apply_linear(matrix, group: ClosedSubgroup,
                 tol: Tolerance = DEFAULT_TOL) -> ClosedSubgroup:
    """Canonical form of the image under an invertible linear map."""
    g = np.asarray(matrix, dtype=float)
    n = group.ambient_dim
    if g.shape != (n, n):
        raise DimensionMismatch(f"expected a {n}x{n} matrix, got {g.shape}")
    sv = np.linalg.svd(g, compute_uv=False)
    if sv[-1] <= tol.rank_tol * max(1.0, sv[0]):
        raise SingularMatrix("matrix is singular within tolerance")
    return make_subgroup(n,
                         group.continuous_basis @ g.T,
                         group.discrete_basis @ g.T, tol)


def scale(group: ClosedSubgroup, t: float,
          tol: Tolerance = DEFAULT_TOL) -> ClosedSubgroup:
    """Homothety t * group, with the degenerate conventions:

    t = inf returns the continuous part, t = 0 returns the full span.
    """
    if isinstance(t, complex) or (isinstance(t, float) and math.isnan(t)):
        raise ValueError("scale factor must be a real number in [0, inf]")
    if t < 0:
        raise ValueError("scale factor must be nonnegative")
    n = group.ambient_dim
    if math.isinf(t):
        return ClosedSubgroup(n, group.continuous_basis, np.zeros((0, n)))
    if t == 0:
        span = _lattice.orthonormalize(
            np.vstack([group.continuous_basis, group.discrete_basis]),
            tol.rank_tol)
        return ClosedSubgroup(n, span, np.zeros((0, n)))
    return ClosedSubgroup(n, group.continuous_basis,
                          t * group.discrete_basis)


@dataclass(frozen=True)
class RandomSubgroupParams:
    """Controls for random generation: reduced basis norms land inside
    [min_norm, max_norm]."""

    min_norm: float = 0.6
    max_norm: float = 2.4
    max_tries: int = 64


def random_subgroup(n: int, group_type, seed: int,
                    params: RandomSubgroupParams = RandomSubgroupParams()
                    ) -> ClosedSubgroup:
    """Deterministic random canonical subgroup of the requested type."""
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
    lo, hi = params.min_norm, params.max_norm
    for _ in range(params.max_tries):
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
        "could not draw a basis with norms in the configured range")
