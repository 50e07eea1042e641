"""Scale decompositions, reconstruction, link geometry and the strata
bookkeeping (incidence order, dimensions, bundle fibers).

A subgroup seen at scale delta splits into three blocks: a fine block
spanned by its tiny elements together with the continuous part, a
medium block carrying the unit-size lattice directions, and a coarse
block for the huge directions.  Near an axis-aligned base point the
subgroup is encoded by a flag, a rotation aligning that flag with the
axes, closed subgroups in the fine and coarse blocks, a distinguished
medium basis, and coset offsets gluing the blocks together.  The
encoding is exactly invertible, which is what ``reconstruct`` does.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lattice
from .errors import (BasePointNotAligned, DimensionMismatch, FlagsTooFar,
                     InconsistentData, InvalidPair, InvalidStratum,
                     NotDecomposable, NotInNeighborhood, OutOfRange)
from .invariants import delta_type, generation_data, norms
from .subgroup import (ClosedSubgroup, GroupType, make_subgroup,
                       nearest_point, scale, standard_subgroup, type_of)

_LINK_TOL = 1e-9  # how far a link point may sit from the link

# ---------------------------------------------------------------------------
# flags and the aligning rotation


@dataclass(frozen=True)
class LinearDecomposition:
    """Three mutually orthogonal blocks spanning R^n, rows orthonormal;
    a hand-built instance must keep these invariants."""

    fine: np.ndarray
    medium: np.ndarray
    coarse: np.ndarray

    @property
    def ambient_dim(self) -> int:
        return self.fine.shape[1]

    @property
    def block_type(self) -> GroupType:
        return GroupType(self.fine.shape[0], self.medium.shape[0])


@dataclass(frozen=True)
class Trivialisation:
    """Orthogonal matrix carrying a flag onto the reference flag."""

    matrix: np.ndarray


def standard_flag(n: int, p: int, q: int) -> LinearDecomposition:
    eye = np.eye(n)
    return LinearDecomposition(eye[:p], eye[p:p + q], eye[p + q:])


def _block_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Operator-norm distance of the two span projectors, which equals
    the sine of the largest principal angle."""
    if a.shape != b.shape:
        raise DimensionMismatch("flag blocks have different dimensions")
    resid = a - (a @ b.T) @ b
    return float(np.linalg.svd(resid, compute_uv=False).max(initial=0.0))


def flag_gap(flag: LinearDecomposition,
             other: LinearDecomposition) -> float:
    return max(_block_gap(flag.fine, other.fine),
               _block_gap(flag.medium, other.medium),
               _block_gap(flag.coarse, other.coarse))


def trivialisation(flag: LinearDecomposition,
                   base_flag: LinearDecomposition) -> Trivialisation:
    """The orthogonal polar alignment sending each block of ``flag``
    onto the matching block of ``base_flag``.

    The sum of projector products base_i @ flag_i maps each flag block
    into the matching base block exactly, and taking its orthogonal
    polar factor yields a rotation with the same block mapping that is
    the identity when the flags coincide and varies smoothly.  Raises
    FlagsTooFar when some blockwise principal angle has sine above 0.7,
    or when the polar factor is degenerate, which only a hand-built flag
    can be: with orthogonal blocks the sum keeps at least
    sqrt(1 - 0.7^2), about 0.71, of every vector's length.
    """
    if flag_gap(flag, base_flag) > 0.7:
        raise FlagsTooFar("blockwise principal angles exceed the bound")
    n = flag.ambient_dim
    m = np.zeros((n, n))
    for a, b in ((flag.fine, base_flag.fine),
                 (flag.medium, base_flag.medium),
                 (flag.coarse, base_flag.coarse)):
        m += (b.T @ b) @ (a.T @ a)
    u, s, vt = np.linalg.svd(m)
    if s.min(initial=np.inf) < 0.05:
        raise FlagsTooFar("polar factor is degenerate")
    return Trivialisation(u @ vt)


def linear_decomposition(group: ClosedSubgroup,
                         delta: float) -> LinearDecomposition:
    """Blocks spanned by the subgroup at scale delta: fine block from
    the elements below delta together with the continuous part, medium
    block from the elements below 1/delta projected off the fine block,
    coarse block the rest.

    The spans are built from the vectors realizing the generation
    radii, which span the same flag as the full point sets without any
    medium-radius enumeration."""
    dt = delta_type(group, delta)
    if dt is None:
        raise NotDecomposable(
            f"some norm sits on the scale threshold {delta} or {1 / delta}")
    phat, qhat = dt
    vals, realizers = generation_data(group)
    p0 = group.continuous_dim
    fin = vals[p0:p0 + realizers.shape[0]]
    fine = _lattice.orthonormalize(
        np.vstack([group.continuous_basis, realizers[fin < delta]]))
    if fine.shape[0] != phat:
        raise InconsistentData("fine block dimension mismatch")
    # the fine realizers would project to rounding noise
    medium = realizers[(fin >= delta) & (fin < 1.0 / delta)]
    medium = _lattice.orthonormalize(medium - (medium @ fine.T) @ fine)
    if medium.shape[0] != qhat:
        raise InconsistentData("medium block dimension mismatch")
    coarse = _lattice.orthonormal_complement(np.vstack([fine, medium]))
    return LinearDecomposition(fine, medium, coarse)


# ---------------------------------------------------------------------------
# local decomposition at a base point


@dataclass(frozen=True)
class LocalDecomposition:
    """Data reconstructing a subgroup near an axis-aligned base point.

    ``fine_part`` is the whole subgroup inside the fine block (ambient
    dimension p); its lattice comes from the integer relations of the
    medium step, since the elements below delta may generate only a
    sublattice of finite index.  ``medium_basis`` rows are the
    distinguished basis close to the identity and ``coarse_basis`` rows
    generate the coarse lattice.  The offset arrays glue medium and
    coarse generators back into the full group, each a shortest coset
    representative: modulo the fine part for the fine offsets, modulo
    the medium lattice for ``coarse_offset_medium``.
    """

    fine_part: ClosedSubgroup
    medium_basis: np.ndarray
    coarse_basis: np.ndarray
    medium_offset: np.ndarray
    coarse_offset_fine: np.ndarray
    coarse_offset_medium: np.ndarray

    @property
    def coarse_count(self) -> int:
        return self.coarse_basis.shape[0]


def _norm_budget(fine_part: ClosedSubgroup, coarse_rows: np.ndarray):
    """The last norm np of the fine part (0 in R^0), the first norm n1
    of the coarse lattice (inf when there is none) and the budget
    np + 1 / n1.  n1 is the shortest of the coarse lattice's class
    vectors."""
    np_fine = float(norms(fine_part)[-1:].max(initial=0.0))
    v = _lattice.LatticeSolver(coarse_rows).class_vectors() @ coarse_rows
    n1 = float(np.sqrt(np.einsum("ij,ij->i", v, v).min(initial=np.inf)))
    return np_fine, n1, np_fine + 1.0 / n1


def _check_aligned(base: ClosedSubgroup) -> GroupType:
    p, q = type_of(base)
    ref = standard_subgroup(base.ambient_dim, p, q)
    tol = 10 * _lattice.RANK_TOL
    if (np.max(np.abs(base.continuous_basis - ref.continuous_basis),
               initial=0.0) > tol
            or np.max(np.abs(base.discrete_basis - ref.discrete_basis),
                      initial=0.0) > tol):
        raise BasePointNotAligned(
            "base point must be the axis-aligned representative; "
            "conjugate the data by a linear map first")
    return GroupType(p, q)


def local_decomposition(group: ClosedSubgroup, base: ClosedSubgroup,
                        delta: float):
    """Full decomposition of ``group`` in the scale-delta neighborhood
    of the aligned base point; returns (flag, data).

    Raises NotInNeighborhood naming the first failing membership
    condition: scale decomposability, matching scale type, flag
    closeness, the coarse rank, the fine/coarse norm budget, or the
    distinguished basis.  InconsistentData refuses a hand-built group
    whose discrete rows lean into its continuous part or are skewed.
    """
    if group.ambient_dim != base.ambient_dim:
        raise DimensionMismatch("group and base live in different spaces")
    if not 0 < delta < 1:
        raise ValueError("the scale must lie in (0, 1)")
    p, q = _check_aligned(base)
    n = group.ambient_dim
    dt = delta_type(group, delta)
    if dt is None:
        raise NotInNeighborhood(f"not decomposable at scale {delta}")
    if dt != (p, q):
        raise NotInNeighborhood(
            f"scale type {tuple(dt)} does not match the base type {(p, q)}")
    lin = linear_decomposition(group, delta)
    base_flag = standard_flag(n, p, q)
    if flag_gap(lin, base_flag) >= delta:
        raise NotInNeighborhood("flag is not delta-close to the base flag")
    try:
        tau = trivialisation(lin, base_flag).matrix
    except FlagsTooFar as exc:
        raise NotInNeighborhood(str(exc)) from None
    disc_rot = group.discrete_basis @ tau.T
    cont_rot = group.continuous_basis @ tau.T

    # coarse block lattice and the kernel, the lattice in the other blocks
    coarse_rows, coarse_coeff, kernel = _lattice.basis_from_generators(
        disc_rot[:, p + q:], zero_tol=1e-6)
    if coarse_rows.shape[0] != group.rank - (p + q):
        raise NotInNeighborhood("coarse lattice rank mismatch")
    s_rows = kernel @ disc_rot

    # medium lattice; its relations generate the fine lattice
    med_rows, med_coeff, relations = _lattice.basis_from_generators(
        s_rows[:, p:p + q], zero_tol=1e-9)
    fine_rows = relations @ s_rows
    if np.max(np.abs(fine_rows[:, p:]), initial=0.0) > 1e-8:
        raise InconsistentData("fine lattice escapes the fine block")
    fine_part = make_subgroup(p, cont_rot[:, :p], fine_rows[:, :p])

    budget = _norm_budget(fine_part, coarse_rows)[2]
    if budget >= delta:
        raise NotInNeighborhood(
            f"fine/coarse norm budget {budget:.6g} is not below {delta}")

    # distinguished medium basis; lift carries med_rows back to s_rows
    solver = _lattice.LatticeSolver(med_rows)
    lift = med_coeff @ s_rows
    _, cvp_coeff = solver.closest(np.eye(q))
    medium_basis = cvp_coeff @ solver.basis
    if np.max(np.linalg.norm(medium_basis - np.eye(q), axis=1),
              initial=0.0) >= delta:
        raise NotInNeighborhood(
            "no distinguished basis within delta of the identity")
    if round(abs(np.linalg.det(cvp_coeff))) != 1:
        raise NotInNeighborhood(
            "distinguished vectors do not generate the medium lattice")
    raw_off = (cvp_coeff @ lift)[:, :p]
    medium_offset = raw_off - nearest_point(fine_part, raw_off)

    # coarse offsets: shortest coset representatives in both blocks
    pre = coarse_coeff @ disc_rot
    pre = pre - solver.closest(pre[:, p:p + q])[1] @ lift
    off_med = pre[:, p:p + q]
    off_fine = pre[:, :p] - nearest_point(fine_part, pre[:, :p])

    loc = LocalDecomposition(fine_part, medium_basis, coarse_rows,
                             medium_offset, off_fine, off_med)
    return lin, loc


@dataclass(frozen=True)
class Membership:
    """Boolean with the failing condition attached."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def in_scale_neighborhood(group: ClosedSubgroup, base: ClosedSubgroup,
                          delta: float) -> Membership:
    """Membership in the scale-delta neighborhood of the aligned base
    point; reports the first failing condition on False."""
    try:
        local_decomposition(group, base, delta)
    except (NotInNeighborhood, InconsistentData) as exc:
        return Membership(False, str(exc))
    return Membership(True)


def _embed(rows: np.ndarray, n: int, start: int) -> np.ndarray:
    out = np.zeros((rows.shape[0], n))
    out[:, start:start + rows.shape[1]] = rows
    return out


def reconstruct(lin: LinearDecomposition,
                loc: LocalDecomposition) -> ClosedSubgroup:
    """The unique subgroup whose decomposition data is (lin, loc)."""
    p, q = lin.block_type
    n = lin.ambient_dim
    d3 = n - p - q
    if loc.fine_part.ambient_dim != p:
        raise InconsistentData("fine part has the wrong ambient dimension")
    if loc.medium_basis.shape != (q, q):
        raise InconsistentData("medium basis has the wrong shape")
    if loc.coarse_basis.shape[1:] != (d3,):
        raise InconsistentData("coarse basis has the wrong width")
    m = loc.coarse_count
    if loc.medium_offset.shape != (q, p) \
            or loc.coarse_offset_fine.shape != (m, p) \
            or loc.coarse_offset_medium.shape != (m, q):
        raise InconsistentData("offset arrays have inconsistent shapes")
    tau = trivialisation(lin, standard_flag(n, p, q)).matrix
    cont = _embed(loc.fine_part.continuous_basis, n, 0)
    disc = np.vstack([
        _embed(loc.fine_part.discrete_basis, n, 0),
        _embed(loc.medium_basis, n, p) + _embed(loc.medium_offset, n, 0),
        _embed(loc.coarse_basis, n, p + q)
        + _embed(loc.coarse_offset_fine, n, 0)
        + _embed(loc.coarse_offset_medium, n, p)])
    return make_subgroup(n, cont @ tau, disc @ tau)


# ---------------------------------------------------------------------------
# link geometry


def on_link(group: ClosedSubgroup, base: ClosedSubgroup,
            delta: float) -> bool:
    """Is the subgroup on the link of the base point: base flag, base
    medium lattice, and fine/coarse norm budget exactly delta/2, each
    within ``_LINK_TOL``."""
    lin, loc = local_decomposition(group, base, delta)
    p, q = lin.block_type
    if flag_gap(lin, standard_flag(group.ambient_dim, p, q)) > _LINK_TOL:
        return False
    if np.max(np.abs(loc.medium_basis - np.eye(q)), initial=0.0) > _LINK_TOL:
        return False
    if np.max(np.abs(loc.medium_offset), initial=0.0) > _LINK_TOL:
        return False
    budget = _norm_budget(loc.fine_part, loc.coarse_basis)[2]
    return abs(budget - delta / 2.0) <= _LINK_TOL


def cone_map(t: float, lin: LinearDecomposition,
             loc: LocalDecomposition) -> LocalDecomposition:
    """Slide a link point along its cone ray: the fine part scales by
    t, the coarse part by 1/t, the fine offsets by t, and the medium
    components stay put.  t = 1 is the identity, t = 0 the base point.
    """
    if not 0 <= t < 2:
        raise OutOfRange("the cone parameter must lie in [0, 2)")
    m = loc.coarse_count if t else 0  # the apex keeps no coarse row
    return LocalDecomposition(scale(loc.fine_part, t),
                              loc.medium_basis.copy(),
                              loc.coarse_basis[:m] / t,
                              t * loc.medium_offset,
                              t * loc.coarse_offset_fine[:m],
                              loc.coarse_offset_medium[:m].copy())


def bundle_projection(lin: LinearDecomposition, loc: LocalDecomposition,
                      delta: float, require_link: bool = True):
    """Project a link point to its normalized fine and coarse shapes
    plus the position along the join: (fine normalized to p-th norm 1,
    coarse normalized to first norm 1, lambda in [0, 1]).  Raises
    ValueError unless the scale delta lies in (0, 1)."""
    if not 0 < delta < 1:
        raise ValueError("the scale must lie in (0, 1)")
    p, q = lin.block_type
    n = lin.ambient_dim
    if (p, q) in ((0, 0), (n, 0)):
        raise InvalidStratum(
            "the links of the trivial group and of the full space are "
            "plain cones, not bundles")
    np_fine, n1c, budget = _norm_budget(loc.fine_part, loc.coarse_basis)
    if require_link:
        if abs(budget - delta / 2.0) > _LINK_TOL:
            raise NotInNeighborhood("the point is not on the link")
    fine_norm = scale(loc.fine_part, np.inf) if np_fine == 0 \
        else scale(loc.fine_part, 1.0 / np_fine)
    coarse_group = make_subgroup(loc.coarse_basis.shape[1], None,
                                 loc.coarse_basis)
    coarse_norm = scale(coarse_group, np.inf) if np.isinf(n1c) \
        else scale(coarse_group, 1.0 / n1c)
    lam = (2.0 / delta) * np_fine
    return fine_norm, coarse_norm, float(np.clip(lam, 0.0, 1.0))


# ---------------------------------------------------------------------------
# incidence order, dimensions, fibers


def type_leq(lower, upper) -> bool:
    """Is ``upper`` at least as generic as ``lower``: sequences of
    upper-type subgroups can converge onto the lower stratum."""
    p, q = int(lower[0]), int(lower[1])
    r, s = int(upper[0]), int(upper[1])
    return r <= p and r + s >= p + q


def stratum_dimension(n: int, group_type) -> int:
    p, q = int(group_type[0]), int(group_type[1])
    if p < 0 or q < 0 or p + q > n:
        raise InvalidPair(f"type ({p},{q}) does not fit in dimension {n}")
    return (p + q) * (n - p)


def all_types(n: int):
    return [GroupType(p, q) for p in range(n + 1)
            for q in range(n - p + 1)]


def fiber_dimension(n: int, base_type, stratum_type) -> int:
    """Dimension of the torus fiber of the link bundle of ``base_type``
    over its ``stratum_type`` stratum."""
    p, q = int(base_type[0]), int(base_type[1])
    r, s = int(stratum_type[0]), int(stratum_type[1])
    for (a, b) in ((p, q), (r, s)):
        if a < 0 or b < 0 or a + b > n:
            raise InvalidPair(f"type ({a},{b}) does not fit in dimension {n}")
    if (p, q) == (r, s) or not type_leq((p, q), (r, s)):
        raise InvalidPair(
            f"({r},{s}) must be strictly above ({p},{q}) in the order")
    return q * (p - r) + (r + s - p - q) * (p + q - r)


def hasse_diagram(n: int):
    """Covering edges of the incidence order as (upper, lower) pairs."""
    types = all_types(n)
    edges = []
    for hi in types:
        for lo in types:
            if hi == lo or not type_leq(lo, hi):
                continue
            if any(mid != hi and mid != lo
                   and type_leq(mid, hi) and type_leq(lo, mid)
                   for mid in types):
                continue
            edges.append((hi, lo))
    edges.sort()
    return edges

