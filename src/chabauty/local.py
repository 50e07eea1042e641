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
from .subgroup import (ClosedSubgroup, DEFAULT_TOL, GroupType, Tolerance,
                       make_subgroup, nearest_point,
                       points_in_ball_with_coefficients, scale,
                       standard_subgroup, type_of)

# ---------------------------------------------------------------------------
# flags and the aligning rotation


@dataclass(frozen=True)
class LinearDecomposition:
    """Three mutually orthogonal blocks spanning R^n, rows orthonormal."""

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
    if a.shape[0] == 0:
        return 0.0
    resid = a - (a @ b.T) @ b
    if resid.size == 0:
        return 0.0
    return float(np.linalg.svd(resid, compute_uv=False)[0])


def flag_gap(flag: LinearDecomposition,
             other: LinearDecomposition) -> float:
    return max(_block_gap(flag.fine, other.fine),
               _block_gap(flag.medium, other.medium),
               _block_gap(flag.coarse, other.coarse))


def trivialisation(flag: LinearDecomposition,
                   base_flag: LinearDecomposition,
                   max_gap: float = 0.7) -> Trivialisation:
    """The orthogonal polar alignment sending each block of ``flag``
    onto the matching block of ``base_flag``.

    The sum of projector products base_i @ flag_i maps each flag block
    into the matching base block exactly, and taking its orthogonal
    polar factor yields a rotation with the same block mapping that is
    the identity when the flags coincide and varies smoothly.
    """
    if flag_gap(flag, base_flag) > max_gap:
        raise FlagsTooFar("blockwise principal angles exceed the bound")
    n = flag.ambient_dim
    m = np.zeros((n, n))
    for a, b in ((flag.fine, base_flag.fine),
                 (flag.medium, base_flag.medium),
                 (flag.coarse, base_flag.coarse)):
        if a.shape[0]:
            m += (b.T @ b) @ (a.T @ a)
    u, s, vt = np.linalg.svd(m)
    if s[-1] < 0.05:
        raise FlagsTooFar("polar factor is degenerate")
    return Trivialisation(u @ vt)


def linear_decomposition(group: ClosedSubgroup, delta: float,
                         rank_tol: float = 1e-9) -> LinearDecomposition:
    """Blocks spanned by the subgroup at scale delta: fine block from
    the elements below delta together with the continuous part, medium
    block from the elements below 1/delta projected off the fine block,
    coarse block the rest.

    The spans are built from the vectors realizing the generation
    radii, which span the same flag as the full point sets without any
    medium-radius enumeration."""
    dt = delta_type(group, delta, rank_tol=rank_tol)
    if dt is None:
        raise NotDecomposable(
            f"some norm sits on the scale threshold {delta} or {1 / delta}")
    phat, qhat = dt
    n = group.ambient_dim
    vals, realizers = generation_data(group, rank_tol)
    p0 = group.continuous_dim
    fin = vals[p0:p0 + realizers.shape[0]]
    rows = [group.continuous_basis]
    if np.any(fin < delta):
        rows.append(realizers[fin < delta])
    fine = _lattice.orthonormalize(np.vstack(rows), rank_tol)
    if fine.shape[0] != phat:
        raise InconsistentData("fine block dimension mismatch")
    medium = np.zeros((0, n))
    below = realizers[fin < 1.0 / delta] if realizers.size else realizers
    if below.shape[0]:
        proj = below - (below @ fine.T) @ fine
        medium = _lattice.orthonormalize(proj, rank_tol)
    if medium.shape[0] != qhat:
        raise InconsistentData("medium block dimension mismatch")
    coarse = _lattice.orthonormal_complement(
        np.vstack([fine, medium]), n, rank_tol)
    return LinearDecomposition(fine, medium, coarse)


# ---------------------------------------------------------------------------
# local decomposition at a base point


@dataclass(frozen=True)
class LocalDecomposition:
    """Data reconstructing a subgroup near an axis-aligned base point.

    ``fine_part`` lives in the fine block (ambient dimension p),
    ``medium_basis`` rows are the distinguished basis close to the
    identity, ``coarse_basis`` rows generate the coarse lattice, and
    the offset arrays are the shortest coset representatives gluing
    medium and coarse generators back into the full group.
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


def _shortest_vector(basis: np.ndarray) -> float:
    if basis.shape[0] == 0:
        return np.inf
    rad = float(np.linalg.norm(basis, axis=1).min()) * (1 + 1e-12)
    pts, _ = _lattice.enumerate_ball(basis, rad)
    sizes = np.linalg.norm(pts, axis=1)
    sizes = sizes[sizes > 1e-12]
    return float(sizes.min()) if sizes.size else np.inf


def _integer_coords(points: np.ndarray, basis: np.ndarray,
                    tol: float = 1e-6) -> np.ndarray:
    """Integer coordinates of lattice points in a full-rank row basis."""
    raw = points @ np.linalg.inv(basis)
    snapped = np.round(raw)
    if np.max(np.abs(raw - snapped), initial=0.0) > tol:
        raise InconsistentData("points are not integer combinations")
    return snapped.astype(np.int64)


def _check_aligned(base: ClosedSubgroup, tol: float) -> GroupType:
    p, q = type_of(base)
    ref = standard_subgroup(base.ambient_dim, p, q)
    if (np.max(np.abs(base.continuous_basis - ref.continuous_basis),
               initial=0.0) > tol
            or np.max(np.abs(base.discrete_basis - ref.discrete_basis),
                      initial=0.0) > tol):
        raise BasePointNotAligned(
            "base point must be the axis-aligned representative; "
            "conjugate the data by a linear map first")
    return GroupType(p, q)


def local_decomposition(group: ClosedSubgroup, base: ClosedSubgroup,
                        delta: float, tol: Tolerance = DEFAULT_TOL):
    """Full decomposition of ``group`` in the scale-delta neighborhood
    of the aligned base point; returns (flag, data).

    Raises NotInNeighborhood naming the first failing membership
    condition: scale decomposability, matching scale type, flag
    closeness, distinguished basis, or the fine/coarse norm budget.
    """
    if group.ambient_dim != base.ambient_dim:
        raise DimensionMismatch("group and base live in different spaces")
    if not 0 < delta < 1:
        raise ValueError("the scale must lie in (0, 1)")
    p, q = _check_aligned(base, tol.rank_tol * 10)
    n = group.ambient_dim
    dt = delta_type(group, delta, rank_tol=tol.rank_tol)
    if dt is None:
        raise NotInNeighborhood(f"not decomposable at scale {delta}")
    if dt != (p, q):
        raise NotInNeighborhood(
            f"scale type {tuple(dt)} does not match the base type {(p, q)}")
    lin = linear_decomposition(group, delta, tol.rank_tol)
    base_flag = standard_flag(n, p, q)
    if flag_gap(lin, base_flag) >= delta:
        raise NotInNeighborhood("flag is not delta-close to the base flag")
    tau = trivialisation(lin, base_flag).matrix
    disc_rot = group.discrete_basis @ tau.T
    cont_rot = group.continuous_basis @ tau.T
    if cont_rot.shape[0] and np.max(np.abs(cont_rot[:, p:]),
                                    initial=0.0) > 1e-8:
        raise InconsistentData("rotation failed to align the fine block")
    q0 = group.discrete_rank
    p0 = group.continuous_dim

    # fine block subgroup
    vals = norms(group, tol.rank_tol)
    finite = vals[np.isfinite(vals) & (vals > 0)]
    small = finite[finite < delta]
    if small.size:
        pts, _ = points_in_ball_with_coefficients(
            group, float(small.max()) * (1 + 1e-12))
        pts = pts[np.linalg.norm(pts, axis=1) > tol.rank_tol]
        small_rows, _, _ = _lattice.basis_from_generators(
            pts @ tau.T, zero_tol=1e-9)
    else:
        small_rows = np.zeros((0, n))
    if small_rows.shape[0] and np.max(np.abs(small_rows[:, p:]),
                                      initial=0.0) > 1e-8:
        raise InconsistentData("fine lattice escapes the fine block")
    fine_part = make_subgroup(p, cont_rot[:, :p], small_rows[:, :p], tol)
    if fine_part.rank != p:
        raise NotInNeighborhood("fine block is not of maximal rank")

    # coarse block lattice and the kernel generating the medium data
    d3 = n - p - q
    if d3 > 0 and q0 > 0:
        a3 = disc_rot[:, p + q:]
        coarse_rows, coarse_coeff, kernel = _lattice.basis_from_generators(
            a3, zero_tol=1e-6)
    else:
        coarse_rows = np.zeros((0, d3))
        coarse_coeff = np.zeros((0, q0), dtype=np.int64)
        kernel = np.eye(q0, dtype=np.int64)
    m = coarse_rows.shape[0]
    if m != group.rank - (p + q):
        raise NotInNeighborhood("coarse lattice rank mismatch")
    if kernel.shape[0] != (p - p0) + q:
        raise NotInNeighborhood("medium and fine ranks do not split")

    np_fine = float(norms(fine_part, tol.rank_tol)[p - 1]) if p else 0.0
    n1_coarse = _shortest_vector(coarse_rows)
    budget = np_fine + (0.0 if np.isinf(n1_coarse) else 1.0 / n1_coarse)
    if budget >= delta:
        raise NotInNeighborhood(
            f"fine/coarse norm budget {budget:.6g} is not below {delta}")

    # medium lattice with its distinguished basis
    s_rows = kernel @ disc_rot if kernel.shape[0] else np.zeros((0, n))
    if s_rows.shape[0] and np.max(np.abs(s_rows[:, p + q:]),
                                  initial=0.0) > 1e-6:
        raise InconsistentData("kernel rows leak into the coarse block")
    if q:
        m2 = s_rows[:, p:p + q]
        med_rows, med_coeff, _ = _lattice.basis_from_generators(
            m2, zero_tol=1e-9)
        if med_rows.shape[0] != q:
            raise NotInNeighborhood("medium lattice rank mismatch")
        s_sel = med_coeff @ s_rows
        solver = _lattice.LatticeSolver(med_rows)
        _, cvp_coeff = solver.closest(np.eye(q))
        v_rows = cvp_coeff @ solver.basis
        if np.max(np.linalg.norm(v_rows - np.eye(q), axis=1)) >= delta:
            raise NotInNeighborhood(
                "no distinguished basis within delta of the identity")
        pre_coords = _integer_coords(v_rows, med_rows)
        gamma_med = pre_coords @ s_sel  # full preimages of the v rows
        resid = m2 @ np.linalg.inv(v_rows)
        if np.max(np.abs(resid - np.round(resid)), initial=0.0) > 1e-6:
            raise NotInNeighborhood(
                "distinguished vectors do not generate the medium lattice")
        medium_basis = v_rows
        raw_off = gamma_med[:, :p]
        medium_offset = raw_off - nearest_point(fine_part, raw_off)
    else:
        medium_basis = np.zeros((0, 0))
        gamma_med = np.zeros((0, n))
        medium_offset = np.zeros((0, p))

    # coarse offsets
    if m:
        pre = coarse_coeff @ disc_rot
        if np.max(np.abs(pre[:, p + q:] - coarse_rows), initial=0.0) > 1e-6:
            raise InconsistentData("coarse preimages lost their block")
        if q:
            med_raw = pre[:, p:p + q]
            _, cc = solver.closest(med_raw)
            reduction = _integer_coords(cc.astype(float) @ solver.basis,
                                        med_rows) @ gamma_med
            pre = pre - reduction
        off_med = pre[:, p:p + q]
        off_fine = pre[:, :p] - nearest_point(fine_part, pre[:, :p])
    else:
        off_med = np.zeros((0, q))
        off_fine = np.zeros((0, p))

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
                          delta: float,
                          tol: Tolerance = DEFAULT_TOL) -> Membership:
    """Membership in the scale-delta neighborhood of the aligned base
    point; reports the first failing condition on False."""
    try:
        local_decomposition(group, base, delta, tol)
    except (NotInNeighborhood, NotDecomposable, InconsistentData) as exc:
        return Membership(False, str(exc))
    return Membership(True)


def _embed(rows: np.ndarray, n: int, start: int) -> np.ndarray:
    rows = np.atleast_2d(rows)
    out = np.zeros((rows.shape[0], n))
    if rows.shape[1]:
        out[:, start:start + rows.shape[1]] = rows
    return out


def reconstruct(lin: LinearDecomposition, loc: LocalDecomposition,
                tol: Tolerance = DEFAULT_TOL) -> ClosedSubgroup:
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
    disc_blocks = [_embed(loc.fine_part.discrete_basis, n, 0)]
    if q:
        disc_blocks.append(_embed(loc.medium_basis, n, p)
                           + _embed(loc.medium_offset, n, 0))
    if m:
        disc_blocks.append(_embed(loc.coarse_basis, n, p + q)
                           + _embed(loc.coarse_offset_fine, n, 0)
                           + _embed(loc.coarse_offset_medium, n, p))
    disc = np.vstack(disc_blocks) if disc_blocks else np.zeros((0, n))
    return make_subgroup(n, cont @ tau, disc @ tau, tol)


# ---------------------------------------------------------------------------
# link geometry


def on_link(group: ClosedSubgroup, base: ClosedSubgroup, delta: float,
            tol: float = 1e-9) -> bool:
    """Is the subgroup on the link of the base point: base flag, base
    medium lattice, and fine/coarse norm budget exactly delta/2."""
    lin, loc = local_decomposition(group, base, delta)
    p, q = lin.block_type
    if flag_gap(lin, standard_flag(group.ambient_dim, p, q)) > tol:
        return False
    if q and np.max(np.abs(loc.medium_basis - np.eye(q))) > tol:
        return False
    if np.max(np.abs(loc.medium_offset), initial=0.0) > tol:
        return False
    np_fine = float(norms(loc.fine_part)[p - 1]) if p else 0.0
    n1c = _shortest_vector(loc.coarse_basis)
    budget = np_fine + (0.0 if np.isinf(n1c) else 1.0 / n1c)
    return abs(budget - delta / 2.0) <= tol * max(1.0, delta)


def cone_map(t: float, lin: LinearDecomposition,
             loc: LocalDecomposition) -> LocalDecomposition:
    """Slide a link point along its cone ray: the fine part scales by
    t, the coarse part by 1/t, the fine offsets by t, and the medium
    components stay put.  t = 1 is the identity, t = 0 the base point.
    """
    if not 0 <= t < 2:
        raise OutOfRange("the cone parameter must lie in [0, 2)")
    p, q = lin.block_type
    fine = scale(loc.fine_part, t)
    if t == 0:
        m = 0
        coarse = np.zeros((0, loc.coarse_basis.shape[1]))
        off_fine = np.zeros((0, p))
        off_med = np.zeros((0, q))
        med_off = np.zeros((q, p))
    else:
        coarse = loc.coarse_basis / t
        off_fine = t * loc.coarse_offset_fine
        off_med = loc.coarse_offset_medium.copy()
        med_off = t * loc.medium_offset
    return LocalDecomposition(fine, loc.medium_basis.copy(), coarse,
                              med_off, off_fine, off_med)


def bundle_projection(lin: LinearDecomposition, loc: LocalDecomposition,
                      delta: float, require_link: bool = True,
                      tol: float = 1e-9):
    """Project a link point to its normalized fine and coarse shapes
    plus the position along the join: (fine normalized to p-th norm 1,
    coarse normalized to first norm 1, lambda in [0, 1])."""
    p, q = lin.block_type
    n = lin.ambient_dim
    if (p, q) in ((0, 0), (n, 0)):
        raise InvalidStratum(
            "the links of the trivial group and of the full space are "
            "plain cones, not bundles")
    np_fine = float(norms(loc.fine_part)[p - 1]) if p else 0.0
    n1c = _shortest_vector(loc.coarse_basis)
    if require_link:
        budget = np_fine + (0.0 if np.isinf(n1c) else 1.0 / n1c)
        if abs(budget - delta / 2.0) > max(tol, 1e-9) * max(1.0, delta):
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

