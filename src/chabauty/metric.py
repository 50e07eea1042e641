"""A computable metric inducing the topology of uniform closeness on
compact sets, plus the raw two-sided neighborhood test and limit
classification for degenerating families.

Two subgroups are close when, inside every large ball, each point of
one lies near a point of the other.  ``hausdorff_gap`` approximates the
least such slack for one ball radius; ``chabauty_distance`` aggregates
the gaps over dyadic radii with summable weights.

The gap is a supremum of a distance function over the trace of a
subgroup in a ball, and each direction picks its route once.  From the
whole space it is exact: min(R, mu), mu the covering radius of the
target's lattice part, or R when the target is not of full rank.  From
a lattice towards a full-rank target, it is the exact maximum over the
ball's points while the search holds at most 65,536 nodes on a level:
each direction searches one point of each pair +-x, as dist(-x, H) =
dist(x, H), in one ball at the largest radius, measured in two passes.
Otherwise sampling the trace densely is hopeless at radius 64, so the
supremum is computed by certified branch and bound, set up once per
direction: the group structure gives per-direction Lipschitz bounds
(stepping by a basis vector b changes the distance by at most dist(b,
other)), and the search stops when the best undecided cell cannot beat
the incumbent by more than the configured grid resolution.  The basis
match, each source basis row less its closest target point or, for a
continuous row, its projection on the target's continuous part, gives
a linear map K with dist(x, other) <= |x| slope on the source (a
subgroup near another is its image under a map near the identity), so
no cell's bound exceeds R slope.  The incumbent starts at the largest
distance of the source basis vectors inside the ball and of probes,
source points along the direction where that majorant is largest,
which depend on the radius alone.  The first round's one cell, the
whole box around the origin where the distance is 0, starts with the
bound an evaluation there gives: each coefficient bound times the
lesser of its vector's length and distance to the target, plus the
continuous leak over the ball, capped at R slope, so near-identical
pairs are certified with no evaluation.  Towards a full-rank target no
cell's bound exceeds mu, which bounds every distance to it, so the
search ends as soon as the incumbent comes within the grid of mu.
The open cells are the rows of one table, lattice coefficients and
continuous coordinates alike, and numpy bounds and splits 256 of them
at a time, highest bound first; only points inside the ball count.
The returned value g obeys g_true - grid <= g <= g_true + grid/2, the
same contract as grid sampling of the continuous directions.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _lattice
from .errors import (DimensionMismatch, EnumerationBudgetExceeded,
                     InvalidPair, Unstable)
from .invariants import delta_type, norms
from .subgroup import (ClosedSubgroup, GroupType, _distances, _solver,
                       make_subgroup)


def _default_radii():
    return tuple(float(2 ** k) for k in range(7))


def _default_weights():
    return tuple(float(2.0 ** -k) for k in range(7))


@dataclass(frozen=True)
class MetricParams:
    """Radii and weights of the dyadic aggregation, the resolution of
    the continuous-direction search, and the evaluation budget."""

    radii: tuple = field(default_factory=_default_radii)
    weights: tuple = field(default_factory=_default_weights)
    grid: float = 0.05
    cap: int = 1_000_000

    def __post_init__(self):
        r = tuple(_real(x, "radii") for x in self.radii)
        w = tuple(_real(x, "weights") for x in self.weights)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "weights", w)
        if not r:
            raise ValueError("radii must not be empty")
        if len(r) != len(w):
            raise ValueError("radii and weights must have equal length")
        if any(b <= a for a, b in zip(r, r[1:])):
            raise ValueError("radii must be strictly increasing")
        if not all(0 < x < math.inf for x in r + w):
            raise ValueError("radii and weights must be positive and finite")
        if not 0 < _real(self.grid, "grid") < math.inf:
            raise ValueError("grid must be positive and finite")
        if isinstance(self.cap, bool) \
                or not isinstance(self.cap, numbers.Integral) or self.cap < 1:
            raise ValueError(
                f"cap must be a positive integer, got {self.cap!r}")


def _real(x, what: str) -> float:
    """``x`` as a float; a boolean or a non-real value raises ValueError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{what}: expected a real number, got {x!r}")
    return float(x)


DEFAULT_PARAMS = MetricParams()


def _top(ub, k):
    """Indices of the k highest entries of ub, highest first and ties to
    the earliest: the order in which a heap keyed on (-ub, index) pops
    them, found in time linear in the length of ub."""
    idx = np.arange(ub.size)
    if ub.size > k:
        kth = np.partition(ub, ub.size - k)[ub.size - k]
        above = np.flatnonzero(ub > kth)
        ties = np.flatnonzero(ub == kth)[:k - above.size]
        idx = np.union1d(above, ties)
    return idx[np.argsort(-ub[idx], kind="stable")]


def _certified_sup(f_batch, int_basis, int_lips, int_bounds, cont_rows,
                   cont_lip, ball_radius, grid, stop_above, budget, lo,
                   ub_cap):
    """Certified supremum of f over a box of lattice coefficients and
    orthonormal continuous coordinates in [-ball_radius, ball_radius],
    intersected with the ball: ``int_basis`` holds the q lattice rows
    and ``cont_rows`` the p continuous ones, either set possibly empty.

    ``int_lips`` and ``cont_lip`` (one for every continuous coordinate)
    bound the change of f per unit step in a coordinate; the spatial
    step sizes are the row norms.  ``ub_cap`` bounds f in the ball: the
    linear majorant R slope, or the covering radius mu of a full-rank
    target's lattice part when that is less.
    ``lo`` is the starting incumbent, a value of f attained inside the
    ball.  The one cell of the first round, the whole box centred at the
    origin where f is 0, starts with the bound an evaluation there gives:
    within 0.45 grid of ``lo``, no cell opens and f is never evaluated.
    Returns an attained value lo such that sup <= lo + grid (unless
    ``stop_above`` fired first, in which case lo >= stop_above).

    The open cells are the rows of one table: bounds ``cell_lo`` and
    ``cell_hi`` with one column per coordinate, the first ``qi`` of them
    lattice coefficients (integers, which floats hold exactly), and an
    upper bound ``ub`` of f on the cell; rows stay in the order they
    were made.  Each round drops the cells that cannot beat the
    incumbent by more than the grid, evaluates the 256 highest bounds
    (ties to the earliest row) at their centres, and appends the two
    halves of each cell still open, left then right.  Only points inside
    the ball count towards the incumbent: a lattice point just outside
    it can lie far from the target.  Since f(x) <= |x|, no cell's bound
    exceeds the ball radius.
    """
    qi, pc = int_basis.shape[0], cont_rows.shape[0]
    rows = np.vstack([int_basis, cont_rows])
    is_int = np.arange(qi + pc) < qi
    lips = np.concatenate([int_lips, np.full(pc, cont_lip)])
    row_norms = np.linalg.norm(rows, axis=1)
    grid_eff = 0.45 * grid
    inside = ball_radius * _lattice.BALL
    fuzz = inside + grid_eff
    stop = math.inf if stop_above is None else stop_above
    evals = 0
    half = np.concatenate([int_bounds, np.full(pc, float(ball_radius))])
    # one cell, the whole box, with the bound f(0) = 0 gives at its centre
    cell_lo, cell_hi = -half[None], half[None]
    ub = np.array([min(half @ lips, ub_cap, half @ row_norms, inside)])
    while lo < stop:
        rest = ub > lo + grid_eff  # the open cells
        n_open = int(np.count_nonzero(rest))
        if not n_open:
            break
        pick = _top(ub, min(n_open, 256))
        rest[pick] = False
        blo, bhi = cell_lo.take(pick, axis=0), cell_hi.take(pick, axis=0)
        # evaluation points; a cell centre outside the ball slides its
        # continuous coordinates to the point of its box closest to the
        # origin, and counts towards the incumbent only if that is inside
        mid = 0.5 * (blo + bhi)
        mid = np.where(is_int, np.floor(mid), mid)
        x_int = mid[:, :qi] @ rows[:qi]
        v = mid[:, qi:].copy()
        far = np.linalg.norm(x_int + v @ rows[qi:], axis=1) > inside
        v[far] = np.clip(-(x_int[far] @ rows[qi:].T),
                         blo[far, qi:], bhi[far, qi:])
        xs = x_int + v @ rows[qi:]
        vals = f_batch(xs)
        evals += pick.size
        if evals > budget:
            raise EnumerationBudgetExceeded(
                f"distance evaluation budget exhausted: {evals} evaluations "
                f"over the cap of {budget} (MetricParams.cap), "
                f"{n_open} open cells left, incumbent "
                f"{lo:.6g}, best open bound {ub[pick[0]]:.6g}")
        sizes = np.linalg.norm(xs, axis=1)
        lo = float(np.max(vals[sizes <= inside], initial=lo))
        hw = np.where(is_int, np.floor(0.5 * (bhi - blo + 1)),
                      0.5 * (bhi - blo))
        spatial = hw @ row_norms
        # the target contains 0, so f(x) <= |x| caps cells near the
        # origin; the ball caps everything at its radius
        cell_ub = np.minimum(np.minimum(vals + hw @ lips, ub_cap),
                             np.minimum(sizes + spatial, inside))
        # split where the value varies most, lattice coordinates winning
        # ties; once the values are resolved, split on spatial extent,
        # lattice coordinates first, so the ball membership resolves too
        gain = hw * lips
        j = np.argmax(gain, axis=1)
        by_value = gain[np.arange(j.size), j] > 0.25 * grid_eff
        int_open = np.any(bhi[:, :qi] > blo[:, :qi], axis=1)
        extent = np.where(is_int, bhi - blo, hw) * row_norms
        j = np.where(by_value, j, np.argmax(
            np.where(is_int == int_open[:, None], extent, -1.0), axis=1))
        split = np.flatnonzero(
            (cell_ub > lo + grid_eff) & (sizes - spatial <= fuzz)
            & (by_value | int_open | (spatial > grid_eff)))
        k, js = 2 * np.arange(split.size), j[split]
        new_lo = np.repeat(blo.take(split, axis=0), 2, axis=0)
        new_hi = np.repeat(bhi.take(split, axis=0), 2, axis=0)
        new_hi[k, js] = mid[split, js]  # the left half, then the right
        new_lo[k + 1, js] = mid[split, js] + is_int[js]
        cell_lo = np.concatenate([cell_lo.compress(rest, axis=0), new_lo])
        cell_hi = np.concatenate([cell_hi.compress(rest, axis=0), new_hi])
        ub = np.concatenate([ub.compress(rest), np.repeat(cell_ub[split], 2)])
    return lo


def _half_ball(group: ClosedSubgroup, radius: float):
    """(points, squared norms) of ``LatticeSolver.ball``, one of each pair
    +-x of the group's lattice in the ball, or None when a level of the
    whole ball's search would hold over 65,536 nodes."""
    try:
        return _solver(group).ball(radius, cap=65_536)[::2]
    except EnumerationBudgetExceeded:
        return None


def _basis_match(src: ClosedSubgroup, dst: ClosedSubgroup):
    """Match each source lattice basis vector to its closest point of
    ``dst`` and each continuous source row to its projection on the
    continuous part of ``dst``; the misses, row minus match, are the
    rows of K.  With A the source's lattice rows over its continuous
    ones, a point x = [c, s] A of the source has the point x - [c, s] K
    of ``dst``, so dist(x, dst) <= |x pinv(A) K| <= |x| slope, slope the
    largest singular value of pinv(A) K.

    Returns (ei, sigma, slope, probes): the lengths of the lattice
    misses, the largest singular value of the continuous ones capped at
    1, slope, and ``probes(radius)``, the source points within the ball
    among t radius u, t in [0.6, 1] and u the unit vector on which the
    bound is largest, each with its lattice coordinates rounded.  The
    probes of a ball depend on its radius alone."""
    sd, sc = src.discrete_basis, src.continuous_basis
    cont, solver = dst.continuous_basis, _solver(dst)
    off = sd - (sd @ cont.T) @ cont
    ei, match = solver.closest(off)
    leak0 = sc - (sc @ cont.T) @ cont
    sigma = min(1.0, float(
        np.linalg.svd(leak0, compute_uv=False).max(initial=0.0)))
    rows = np.vstack([sd, sc])
    coords = np.linalg.pinv(rows)
    left, sv, _ = np.linalg.svd(
        coords @ np.vstack([off - match @ solver.basis, leak0]))

    def probes(radius):
        inside = radius * _lattice.BALL
        cs = np.outer(np.linspace(0.6, 1.0, 9) * inside, left[:, 0]) @ coords
        cs[:, :sd.shape[0]] = np.round(cs[:, :sd.shape[0]])
        pts = cs @ rows
        return pts.compress(np.linalg.norm(pts, axis=1) <= inside, axis=0)

    return ei, sigma, float(sv[0]), probes


def _directed_gaps(src: ClosedSubgroup, dst: ClosedSubgroup, radii,
                   params: MetricParams, stop_above):
    """The directed gap at each of the increasing ``radii``, by a route
    chosen once: 0 from the trivial group or towards the whole space,
    min(R, mu) from the whole space, and from a lattice to a full-rank
    target the largest distance over the ``_half_ball`` of the largest
    radius, in two passes (the first radius's points, then the rest,
    20,000 rows a call), or if it is refused over each radius's own
    ball.  Other pairs, and every radius from the first refused ball on
    (balls nest), go to the branch and bound, set up at its first radius
    and capped at the lesser of mu and the basis match's majorant."""
    n = src.ambient_dim
    if src.rank == 0 or dst.rank == n and dst.discrete_rank == 0:
        yield from (0.0 for _ in radii)
    elif src.continuous_dim == n:
        # dist(x, dst) <= |x| as 0 lies in dst, with equality exactly on
        # the Voronoi cell of 0, a convex set reaching out to the covering
        # radius; a target of lower rank leaves a whole direction free
        mu = _solver(dst).covering_radius()[0] if dst.rank == n else math.inf
        yield from (min(radius, mu) for radius in radii)
    else:
        exact = src.continuous_dim == 0 and dst.rank == n
        held, refused = -1.0, (math.inf if exact else 0.0)
        gap, done2, nu = 0.0, -1.0, None
        for radius in radii:
            for r in (radii[-1], radius):  # the largest ball first
                if held < radius and r < refused:
                    ball = _half_ball(src, r)
                    held, refused = (held, r) if ball is None else (r, refused)
            if held >= radius:
                pts, sq = ball
                cut2 = np.square(radius * _lattice.BALL)
                if done2 < cut2:  # this radius's points, then all the rest
                    new = (sq > done2) & ((sq <= cut2) | (done2 >= 0))
                    far, far_sq = pts.compress(new, axis=0), sq[new]
                    far_d = np.concatenate([np.zeros(0)] + [
                        _distances(dst, far[i:i + 20_000])
                        for i in range(0, len(far), 20_000)])
                    done2 = np.square((radius if done2 < 0 else held)
                                      * _lattice.BALL)
                gap = float(np.max(far_d[far_sq <= cut2], initial=gap))
                yield gap
                continue
            if nu is None:
                try:  # the covering radius bounds every distance to dst
                    mu = _solver(dst).covering_radius()[0] \
                        if dst.rank == n else math.inf
                except EnumerationBudgetExceeded:  # the walk is refused
                    mu = math.inf
                ei, sigma, slope, probes = _basis_match(src, dst)
                row_norms = np.linalg.norm(src.discrete_basis, axis=1)
                nu = _lattice.dual_coefficient_norms(src.discrete_basis)
            inside = radius * _lattice.BALL
            # the basis vectors inside the ball and the probes are points
            # of the trace
            lo = max(float(np.max(ei[row_norms <= inside], initial=0.0)),
                     float(np.max(_distances(dst, probes(radius)),
                                  initial=0.0)))
            yield _certified_sup(
                lambda xs: _distances(dst, xs), src.discrete_basis,
                np.minimum(ei, row_norms),
                np.floor(radius * nu + 1e-9).astype(np.int64),
                src.continuous_basis, sigma, radius, params.grid, stop_above,
                params.cap, lo, min(mu, inside * slope * (1 + 1e-9) + 1e-12))


def _gaps(group_a: ClosedSubgroup, group_b: ClosedSubgroup, radii,
          params: MetricParams, stop_above):
    """The symmetric gap at each of the increasing ``radii``, up to the
    first at or above ``stop_above``, which may be one directed gap."""
    if group_a.ambient_dim != group_b.ambient_dim:
        raise DimensionMismatch("subgroups live in different dimensions")
    forward = _directed_gaps(group_a, group_b, radii, params, stop_above)
    backward = _directed_gaps(group_b, group_a, radii, params, stop_above)
    stop = math.inf if stop_above is None else stop_above
    for gap in forward:
        if gap < stop:
            gap = max(gap, next(backward))
            gap = 0.0 if gap < 1e-12 else gap  # closest-vector rounding noise
        yield gap
        if gap >= stop:
            return


def hausdorff_gap(group_a: ClosedSubgroup, group_b: ClosedSubgroup,
                  radius: float, params: MetricParams = DEFAULT_PARAMS,
                  stop_above: float | None = None) -> float:
    """Symmetric gap between the traces of two subgroups in a ball.

    The true gap is the least slack e such that each subgroup's trace
    in the closed ball lies within e of the other subgroup.  The
    returned value differs from it by at most ``params.grid``.  When
    ``stop_above`` is given the search may stop early once the result
    is known to be at least that large.  Raises ValueError unless the
    radius is finite and nonnegative.
    """
    if not 0 <= radius < math.inf:
        raise ValueError("radius must be finite and nonnegative")
    return next(_gaps(group_a, group_b, (radius,), params, stop_above))


def chabauty_distance(group_a: ClosedSubgroup, group_b: ClosedSubgroup,
                      params: MetricParams = DEFAULT_PARAMS) -> float:
    """Weighted sum over dyadic radii of the capped ball gaps.

    Symmetric, zero exactly on pairs that agree within tolerance, and
    compatible with convergence in the underlying topology on all the
    shipped test families.
    """
    total = 0.0
    gaps = _gaps(group_a, group_b, params.radii, params, 1.0)
    for idx, (weight, gap) in enumerate(zip(params.weights, gaps)):
        capped = min(1.0, gap)
        total += weight * capped
        if capped >= 1.0:
            # gaps grow with the radius, so the remaining terms saturate
            total += sum(params.weights[idx + 1:])
    return total


def subgroups_equal(group_a: ClosedSubgroup, group_b: ClosedSubgroup,
                    params: MetricParams = DEFAULT_PARAMS,
                    tol: float = 1e-6) -> bool:
    return chabauty_distance(group_a, group_b, params) < tol


def neighborhood_test(group_new: ClosedSubgroup, group_ref: ClosedSubgroup,
                      radius: float, eps: float,
                      params: MetricParams = DEFAULT_PARAMS) -> bool:
    """Do the two traces in the radius ball lie within eps of each
    other, both ways?  Evaluated on the searched point sets, so answers
    within ``params.grid`` of the threshold may go either way.  Raises
    ValueError unless the radius and eps are finite and nonnegative."""
    if not 0 <= eps < math.inf:
        raise ValueError("eps must be finite and nonnegative")
    gap = hausdorff_gap(group_new, group_ref, radius, params,
                        stop_above=eps * (1 + 1e-9) + 1e-12)
    return gap <= eps


@dataclass(frozen=True)
class LimitReport:
    """Outcome of a limit classification: the stabilized scale type,
    which norm indices collapsed below the scale (new continuous
    directions) and which escaped above its inverse (rank loss)."""

    group_type: GroupType
    to_zero: tuple
    to_infinity: tuple
    norm_trace: np.ndarray


def classify_limit(family: Callable[[float], ClosedSubgroup],
                   t_sequence: Sequence[float], delta: float) -> LimitReport:
    """Scale type of a one-parameter family at the end of a parameter
    sweep; raises Unstable if the type keeps changing over the final
    three samples."""
    ts = list(t_sequence)
    if len(ts) < 3:
        raise ValueError("need at least three parameter samples")
    groups = [family(t) for t in ts]
    traces = np.array([norms(g) for g in groups])
    types = [delta_type(g, delta) for g in groups]
    tail = types[-3:]
    if any(t is None for t in tail) or len(set(tail)) != 1:
        raise Unstable(f"scale type did not stabilize: {types}")
    first, last = traces[0], traces[-1]
    inv = 1.0 / delta
    to_zero = tuple(int(i) for i in range(traces.shape[1])
                    if first[i] >= delta and last[i] < delta)
    to_inf = tuple(int(i) for i in range(traces.shape[1])
                   if first[i] <= inv and last[i] > inv)
    return LimitReport(tail[-1], to_zero, to_inf, traces)


def degeneration_family(n: int, source, target):
    """A one-parameter family of the source type converging, as t grows,
    to a subgroup of the target type.

    Families exist exactly for the covering arrows of the incidence
    order: one discrete generator shrinks (target (p+1, q-1)) or one
    escapes (target (p, q-1)).
    """
    p, q = int(source[0]), int(source[1])
    r, s = int(target[0]), int(target[1])
    if p < 0 or q < 0 or p + q > n:
        raise InvalidPair(f"source ({p},{q}) does not fit in dimension {n}")
    if (r, s) == (p + 1, q - 1) and q >= 1:
        mode = "shrink"
    elif (r, s) == (p, q - 1) and q >= 1:
        mode = "grow"
    else:
        raise InvalidPair(
            f"no shipped family for the arrow ({p},{q}) -> ({r},{s})")
    eye = np.eye(n)

    def family(t: float) -> ClosedSubgroup:
        if not 0 < t < math.inf:
            raise ValueError("the parameter must be positive and finite")
        rows = [eye[p + i].copy() for i in range(q)]
        if mode == "shrink":
            rows[0] = rows[0] / t
        else:
            rows[-1] = rows[-1] * t
        return make_subgroup(n, eye[:p], rows)

    return family
