"""A computable metric inducing the topology of uniform closeness on
compact sets, plus the raw two-sided neighborhood test and limit
classification for degenerating families.

Two subgroups are close when, inside every large ball, each point of
one lies near a point of the other.  ``hausdorff_gap`` approximates the
least such slack for one ball radius; ``chabauty_distance`` aggregates
the gaps over dyadic radii with summable weights.

The gap is a supremum of a distance function over the trace of a
subgroup in a ball.  From the whole space it is exact: min(R, mu), mu
the covering radius of the target's lattice part, or R when the target
is not of full rank.  From a lattice whose ball search holds at most
65,536 nodes on each level towards a full-rank target, it is the exact
maximum over the ball's points.  Otherwise sampling the trace densely
is hopeless at radius 64, so the supremum is computed by certified
branch and bound: the group structure gives per-direction Lipschitz
bounds (stepping by a basis vector b changes the distance by at most
dist(b, other)), and the search stops when the best undecided cell
cannot beat the incumbent by more than the configured grid resolution.
The incumbent starts at the largest distance of a source basis vector
inside the ball, and the first round's one cell, the whole box around
the origin, is bounded by the basis match: each coefficient bound
times the lesser of its vector's length and distance to the target,
plus the continuous leak over the ball, so near-identical pairs are
certified there.  Towards a full-rank target no cell's bound exceeds
mu, which bounds every distance to it, so the search ends as soon as
the incumbent comes within the grid of mu.  The open cells are the
rows of one table, lattice coefficients and continuous coordinates
alike, and numpy bounds and splits 256 of them at a time, highest
bound first; only points inside the ball count.  The returned value g
obeys g_true - grid <= g <= g_true + grid/2, the same contract as grid
sampling of the continuous directions.
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
    intersected with the ball.

    ``int_lips`` and ``cont_lip`` (one for every continuous coordinate)
    bound the change of f per unit step in a coordinate; the spatial
    step sizes are the row norms.  ``ub_cap`` bounds f everywhere: the
    covering radius mu of a full-rank target's lattice part, or inf for
    other targets and for those whose Voronoi cell is not walked.
    ``lo`` is the starting incumbent, a value of f attained inside the
    ball.  The first round's one cell is the whole box, evaluated at
    the origin where f is 0: when its Lipschitz bound is within 0.45
    grid of ``lo``, the search returns ``lo`` after one evaluation.
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
    qi = 0 if int_basis is None else int_basis.shape[0]
    pc = 0 if cont_rows is None else cont_rows.shape[0]
    rows = np.vstack([b for b in (int_basis, cont_rows) if b is not None])
    is_int = np.arange(qi + pc) < qi
    lips = np.concatenate([int_lips if qi else [], np.full(pc, cont_lip)])
    row_norms = np.linalg.norm(rows, axis=1)
    grid_eff = 0.45 * grid
    inside = ball_radius * (1 + 1e-12) + 1e-12
    fuzz = ball_radius * (1 + 1e-12) + grid_eff
    stop = math.inf if stop_above is None else stop_above
    evals = 0
    half = np.concatenate([int_bounds if qi else [],
                           np.full(pc, float(ball_radius))])
    cell_lo, cell_hi, ub = -half[None], half[None], np.array([math.inf])
    stale = 0  # dropped since a round last took every open cell; the
    # budget error counts them as open, as a heap keeps them until popped
    while lo < stop:
        rest = ub > lo + grid_eff  # the open cells
        n_open = int(np.count_nonzero(rest))
        if not n_open:
            break
        stale = stale + ub.size - n_open if n_open >= 256 else 0
        pick = _top(ub, min(n_open, 256))
        rest[pick] = False
        blo, bhi = cell_lo[pick], cell_hi[pick]
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
                f"{n_open + stale} open cells left, incumbent "
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
        k, js = np.arange(split.size), j[split]
        left_hi, right_lo = bhi[split], blo[split]
        left_hi[k, js] = mid[split, js]
        right_lo[k, js] = mid[split, js] + is_int[js]
        cell_lo = np.concatenate([
            cell_lo[rest],
            np.stack([blo[split], right_lo], axis=1).reshape(-1, qi + pc)])
        cell_hi = np.concatenate([
            cell_hi[rest],
            np.stack([left_hi, bhi[split]], axis=1).reshape(-1, qi + pc)])
        ub = np.concatenate([ub[rest], np.repeat(cell_ub[split], 2)])
    return lo


def _exact_gap(src: ClosedSubgroup, dst: ClosedSubgroup, radius: float):
    """Directed gap from a lattice source against a full-rank target,
    exactly: the largest distance to the target over the source's points
    in the ball, |x| <= R(1 + 1e-12) + 1e-12, when no level of the
    ball's search holds more than 65,536 nodes; the last level holds
    every point found, so an overfull ball is refused before its points
    are made.  Returns None when the search is refused."""
    try:
        pts = _lattice.search_ball(src.discrete_basis, radius, cap=65_536)[0]
    except EnumerationBudgetExceeded:
        return None
    return max(float(np.max(_distances(dst, pts[start:start + 20_000])))
               for start in range(0, pts.shape[0], 20_000))


def _directed_gap(src: ClosedSubgroup, dst: ClosedSubgroup, radius: float,
                  params: MetricParams, stop_above) -> float:
    ps, qs = src.group_type
    n = src.ambient_dim
    if ps == 0 and qs == 0:
        return 0.0
    if dst.rank == n and dst.discrete_rank == 0:
        return 0.0  # the target is the full space
    if ps == n:
        # dist(x, dst) <= |x| as 0 lies in dst, with equality exactly on
        # the Voronoi cell of 0, a convex set reaching out to the covering
        # radius; a target of lower rank leaves a whole direction free
        if dst.rank < n:
            return radius
        return min(radius, _solver(dst).covering_radius()[0])
    int_basis = src.discrete_basis if qs else None
    int_lips = None
    int_bounds = None
    lo = 0.0
    sigma = 0.0
    if ps:
        cont = dst.continuous_basis
        leak0 = src.continuous_basis - (src.continuous_basis @ cont.T) @ cont
        sigma = min(1.0, float(np.linalg.svd(leak0, compute_uv=False)[0]))
    if qs:
        ei = _distances(dst, src.discrete_basis)
        row_norms = np.linalg.norm(src.discrete_basis, axis=1)
        int_lips = np.minimum(ei, row_norms)
        nu = _lattice.dual_coefficient_norms(src.discrete_basis)
        int_bounds = np.floor(radius * nu + 1e-9).astype(np.int64)
        # the basis vectors inside the ball are points of the trace
        lo = float(np.max(ei[row_norms <= radius * (1 + 1e-12) + 1e-12],
                          initial=0.0))
    ub_cap = math.inf
    if dst.rank == n:
        if ps == 0:
            value = _exact_gap(src, dst, radius)
            if value is not None:
                return value
        try:  # the covering radius bounds every distance to the target
            ub_cap = _solver(dst).covering_radius()[0]
        except EnumerationBudgetExceeded:
            pass  # the Voronoi walk refuses the target's lattice part
    return _certified_sup(
        lambda xs: _distances(dst, xs), int_basis, int_lips, int_bounds,
        src.continuous_basis if ps else None, sigma,
        radius, params.grid, stop_above, params.cap, lo, ub_cap)


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
    if group_a.ambient_dim != group_b.ambient_dim:
        raise DimensionMismatch("subgroups live in different dimensions")
    if not 0 <= radius < math.inf:
        raise ValueError("radius must be finite and nonnegative")
    first = _directed_gap(group_a, group_b, radius, params, stop_above)
    if stop_above is not None and first >= stop_above:
        return first
    second = _directed_gap(group_b, group_a, radius, params, stop_above)
    gap = max(first, second)
    return 0.0 if gap < 1e-12 else gap  # closest-vector rounding noise


def chabauty_distance(group_a: ClosedSubgroup, group_b: ClosedSubgroup,
                      params: MetricParams = DEFAULT_PARAMS) -> float:
    """Weighted sum over dyadic radii of the capped ball gaps.

    Symmetric, zero exactly on pairs that agree within tolerance, and
    compatible with convergence in the underlying topology on all the
    shipped test families.
    """
    total = 0.0
    remaining = list(zip(params.radii, params.weights))
    for idx, (radius, weight) in enumerate(remaining):
        gap = hausdorff_gap(group_a, group_b, radius, params, stop_above=1.0)
        capped = min(1.0, gap)
        total += weight * capped
        if capped >= 1.0:
            # gaps grow with the radius, so the remaining terms saturate
            total += sum(w for _, w in remaining[idx + 1:])
            break
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
        if t <= 0:
            raise ValueError("the parameter must be positive")
        rows = [eye[p + i].copy() for i in range(q)]
        if mode == "shrink":
            rows[0] = rows[0] / t
        else:
            rows[-1] = rows[-1] * t
        return make_subgroup(n, eye[:p], rows)

    return family
