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
is not of full rank.  Otherwise sampling the trace densely is hopeless
at radius 64, so the supremum is computed by certified branch and
bound: the group structure gives per-direction Lipschitz bounds
(stepping by a basis vector b changes the distance by at most dist(b,
other)), and the search stops when the best undecided cell cannot beat
the incumbent by more than the configured grid resolution, unless a
dense sample of the source comes within the grid of mu, which bounds
every gap towards a full-rank target.  The returned value g obeys
g_true - grid <= g <= g_true + grid/2, the same contract as grid
sampling of the continuous directions.
"""
from __future__ import annotations

import heapq
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _lattice
from .errors import (DimensionMismatch, EnumerationBudgetExceeded,
                     InvalidPair, Unstable)
from .invariants import delta_type, norms
from .subgroup import ClosedSubgroup, GroupType, _solver, make_subgroup


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
        r = tuple(float(x) for x in self.radii)
        w = tuple(float(x) for x in self.weights)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "weights", w)
        if len(r) != len(w):
            raise ValueError("radii and weights must have equal length")
        if any(b <= a for a, b in zip(r, r[1:])):
            raise ValueError("radii must be strictly increasing")
        if not all(0 < x < math.inf for x in r + w):
            raise ValueError("radii and weights must be positive and finite")
        if not 0 < self.grid < math.inf:
            raise ValueError("grid must be positive and finite")
        if not self.cap >= 1:
            raise ValueError("cap must be positive")


DEFAULT_PARAMS = MetricParams()


class _TargetProfile:
    """Distance oracle for a fixed target subgroup other than the full
    space; its solver is the subgroup's cached one."""

    def __init__(self, group: ClosedSubgroup):
        self.cont = group.continuous_basis
        self.has_cont = self.cont.shape[0] > 0
        self.solver = _solver(group) if group.discrete_rank else None
        # nearest-plane output bounds every distance to a full-rank target
        self.covering = (self.solver.covering_bound
                         if group.rank == group.ambient_dim else math.inf)

    def dist(self, points: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(points)
        if self.has_cont:
            x = x - (x @ self.cont.T) @ self.cont
        if self.solver is None:
            return np.linalg.norm(x, axis=1)
        d, _ = self.solver.closest(x)
        return d


def _certified_sup(f_batch, int_basis, int_lips, int_bounds, cont_rows,
                   cont_lip, ball_radius, grid, stop_above, budget,
                   probe_points, ub_cap):
    """Certified supremum of f over a box of lattice coefficients and
    orthonormal continuous coordinates in [-ball_radius, ball_radius],
    intersected with the ball.

    ``int_lips`` and ``cont_lip`` (one for every continuous coordinate)
    bound the change of f per unit step in a coordinate; the spatial
    step sizes are the row norms.  Returns an attained value lo such
    that sup <= lo + grid (unless ``stop_above`` fired first, in which
    case lo >= stop_above).
    """
    qi = 0 if int_basis is None else int_basis.shape[0]
    pc = 0 if cont_rows is None else cont_rows.shape[0]
    cont_vlips = np.full(pc, cont_lip)
    dim = int_basis.shape[1] if qi else cont_rows.shape[1]
    grid_eff = 0.45 * grid
    fuzz = ball_radius * (1 + 1e-12) + grid_eff
    int_rows_norm = (np.linalg.norm(int_basis, axis=1)
                     if qi else np.zeros(0))
    cont_rows_norm = (np.linalg.norm(cont_rows, axis=1)
                      if pc else np.zeros(0))
    lo = 0.0
    evals = 0

    if probe_points is not None:  # they hold the origin
        pts = probe_points[np.linalg.norm(probe_points, axis=1) <= fuzz]
        evals += pts.shape[0]
        lo = max(lo, float(np.max(f_batch(pts))))
    if stop_above is not None and lo >= stop_above:
        return lo

    counter = 0
    root = (np.full(qi, -1, dtype=np.int64) * int_bounds if qi else None,
            int_bounds.copy() if qi else None,
            np.full(pc, -float(ball_radius)) if pc else None,
            np.full(pc, float(ball_radius)) if pc else None)
    heap = [(-math.inf, counter, root)]

    while heap:
        top_ub = -heap[0][0]
        if top_ub <= lo + grid_eff:
            break
        batch = []
        while heap and len(batch) < 256:
            ub, _, cell = heapq.heappop(heap)
            if -ub > lo + grid_eff:
                batch.append(cell)
        if not batch:
            break
        # evaluation points; a cell centre outside the ball slides its
        # continuous coordinates towards the origin
        xs = np.zeros((len(batch), dim))
        for i, (clo, chi, vlo, vhi) in enumerate(batch):
            x = ((clo + chi) // 2) @ int_basis if qi else np.zeros(dim)
            if pc:
                v = 0.5 * (vlo + vhi)
                if np.linalg.norm(x + v @ cont_rows) > fuzz:
                    v = np.clip(-(x @ cont_rows.T), vlo, vhi)
                x = x + v @ cont_rows
            xs[i] = x
        vals = f_batch(xs)
        evals += len(batch)
        if evals > budget:
            raise EnumerationBudgetExceeded(
                f"distance evaluation budget exhausted: {evals} evaluations "
                f"over the cap of {budget} (MetricParams.cap), "
                f"{len(heap) + len(batch)} open cells left, incumbent "
                f"{lo:.6g}, best open bound {top_ub:.6g}")
        sizes = np.linalg.norm(xs, axis=1)
        lo = float(np.max(vals[sizes <= fuzz], initial=lo))
        if stop_above is not None and lo >= stop_above:
            return lo
        for i, (clo, chi, vlo, vhi) in enumerate(batch):
            hw_int = ((chi - clo + 1) // 2).astype(float) if qi else None
            hw_cont = 0.5 * (vhi - vlo) if pc else None
            value_radius = 0.0
            spatial = 0.0
            if qi:
                value_radius += float(hw_int @ int_lips)
                spatial += float(hw_int @ int_rows_norm)
            if pc:
                value_radius += float(hw_cont @ cont_vlips)
                spatial += float(hw_cont @ cont_rows_norm)
            # the target contains 0, so f(x) <= |x| caps cells near the
            # origin; the ball caps everything at its radius
            reach_cap = min(sizes[i] + spatial, fuzz)
            ub = min(float(vals[i]) + value_radius, ub_cap, reach_cap)
            if ub <= lo + grid_eff:
                continue
            if sizes[i] - spatial > fuzz:
                continue  # no point of the cell reaches the ball
            # pick the split direction by value extent, spatial fallback
            best_dim, best_gain, best_kind = -1, 0.0, None
            if qi:
                gains = hw_int * int_lips
                j = int(np.argmax(gains))
                if gains[j] > best_gain and chi[j] > clo[j]:
                    best_dim, best_gain, best_kind = j, float(gains[j]), "i"
            if pc:
                gains = hw_cont * cont_vlips
                j = int(np.argmax(gains))
                if gains[j] > best_gain:
                    best_dim, best_gain, best_kind = j, float(gains[j]), "c"
            if best_kind is None or best_gain <= 0.25 * grid_eff:
                # value variation is resolved; split on spatial extent so
                # the ball membership resolves too
                if qi and np.any(chi > clo):
                    spans = (chi - clo).astype(float) * int_rows_norm
                    best_dim, best_kind = int(np.argmax(spans)), "i"
                elif pc and spatial > grid_eff:
                    spans = hw_cont * cont_rows_norm
                    best_dim, best_kind = int(np.argmax(spans)), "c"
                else:
                    continue  # nothing left to split; cell is resolved
            if best_kind == "i":
                mid = (clo[best_dim] + chi[best_dim]) // 2
                left = (clo.copy(), chi.copy(), vlo, vhi)
                left[1][best_dim] = mid
                right = (clo.copy(), chi.copy(), vlo, vhi)
                right[0][best_dim] = mid + 1
                children = [left, right]
            else:
                mid = 0.5 * (vlo[best_dim] + vhi[best_dim])
                left = (clo, chi, vlo.copy(), vhi.copy())
                left[3][best_dim] = mid
                right = (clo, chi, vlo.copy(), vhi.copy())
                right[2][best_dim] = mid
                children = [left, right]
            for child in children:
                counter += 1
                heapq.heappush(heap, (-ub, counter, child))
    return lo


_enum_cache: "weakref.WeakKeyDictionary[ClosedSubgroup, tuple]" = \
    weakref.WeakKeyDictionary()


def _cached_lattice_points(src: ClosedSubgroup, radius: float, cap: int):
    """Lattice points of the source inside the radius ball, in search
    order, reusing the largest search seen so far for this subgroup."""
    entry = _enum_cache.get(src)
    if entry is None or entry[0] < radius:
        pts, _, sq = _lattice.search_ball(src.discrete_basis, radius, cap=cap)
        entry = (radius, pts, np.sqrt(sq))
        _enum_cache[src] = entry
    _, pts, sizes = entry
    return pts[sizes <= radius * (1 + 1e-12)]


def _dense_gap(src: ClosedSubgroup, dst: ClosedSubgroup,
               prof: _TargetProfile, radius: float, nu: np.ndarray,
               params: MetricParams, stop_above):
    """Directed gap from a source with a lattice part against a
    full-rank target via dense sampling.

    The sup of dist(., dst) over the whole space is the covering radius
    mu of the target's lattice part, an upper bound on the gap.  The
    source trace usually samples the target's fundamental cell finely
    enough that some source point gets within the grid resolution of mu,
    which certifies the answer without any search.  ``nu`` holds the
    dual-basis norms of the source lattice.  Returns None when the
    certificate fails.
    """
    qs, ps = src.discrete_rank, src.continuous_dim
    box = float(np.prod(2 * np.floor(radius * nu + 1e-9) + 1))
    budget = 2 * params.cap if ps == 0 else params.cap // 10
    r_eff = radius
    if box > budget:
        r_eff = radius * (budget / box) ** (1.0 / qs)
    try:
        pts = _cached_lattice_points(
            src, min(radius, max(r_eff, 1.0)), cap=8 * params.cap)
    except EnumerationBudgetExceeded:
        return None
    exact = ps == 0 and r_eff >= radius and pts.shape[0] <= 65_536
    if ps:
        # overlay a coarse grid of the continuous directions
        vcount = max(1, int(2 * params.cap // max(pts.shape[0], 1)))
        per_dim = max(2, int(vcount ** (1.0 / ps)))
        per_dim = min(per_dim, int(2 * radius / params.grid) + 2, 65)
        if per_dim < 5:
            return None
        axes = [np.linspace(-radius, radius, per_dim)] * ps
        mesh = np.meshgrid(*axes, indexing="ij")
        vgrid = np.stack([g.reshape(-1) for g in mesh], axis=1)
        shifts = vgrid @ src.continuous_basis
        samples = (pts[:, None, :] + shifts[None, :, :]).reshape(
            -1, src.ambient_dim)
        samples = samples[
            np.linalg.norm(samples, axis=1) <= radius * (1 + 1e-12)]
    else:
        samples = pts  # already inside: the cache filtered them by norm
    if samples.shape[0] == 0:
        samples = np.zeros((1, src.ambient_dim))
    if exact:
        lo = 0.0
        for start in range(0, samples.shape[0], 20_000):
            lo = max(lo, float(np.max(
                prof.dist(samples[start:start + 20_000]))))
        return lo
    hi, vertices = prof.solver.covering_radius()
    targets = vertices[:8]
    # hash the samples onto the target cell and pick, per target (a
    # farthest vertex of its Voronoi cell), the closest reduced image
    reduced = samples.copy()
    if prof.has_cont:
        reduced = reduced - (reduced @ prof.cont.T) @ prof.cont
    coeffs = prof.solver.nearest_plane(reduced)
    reduced = reduced - coeffs @ prof.solver.basis
    cand_idx = set()
    chunk = 500_000
    best_d = np.full(targets.shape[0], np.inf)
    best_i = np.zeros(targets.shape[0], dtype=np.int64)
    for start in range(0, reduced.shape[0], chunk):
        block = reduced[start:start + chunk]
        for t in range(targets.shape[0]):
            d2 = np.einsum("ij,ij->i", block - targets[t],
                           block - targets[t])
            j = int(np.argmin(d2))
            if d2[j] < best_d[t]:
                best_d[t] = d2[j]
                best_i[t] = start + j
    cand_idx.update(int(i) for i in best_i)
    # a spread of raw samples as insurance
    stride = max(1, samples.shape[0] // 256)
    cand_idx.update(range(0, samples.shape[0], stride))
    cand = samples[sorted(cand_idx)]
    lo = float(np.max(prof.dist(cand)))
    if stop_above is not None and lo >= stop_above:
        return lo
    if hi - lo <= 0.999 * params.grid:
        return lo
    return None


def _lattice_probes(basis: np.ndarray, radius: float) -> np.ndarray:
    """A few lattice points likely to be extremal inside the ball."""
    q = basis.shape[0]
    n = basis.shape[1]
    pts = [np.zeros(n)]
    row_norms = np.linalg.norm(basis, axis=1)
    for i in range(q):
        if row_norms[i] <= 0:
            continue
        kmax = int(radius / row_norms[i])
        for k in {1, max(1, kmax // 2), kmax}:
            if k >= 1 and k * row_norms[i] <= radius * (1 + 1e-12):
                pts.append(k * basis[i])
                pts.append(-k * basis[i])
    for i in range(q):
        for j in range(i + 1, q):
            for sgn in (1.0, -1.0):
                v = basis[i] + sgn * basis[j]
                if np.linalg.norm(v) <= radius * (1 + 1e-12):
                    pts.append(v)
    return np.array(pts)


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
    prof = _TargetProfile(dst)
    int_basis = src.discrete_basis if qs else None
    int_lips = None
    int_bounds = None
    probes = None
    sigma = 0.0
    if ps:
        leak0 = src.continuous_basis \
            - (src.continuous_basis @ prof.cont.T) @ prof.cont \
            if prof.has_cont else src.continuous_basis
        sigma = min(1.0, float(np.linalg.svd(leak0, compute_uv=False)[0])) \
            if leak0.size else 0.0
    if qs:
        ei = prof.dist(src.discrete_basis)
        int_lips = np.minimum(ei, np.linalg.norm(src.discrete_basis, axis=1))
        nu = _lattice.dual_coefficient_norms(src.discrete_basis)
        int_bounds = np.floor(radius * nu + 1e-9).astype(np.int64)
        probes = _lattice_probes(src.discrete_basis, radius)
        # near-identical pairs certify from the basis matching alone:
        # every source point moves by at most its coefficients times the
        # per-generator mismatch, plus the continuous leakage
        lo0 = float(np.max(prof.dist(
            probes[np.linalg.norm(probes, axis=1)
                   <= radius * (1 + 1e-12)])))
        hi0 = float(int_bounds @ int_lips) + ps * radius * sigma
        if hi0 <= lo0 + 0.45 * params.grid:
            return lo0
    if prof.covering < math.inf and qs >= 1:
        value = _dense_gap(src, dst, prof, radius, nu, params, stop_above)
        if value is not None:
            return value
    return _certified_sup(
        prof.dist, int_basis, int_lips, int_bounds,
        src.continuous_basis if ps else None, sigma,
        radius, params.grid, stop_above, params.cap, probes, prof.covering)


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
                   t_sequence: Sequence[float], delta: float,
                   tol: float = 1e-9) -> LimitReport:
    """Scale type of a one-parameter family at the end of a parameter
    sweep; raises Unstable if the type keeps changing over the final
    three samples."""
    ts = list(t_sequence)
    if len(ts) < 3:
        raise ValueError("need at least three parameter samples")
    groups = [family(t) for t in ts]
    traces = np.array([norms(g) for g in groups])
    types = [delta_type(g, delta, tol) for g in groups]
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
