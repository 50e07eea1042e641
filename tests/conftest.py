"""Shared helpers: independent brute-force oracles and case generators."""
from __future__ import annotations

import heapq
import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import chabauty as ch
from chabauty.errors import EnumerationBudgetExceeded

# every property test: no deadline, and the same examples on every run
settings.register_profile("tier1", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("tier1")


def brute_points_in_ball(basis, radius):
    """Independent enumeration oracle: integer box from the dual basis,
    exhaustive filter.  Coefficient i of a point x is <x, d_i>, d_i the
    i-th dual basis vector, so |c_i| <= radius |d_i|."""
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    q, n = basis.shape
    if q == 0:
        return np.zeros((1, n))
    dual = np.linalg.pinv(basis)
    ks = np.floor(radius * np.linalg.norm(dual, axis=0) + 1e-9).astype(int)
    axes = [np.arange(-k, k + 1) for k in ks + 1]
    mesh = np.meshgrid(*axes, indexing="ij")
    coeffs = np.stack([m.reshape(-1) for m in mesh], axis=1)
    pts = coeffs @ basis
    keep = np.linalg.norm(pts, axis=1) <= radius * (1 + 1e-12)
    return pts[keep]


def brute_closest(basis, targets):
    """Independent closest-vector oracle: the distance from each target
    to the lattice, by exhaustive search of an integer box.  With tau
    the real coordinates of the target's projection t_s and d the
    distance from t_s to the rounded point, the closest point v obeys
    |v - t_s| <= d, so its coefficients lie within d / (smallest
    singular value) of tau."""
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    smin = np.linalg.svd(basis, compute_uv=False)[-1]
    out = []
    for t in targets:
        tau = np.linalg.lstsq(basis.T, t, rcond=None)[0]
        k = np.linalg.norm((np.round(tau) - tau) @ basis) / smin + 1e-9
        axes = [np.arange(np.ceil(x - k), np.floor(x + k) + 1) for x in tau]
        mesh = np.meshgrid(*axes, indexing="ij")
        coeffs = np.stack([m.reshape(-1) for m in mesh], axis=1)
        out.append(np.linalg.norm(coeffs @ basis - t, axis=1).min())
    return np.array(out)


def brute_covering_radius(basis, steps):
    """Oracle for the covering radius, from below: the largest
    ``brute_closest`` distance over the grid of ``steps`` points per
    axis of the fundamental parallelepiped.  Every point of the
    parallelepiped lies within half a grid cell's diameter (its longest
    diagonal) of the grid, which bounds the covering radius from above.
    Returns ``(oracle, half_diameter)``."""
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    q = basis.shape[0]
    mesh = np.meshgrid(*[np.arange(steps) / steps] * q, indexing="ij")
    coeffs = np.stack([m.reshape(-1) for m in mesh], axis=1)
    signs = 2 * ((np.arange(2 ** q)[:, None] >> np.arange(q)) & 1) - 1
    diag = np.linalg.norm(signs @ basis, axis=1).max() / steps
    return float(brute_closest(basis, coeffs @ basis).max()), 0.5 * diag


def brute_gap(src, dst, radius):
    """Oracle for the directed gap between two discrete subgroups, given
    by their bases: the largest distance from a point of ``src`` in the
    radius ball to the lattice of ``dst``."""
    return float(brute_closest(dst, brute_points_in_ball(src, radius)).max())


def brute_gap_to(src_basis, dst, radius):
    """Oracle for the directed gap from a lattice, given by its basis,
    to any subgroup ``dst``: the largest distance from a point of the
    lattice in the radius ball to ``dst``, measured by projecting off
    ``dst.continuous_basis`` and searching its lattice part."""
    pts = brute_points_in_ball(src_basis, radius)
    return float(brute_distance_to(dst, pts).max())


def brute_distance_to(dst, pts):
    """Distances from the rows of ``pts`` to the subgroup ``dst``:
    project off ``dst.continuous_basis``, then search its lattice part."""
    cont = dst.continuous_basis
    pts = pts - (pts @ cont.T) @ cont
    if dst.discrete_rank == 0:
        return np.linalg.norm(pts, axis=1)
    return brute_closest(dst.discrete_basis, pts)


def brute_gap_mesh(src, dst, radius, h):
    """Oracle for the directed gap from any subgroup ``src`` to any
    ``dst``, from below: the largest distance to ``dst`` over the lattice
    points l of ``src`` in the ball, each with a mesh of step h along the
    p continuous directions of ``src``.  The lattice part is orthogonal
    to those directions, so the trace over l is a p-ball of radius
    sqrt(R^2 - |l|^2) around l; mesh points outside it are pulled
    radially onto it.  That pull moves no two points apart, so every
    point of the trace lies within h sqrt(p) / 2 of a mesh point, and
    the oracle lies at most that far below the true gap."""
    lattice = brute_points_in_ball(src.discrete_basis, radius)
    cont = src.continuous_basis
    p = cont.shape[0]
    k = int(np.ceil(radius / h)) + 1
    mesh = np.meshgrid(*[h * np.arange(-k, k + 1)] * p, indexing="ij")
    steps = np.stack([m.reshape(-1) for m in mesh], axis=1) if p \
        else np.zeros((1, 0))
    size = np.linalg.norm(steps, axis=1)
    pts = []
    for x in lattice:
        rho = np.sqrt(max(radius * radius - x @ x, 0.0))
        # only these can be the nearest mesh point of a point of the trace
        near = size <= rho + h * np.sqrt(p) / 2
        pull = np.minimum(1.0, rho / np.maximum(size[near], 1e-300))
        pts.append(x + (steps[near] * pull[:, None]) @ cont)
    return float(brute_distance_to(dst, np.vstack(pts)).max())


def reference_certified_sup(f_batch, int_basis, int_lips, int_bounds,
                            cont_rows, cont_lip, ball_radius, grid,
                            stop_above, budget, lo, ub_cap):
    """The branch and bound of ``metric._certified_sup`` as it stood
    before the table of open cells replaced it: tuple cells on a heap
    keyed on (-ub, push counter), integer and continuous bounds kept
    apart, one Python loop over each batch.  The module must explore
    the same cells in the same order and return the same value.

    Changed from that version, as in the module: the incumbent starts
    at ``lo`` instead of the best of a set of probe points, and the cell
    centres count towards the incumbent only inside the ball,
    |x| <= R(1 + 1e-12), a centre slides towards the origin
    whenever it lies outside it, and a cell's reach bound is capped at
    that radius instead of 0.45 grid beyond it.  The old code admitted
    points up to 0.45 grid outside, where a lattice point can raise the
    gap.  The budget error counts as open only the cells that can still
    beat the incumbent by more than the grid, not every cell left on
    the heap."""
    qi = 0 if int_basis is None else int_basis.shape[0]
    pc = 0 if cont_rows is None else cont_rows.shape[0]
    cont_vlips = np.full(pc, cont_lip)
    dim = int_basis.shape[1] if qi else cont_rows.shape[1]
    grid_eff = 0.45 * grid
    inside = ball_radius * (1 + 1e-12)
    fuzz = ball_radius * (1 + 1e-12) + grid_eff
    int_rows_norm = (np.linalg.norm(int_basis, axis=1)
                     if qi else np.zeros(0))
    cont_rows_norm = (np.linalg.norm(cont_rows, axis=1)
                      if pc else np.zeros(0))
    evals = 0

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
                if np.linalg.norm(x + v @ cont_rows) > inside:
                    v = np.clip(-(x @ cont_rows.T), vlo, vhi)
                x = x + v @ cont_rows
            xs[i] = x
        vals = f_batch(xs)
        evals += len(batch)
        if evals > budget:
            # cells the heap still holds that could beat the incumbent
            open_left = sum(-c[0] > lo + grid_eff for c in heap)
            raise EnumerationBudgetExceeded(
                f"distance evaluation budget exhausted: {evals} evaluations "
                f"over the cap of {budget} (MetricParams.cap), "
                f"{open_left + len(batch)} open cells left, incumbent "
                f"{lo:.6g}, best open bound {top_ub:.6g}")
        sizes = np.linalg.norm(xs, axis=1)
        lo = float(np.max(vals[sizes <= inside], initial=lo))
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
            reach_cap = min(sizes[i] + spatial, inside)
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


def reference_canonical_rows(basis):
    """The sign rule of ``_lattice.canonical_rows`` as a loop over rows
    and coordinates: the first coordinate above 1e-9 times the row's
    norm is made positive."""
    b = np.array(basis, dtype=float)
    for row in b:
        coords = row.tolist()
        size = math.hypot(*coords)
        for x in coords:
            if abs(x) > 1e-9 * size:
                if x < 0:
                    row *= -1.0
                break
    return b


def brute_norms(group):
    """Oracle for the successive norms: full sorted enumeration up to
    one past the largest finite norm, rank via singular values of the
    prefix sets."""
    n = group.ambient_dim
    p = group.continuous_dim
    q = group.discrete_rank
    out = np.full(n, np.inf)
    out[:p] = 0.0
    if q == 0:
        return out
    reach = float(np.linalg.norm(group.discrete_basis, axis=1).max()) + 1.0
    pts = brute_points_in_ball(group.discrete_basis, reach)
    sizes = np.linalg.norm(pts, axis=1)
    pts = pts[sizes > 1e-12]
    sizes = sizes[sizes > 1e-12]
    order = np.argsort(sizes)
    pts, sizes = pts[order], sizes[order]
    distinct = np.unique(np.round(sizes, 9))
    rank_prev = 0
    found = 0
    for r in distinct:
        sel = pts[sizes <= r + 1e-9]
        rank = np.linalg.matrix_rank(sel, tol=1e-9)
        for _ in range(rank - rank_prev):
            out[p + found] = r
            found += 1
        rank_prev = rank
        if found == q:
            break
    return out


def contains(big, small, tol=1e-9):
    """Does ``big`` contain every generator of ``small``?"""
    return in_group(big, np.vstack([small.continuous_basis,
                                    small.discrete_basis]), tol)


def in_group(group, pts, tol=1e-9):
    """Is every row of ``pts`` a point of ``group``?  Off its continuous
    part, each must have integer coordinates in its lattice basis."""
    cont, disc = group.continuous_basis, group.discrete_basis
    resid = pts - (pts @ cont.T) @ cont
    if disc.shape[0]:
        coords = np.linalg.lstsq(disc.T, resid.T, rcond=None)[0].T
        resid = resid - np.round(coords) @ disc
    return bool(np.all(np.linalg.norm(resid, axis=1) <= tol))


def same_group(a, b):
    return a.group_type == b.group_type and contains(a, b) and contains(b, a)


def random_type(rng, n):
    p = int(rng.integers(0, n + 1))
    q = int(rng.integers(0, n - p + 1))
    return p, q


def random_group(rng, n, group_type=None):
    if group_type is None:
        group_type = random_type(rng, n)
    return ch.random_subgroup(n, group_type,
                              seed=int(rng.integers(0, 2 ** 63)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@st.composite
def groups(draw, max_n=4):
    """A ``random_subgroup`` of a drawn type in dimension 1..max_n."""
    n = draw(st.integers(1, max_n))
    group_type = draw(st.sampled_from(ch.all_types(n)))
    return ch.random_subgroup(n, group_type,
                              seed=draw(st.integers(0, 2 ** 32 - 1)))
