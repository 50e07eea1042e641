"""Shared helpers: independent brute-force oracles and case generators."""
from __future__ import annotations

import numpy as np
import pytest

import chabauty as ch


def brute_points_in_ball(basis, radius):
    """Independent enumeration oracle: integer box from the smallest
    singular value, exhaustive filter."""
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    q, n = basis.shape
    if q == 0:
        return np.zeros((1, n))
    smin = np.linalg.svd(basis, compute_uv=False)[-1]
    k = int(np.floor(radius / smin + 1e-9)) + 1
    axes = [np.arange(-k, k + 1)] * q
    mesh = np.meshgrid(*axes, indexing="ij")
    coeffs = np.stack([m.reshape(-1) for m in mesh], axis=1)
    pts = coeffs @ basis
    keep = np.linalg.norm(pts, axis=1) <= radius * (1 + 1e-12) + 1e-12
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


def brute_gap(src, dst, radius):
    """Oracle for the directed gap between two discrete subgroups, given
    by their bases: the largest distance from a point of ``src`` in the
    radius ball to the lattice of ``dst``."""
    return float(brute_closest(dst, brute_points_in_ball(src, radius)).max())


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
