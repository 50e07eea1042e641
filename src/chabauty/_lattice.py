"""Low-level lattice numerics: orthonormalization, LLL reduction, exact
ball enumeration and closest-vector queries.

Bases are stored as row vectors.  All reductions act by integer row
operations only, so the generated lattice is preserved exactly up to
floating point error in the vector entries themselves.

Ball enumeration and closest-vector queries share one lattice-point
search, ``_fincke_pohst`` (Fincke & Pohst, Math. Comp. 1985), run
breadth-first so that numpy treats every node of a level at once.  Its
one budget is the number of nodes a level may hold for one target.
"""
from __future__ import annotations

import numpy as np

from .errors import EnumerationBudgetExceeded

_EPS = 1e-12


def orthonormalize(rows, tol: float = 1e-9) -> np.ndarray:
    """Gram-Schmidt with rank detection.

    Keeps the order of the input rows, so an already orthonormal family
    is returned essentially unchanged.  Rows that are dependent on the
    previous ones (residual below ``tol`` relative to the row size) are
    dropped.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size == 0:
        return rows.reshape(0, rows.shape[1] if rows.ndim == 2 else 0)
    out = []
    for v in rows:
        r = v.copy()
        for u in out:
            r -= (r @ u) * u
        # second pass for numerical orthogonality
        for u in out:
            r -= (r @ u) * u
        nr = np.linalg.norm(r)
        if nr > tol * max(1.0, np.linalg.norm(v)):
            out.append(r / nr)
    if not out:
        return np.zeros((0, rows.shape[1]))
    return np.array(out)


def orthonormal_complement(rows, n: int, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the row span."""
    rows = np.asarray(rows, dtype=float).reshape(-1, n)
    if rows.shape[0] == 0:
        return np.eye(n)
    u, s, vt = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return vt[rank:]


def dual_coefficient_norms(basis: np.ndarray) -> np.ndarray:
    """Norms of the dual basis vectors.

    For any lattice point x = c @ basis, coordinate i obeys
    |c_i| <= |x| * dual_coefficient_norms(basis)[i], which bounds
    enumeration boxes.
    """
    return np.sqrt(np.diag(np.linalg.inv(basis @ basis.T)))


def _gso(basis: np.ndarray):
    """Gram-Schmidt orthogonalization (not normalized): returns (bstar, mu)."""
    k, n = basis.shape
    bstar = np.zeros((k, n))
    mu = np.zeros((k, k))
    for i in range(k):
        v = basis[i].copy()
        for j in range(i):
            denom = bstar[j] @ bstar[j]
            mu[i, j] = (basis[i] @ bstar[j]) / denom if denom > 0 else 0.0
            v -= mu[i, j] * bstar[j]
        bstar[i] = v
    return bstar, mu


def lll_reduce(basis, delta: float = 0.75) -> np.ndarray:
    """Lenstra-Lenstra-Lovasz reduction of an independent row basis.

    Only integer row operations are applied; the lattice is unchanged.
    """
    b = np.array(basis, dtype=float)
    k = b.shape[0]
    if k <= 1:
        return b
    bstar, mu = _gso(b)
    i = 1
    guard = 0
    max_iter = 1000 * k * k + 1000
    while i < k:
        guard += 1
        if guard > max_iter:  # float stagnation safety
            break
        for j in range(i - 1, -1, -1):
            m = np.round(mu[i, j])
            if m != 0:
                b[i] -= m * b[j]
                bstar, mu = _gso(b)
        lhs = bstar[i] @ bstar[i]
        rhs = (delta - mu[i, i - 1] ** 2) * (bstar[i - 1] @ bstar[i - 1])
        if lhs >= rhs - _EPS * (1.0 + lhs):
            i += 1
        else:
            b[[i - 1, i]] = b[[i, i - 1]]
            bstar, mu = _gso(b)
            i = max(i - 1, 1)
    return b


def canonical_rows(basis, tol: float = 1e-9) -> np.ndarray:
    """Sign-normalized representative of a reduced basis: the first
    coordinate larger than ``tol`` in absolute value is made positive.

    Only signs are touched.  Reordering rows of an LLL-reduced basis
    can break the reduction (the exchange condition constrains
    consecutive rows, not norms), which would make canonicalization
    non-idempotent; sign flips preserve it.
    """
    b = np.array(basis, dtype=float)
    for row in b:
        for x in row:
            if abs(x) > tol:
                if x < 0:
                    row *= -1.0
                break
    return b


def reduce_basis(basis, tol: float = 1e-9) -> np.ndarray:
    """LLL reduction followed by the canonical sign normalization."""
    b = np.asarray(basis, dtype=float)
    if b.shape[0] == 0:
        return b
    return canonical_rows(lll_reduce(b), tol)


def basis_from_generators(gens, zero_tol: float):
    """Basis of the lattice generated by possibly dependent real vectors.

    Returns ``(basis, coeffs, relations)`` where ``basis = coeffs @ gens``
    with integer ``coeffs`` and every row of ``relations`` is an integer
    combination of the generators that vanishes within ``zero_tol``.
    Integer row operations only, so the generated group is preserved.
    """
    g = np.atleast_2d(np.asarray(gens, dtype=float))
    m = g.shape[0]
    if m == 0 or g.size == 0:
        return (np.zeros((0, g.shape[1] if g.ndim == 2 else 0)),
                np.zeros((0, m), dtype=np.int64),
                np.zeros((0, m), dtype=np.int64))
    order = np.argsort(np.linalg.norm(g, axis=1))
    basis: list[np.ndarray] = []
    coeffs: list[np.ndarray] = []
    relations: list[np.ndarray] = []
    for idx in order:
        v = g[idx].copy()
        c = np.zeros(m, dtype=np.int64)
        c[idx] = 1
        changed = True
        rounds = 0
        while changed and rounds < 200:
            changed = False
            rounds += 1
            for b, cb in zip(basis, coeffs):
                denom = b @ b
                if denom <= zero_tol ** 2:
                    continue
                mval = np.round((v @ b) / denom)
                if mval != 0:
                    v -= mval * b
                    c -= np.int64(mval) * cb
                    changed = True
        if np.linalg.norm(v) <= zero_tol:
            relations.append(c)
            continue
        basis.append(v)
        coeffs.append(c)
        # settle: newly inserted short vector may reduce earlier rows
        settled = False
        passes = 0
        while not settled and passes < 50:
            settled = True
            passes += 1
            basis_order = np.argsort([b @ b for b in basis])
            basis = [basis[i] for i in basis_order]
            coeffs = [coeffs[i] for i in basis_order]
            for i in range(len(basis)):
                for j in range(len(basis)):
                    if i == j:
                        continue
                    denom = basis[j] @ basis[j]
                    if denom <= zero_tol ** 2:
                        continue
                    mval = np.round((basis[i] @ basis[j]) / denom)
                    if mval != 0:
                        basis[i] = basis[i] - mval * basis[j]
                        coeffs[i] = coeffs[i] - np.int64(mval) * coeffs[j]
                        settled = False
            keep_b, keep_c = [], []
            for b, cb in zip(basis, coeffs):
                if np.linalg.norm(b) <= zero_tol:
                    relations.append(cb)
                    settled = False
                else:
                    keep_b.append(b)
                    keep_c.append(cb)
            basis, coeffs = keep_b, keep_c
    if basis:
        stack = np.array(basis)
        sv = np.linalg.svd(stack, compute_uv=False)
        if sv[-1] <= zero_tol * max(1.0, sv[0]):
            raise EnumerationBudgetExceeded(
                "could not separate dependent generators numerically")
    bmat = np.array(basis) if basis else np.zeros((0, g.shape[1]))
    cmat = (np.array(coeffs, dtype=np.int64) if coeffs
            else np.zeros((0, m), dtype=np.int64))
    rmat = (np.array(relations, dtype=np.int64) if relations
            else np.zeros((0, m), dtype=np.int64))
    return bmat, cmat, rmat


def _fincke_pohst(mu, bstar_sq, centres, bound2, cap=1_000_000):
    """Breadth-first Fincke-Pohst search in Gram-Schmidt coordinates.

    Row t of ``centres`` is a target in Gram-Schmidt coordinates and
    ``bound2[t]`` its squared search radius.  Returns ``(owner, coeffs)``
    with one row per integer vector c whose lattice point lies within
    that radius of target ``owner``; the squared radius gets a relative
    1e-9 margin so that rounding loses no point on the sphere.  Level j
    fixes c_j of every node at once, from the last basis vector down.
    A node keeps the squared radius left after the distance along
    b*_j..b*_{q-1}, which no later choice changes, so pruning loses no
    point.  Raises EnumerationBudgetExceeded when a level would hold
    more than ``cap`` nodes for one target.
    """
    m, q = centres.shape
    owner = np.arange(m)
    coeffs = np.zeros((m, q), dtype=np.int64)
    ctr = np.array(centres, dtype=float)
    rest = np.asarray(bound2, dtype=float) * (1.0 + 1e-9)
    for j in range(q - 1, -1, -1):
        w = np.sqrt(np.maximum(rest, 0.0) / bstar_sq[j])
        lo = np.ceil(ctr[:, j] - w)
        k = np.floor(ctr[:, j] + w) - lo + 1  # >= 0 because w >= 0
        if k.sum() > cap:
            worst = np.bincount(owner, weights=k).max()
            if worst > cap:
                raise EnumerationBudgetExceeded(
                    f"lattice search needs {worst:.0f} nodes on one level, "
                    f"over the cap of {cap}")
        k = k.astype(np.int64)
        idx = np.repeat(np.arange(k.size), k)
        c = np.arange(idx.size) - np.repeat(np.cumsum(k) - k - lo, k)
        ctr = ctr[idx]
        d = c - ctr[:, j]
        rest = rest[idx] - d * d * bstar_sq[j]
        ctr = ctr[:, :j] - c[:, None] * mu[j, :j]
        coeffs = coeffs[idx]
        coeffs[:, j] = c
        owner = owner[idx]
    return owner, coeffs


def enumerate_ball(basis: np.ndarray, radius: float, cap: int = 1_000_000):
    """All lattice points of squared norm <= radius^2 (tiny slack included).

    Returns ``(points, coeffs)`` sorted by (norm, lexicographic); the
    origin is always included.  The points come from the Fincke-Pohst
    search centred at the origin, which raises EnumerationBudgetExceeded
    when one of its levels would hold more than ``cap`` nodes.
    """
    basis = np.asarray(basis, dtype=float)
    q = basis.shape[0]
    n = basis.shape[1] if basis.ndim == 2 else 0
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if q == 0:
        return np.zeros((1, n)), np.zeros((1, 0), dtype=np.int64)
    rcut = radius * (1.0 + 1e-12) + 1e-12
    rcut2 = rcut * rcut
    bstar, mu = _gso(basis)
    _, cs = _fincke_pohst(mu, np.einsum("ij,ij->i", bstar, bstar),
                          np.zeros((1, q)), np.array([rcut2]), cap)
    pts = cs @ basis
    keep = np.einsum("ij,ij->i", pts, pts) <= rcut2
    pts, cs = pts[keep], cs[keep]
    norms = np.linalg.norm(pts, axis=1)
    keys = [np.round(pts[:, j], 9) for j in range(n - 1, -1, -1)]
    keys.append(np.round(norms, 9))
    order = np.lexsort(keys)
    return pts[order], cs[order]


class LatticeSolver:
    """Exact batched closest-vector queries against a fixed lattice.

    The basis is LLL-reduced once.  A query keeps the nearest-plane
    (Babai) point when its in-span residual is below half the shortest
    Gram-Schmidt norm, hence below half the shortest lattice vector, so
    that no other point is as close; other targets run the Fincke-Pohst
    search within their nearest-plane distance.
    """

    def __init__(self, basis):
        b = np.atleast_2d(np.asarray(basis, dtype=float))
        self.rank = b.shape[0]
        self.dim = b.shape[1]
        if self.rank == 0:
            self.basis = b.reshape(0, self.dim)
            self.covering_bound = 0.0
            return
        self.basis = lll_reduce(b)
        self._bstar, self._mu = _gso(self.basis)
        # nearest-plane output is within this distance of the target
        self.covering_bound = 0.5 * float(
            np.sqrt(np.sum(np.linalg.norm(self._bstar, axis=1) ** 2)))
        self._bstar_sq = np.einsum("ij,ij->i", self._bstar, self._bstar)

    def nearest_plane(self, targets: np.ndarray) -> np.ndarray:
        """Babai nearest-plane coefficients, vectorized over rows."""
        y = np.atleast_2d(np.asarray(targets, dtype=float)).copy()
        m = y.shape[0]
        coeffs = np.zeros((m, self.rank), dtype=np.int64)
        for i in range(self.rank - 1, -1, -1):
            c = np.round((y @ self._bstar[i]) / self._bstar_sq[i])
            coeffs[:, i] = c.astype(np.int64)
            y -= np.outer(c, self.basis[i])
        return coeffs

    def closest(self, targets: np.ndarray):
        """Exact closest vectors: returns (distances, coefficients)."""
        y = np.atleast_2d(np.asarray(targets, dtype=float))
        if self.rank == 0:
            return np.linalg.norm(y, axis=1), np.zeros((y.shape[0], 0),
                                                       dtype=np.int64)
        coeffs = self.nearest_plane(y)
        diff = coeffs @ self.basis - y
        d2 = np.einsum("ij,ij->i", diff, diff)
        gs = (diff @ self._bstar.T) / self._bstar_sq
        resid2 = (gs * gs) @ self._bstar_sq
        todo = np.flatnonzero(resid2 >= 0.25 * self._bstar_sq.min())
        if todo.size:
            centres = (y[todo] @ self._bstar.T) / self._bstar_sq
            owner, cand = _fincke_pohst(self._mu, self._bstar_sq, centres,
                                        resid2[todo])
            cdiff = cand @ self.basis - y[todo[owner]]
            cd2 = np.einsum("ij,ij->i", cdiff, cdiff)
            order = np.lexsort((cd2, owner))
            grp = owner[order]
            first = order[np.concatenate(([True], grp[1:] != grp[:-1]))]
            rows = todo[owner[first]]
            d2[rows] = cd2[first]
            coeffs[rows] = cand[first]
        return np.sqrt(d2), coeffs
