"""Low-level lattice numerics: orthonormalization, LLL reduction, exact
ball enumeration, closest-vector queries, the shortest vectors of the
classes of L/2L and covering radii.

Bases are stored as row vectors.  All reductions act by integer row
operations only, so the generated lattice is preserved exactly up to
floating point error in the vector entries themselves.  Every rank
decision of the package follows one rule without units, ``negligible``.

One LLL loop, ``_lll``, reduces independent bases (``lll_reduce``) and,
run on generators augmented by their integer coefficients, dependent
generators (``basis_from_generators``), whose integer relations come out
as rows of the reduced coefficients.  It has no iteration guard: a
numeric failure raises EnumerationBudgetExceeded with its numbers.  Its
output is a fixed point, which ``LatticeSolver`` takes as given.

A ``LatticeSolver`` holds the Gram-Schmidt data of one basis and every
query on it: nearest plane (Babai, Combinatorica 6, 1986), the points
of a ball in search order (``ball``, for a maximum or a minimum over
them), closest vectors, and the shortest vector of each class of L/2L
in one batched query (``class_vectors``, read by the successive norms
and the Voronoi cell).  Balls and closest vectors share one
lattice-point search, ``_fincke_pohst`` (Fincke & Pohst, Math. Comp.
1985), breadth-first so that numpy treats every node of a level at
once; its one budget is the number of nodes a level may hold, summed
over the targets of one call: ``NODE_CAP``, which a ball may lower.
``enumerate_ball`` sorts a ball's points by ``_ball_order``, (norm,
lexicographic): the order ``points_in_ball`` promises and the successive
norms break ties by.

The empty lattice is ordinary input, answered here and nowhere else: at
rank 0 ``closest`` returns the targets' norms and zero-width
coefficients, and ``successive_norms`` no norms; on empty generators
(none, or all of width 0) ``basis_from_generators`` returns no basis
rows and makes every generator a relation.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import EnumerationBudgetExceeded

RANK_TOL = 1e-9  # relative size below which a row counts as dependent
BALL = 1.0 + 1e-12  # |x| <= R * BALL: the ball of radius R, scale-free
_EPS = 1e-12
_DELTA = 0.75
_TIE = 0.5 + 1e-9  # |mu| up to which a row counts as size-reduced
_EXACT = 2.0 ** 52
_NOISE = 64 * np.finfo(float).eps  # coefficient weight per generator norm
NODE_CAP = 1_000_000  # nodes on one level of a lattice search, by default
_WALK_BUDGET = 2_000_000  # ratio tests on one level of the Voronoi walk
_JITTER_SEED = 20240817  # fixes the perturbation of that walk


def negligible(size, ref):
    """The one rank rule: a residual, coordinate or singular value
    ``size`` counts as zero when it is at most ``RANK_TOL`` times
    ``ref``, the size of the row or matrix it came from.  It has no
    units, so every rank decision commutes with scaling."""
    return size <= RANK_TOL * ref


def _rank(sv) -> int:
    """How many of the singular values ``sv``, largest first, are not
    ``negligible`` next to the largest."""
    sv = sv.tolist()
    return sum(not negligible(x, sv[0]) for x in sv)


def rank(matrix) -> int:
    """Numerical rank of a matrix, 0 when it is empty."""
    return _rank(np.linalg.svd(matrix, compute_uv=False))


def orthonormalize(rows) -> np.ndarray:
    """Gram-Schmidt with rank detection.

    Keeps the order of the input rows, so an already orthonormal family
    is returned essentially unchanged.  Rows whose residual against the
    previous ones is ``negligible`` next to the row are dropped.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    out = []
    for v in rows:
        r = v.copy()
        for u in out:
            r -= (r @ u) * u
        # second pass for numerical orthogonality
        for u in out:
            r -= (r @ u) * u
        nr = np.linalg.norm(r)
        if not negligible(nr, np.linalg.norm(v)):
            out.append(r / nr)
    if not out:
        return np.zeros((0, rows.shape[1]))
    return np.array(out)


def orthonormal_complement(rows) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the row span of
    a (k, n) array."""
    _, sv, vt = np.linalg.svd(rows, full_matrices=True)
    return vt[_rank(sv):]


def dual_coefficient_norms(basis: np.ndarray) -> np.ndarray:
    """Norms of the dual basis vectors.

    For any lattice point x = c @ basis, coordinate i obeys
    |c_i| <= |x| * dual_coefficient_norms(basis)[i], which bounds
    enumeration boxes.
    """
    return np.sqrt(np.diag(np.linalg.inv(basis @ basis.T)))


def _gso_row(basis, bstar, bsq, mu, i):
    """Fill row i of ``bstar``, ``bsq`` (squared norms of ``bstar``) and
    ``mu`` from rows 0..i-1 of ``bstar`` and ``bsq``."""
    v = basis[i].copy()
    for j in range(i):
        denom = bsq[j]
        c = (basis[i] @ bstar[j]) / denom if denom > 0 else 0.0
        mu[i, j] = c
        v -= c * bstar[j]
    bstar[i] = v
    bsq[i] = v @ v


def _lll(rows, dim: int) -> np.ndarray:
    """LLL reduction of independent rows, measured by their first ``dim``
    columns; the columns past ``dim`` ride along and hold integers.  Row i's
    Gram-Schmidt data are recomputed whenever rows 0..i change, as the loop
    reads no row past i.  Size reduction leaves |mu| <= ``_TIE`` alone, so
    the output is a fixed point.  Raises EnumerationBudgetExceeded when a
    multiplier or a carried integer reaches 2^52."""
    b = np.array(rows, dtype=float)
    k = b.shape[0]
    if k <= 1:
        return b
    v = b[:, :dim]
    carried = b[:, dim:]
    bstar = np.zeros(v.shape)
    bsq = np.zeros(k)
    mu = np.zeros((k, k))
    i = 0
    while i < k:
        _gso_row(v, bstar, bsq, mu, i)
        for j in range(i - 1, -1, -1):
            if abs(mu[i, j]) > _TIE:
                m = mu[i, j].round()
                b[i] -= m * b[j]
                top = abs(m)
                if carried.size:
                    top = max(top, np.abs(carried[i]).max())
                if not top < _EXACT:
                    raise EnumerationBudgetExceeded(
                        f"size reduction meets the integer {top:.6g}; "
                        "floats hold integers exactly below 2^52")
                _gso_row(v, bstar, bsq, mu, i)
        lhs = bsq[i]
        rhs = ((_DELTA - mu[i, i - 1] ** 2) * bsq[i - 1]
               - _EPS * (lhs + bsq[i - 1]))
        if i == 0 or lhs >= rhs:
            i += 1
        elif lhs < rhs:
            b[[i - 1, i]] = b[[i, i - 1]]
            _gso_row(v, bstar, bsq, mu, i - 1)
            i = max(i - 1, 1)
        else:
            raise EnumerationBudgetExceeded(
                f"the Lovasz test compares {lhs:.6g} with {rhs:.6g}: the "
                "rows are not finite")
    return b


def lll_reduce(basis) -> np.ndarray:
    """Lenstra-Lenstra-Lovasz reduction of an independent row basis.

    Only integer row operations are applied; the lattice is unchanged.
    """
    b = np.asarray(basis, dtype=float)
    return _lll(b, b.shape[-1])


def canonical_rows(basis) -> np.ndarray:
    """Sign-normalized representative of a reduced basis: in each row,
    the first coordinate that is not ``negligible`` next to the row is
    made positive; a zero row, led by its +-0, is kept.

    Only signs are touched.  Reordering rows of an LLL-reduced basis
    can break the reduction (the exchange condition constrains
    consecutive rows, not norms), which would make canonicalization
    non-idempotent; sign flips preserve it.
    """
    b = np.array(basis, dtype=float)
    small = negligible(np.abs(b), np.hypot.reduce(b, axis=1)[:, None])
    lead = b[np.arange(b.shape[0]), small.argmin(axis=1)]
    return np.negative(b, out=b, where=(lead < 0)[:, None])


def basis_from_generators(gens, zero_tol: float):
    """Basis of the lattice generated by possibly dependent real vectors.

    Returns ``(basis, coeffs, relations)``: ``basis = coeffs @ gens`` is
    LLL-reduced, the rows of ``relations`` are integer combinations of
    the generators within ``zero_tol`` of zero, and ``[coeffs;
    relations]`` is unimodular.  The generators g_i become the
    independent rows (g_i / w, e_i), on which the LLL loop keeps vectors
    and coefficients short together (Havas, Majewski and Matthews,
    Experiment. Math. 7, 1998); w is a power of two at most ``zero_tol``
    and 64 times the rounding error of a sum of the generators.  The
    relations found are reduced among themselves, the other rows against
    them, and a second pass reduces the lattice vectors.  Raises
    ValueError unless ``zero_tol`` is positive, and
    EnumerationBudgetExceeded when the basis rows left are numerically
    dependent (a dense subgroup), when a row misses its combination or
    zero by more than ``zero_tol``, or when a pass fails numerically.
    """
    if not zero_tol > 0:
        raise ValueError("zero_tol must be positive")
    g = np.atleast_2d(np.asarray(gens, dtype=float))
    m, n = g.shape
    if not g.size:  # no generators, or all of them relations in R^0
        return (np.zeros((0, n)), np.zeros((0, m), np.int64),
                np.eye(m, dtype=np.int64))
    sq = np.einsum("ij,ij->i", g, g)
    w = min(zero_tol, _NOISE * float(np.sqrt(sq.sum()))) or zero_tol
    w = 2.0 ** np.floor(np.log2(w))
    # a generator within zero_tol of zero is a relation on its own
    zero = sq <= zero_tol * zero_tol
    eye = np.eye(m)
    # the identity block is measured, so a carried copy keeps the
    # coefficients apart from it
    coef = _lll(np.hstack([g[~zero] / w, eye[~zero], eye[~zero]]),
                n + m)[:, n + m:]
    part = coef @ g
    rel = np.einsum("ij,ij->i", part, part) <= zero_tol * zero_tol
    relations = _lll(coef[rel], m)
    lifts = coef[~rel]
    # the relations' rounding error, times the long vector parts, skews
    # the first pass's multipliers: reduce the other coefficient rows
    # against the relations alone, by nearest plane, exactly on integers
    lifts -= LatticeSolver(relations).nearest_plane(lifts) @ relations
    second = _lll(np.hstack([lifts @ g / w, lifts]), n)
    basis = second[:, :n] * w
    coeffs = second[:, n:].astype(np.int64)
    relations = np.vstack([eye[zero], relations]).astype(np.int64)
    if basis.shape[0]:
        sv = np.linalg.svd(basis, compute_uv=False)
        if sv.size < basis.shape[0] or sv[-1] <= zero_tol * max(1.0, sv[0]):
            raise EnumerationBudgetExceeded(
                "could not separate dependent generators numerically: "
                f"{basis.shape[0]} basis rows in R^{basis.shape[1]} with "
                f"singular values {sv[0]:.3g} to {sv[-1]:.3g}, zero_tol "
                f"{zero_tol:.3g}")
    res = np.vstack([coeffs @ g - basis, relations @ g])
    miss = np.sqrt(np.einsum("ij,ij->i", res, res).max(initial=0.0))
    if miss > zero_tol:
        raise EnumerationBudgetExceeded(
            "integer combinations of the generators miss their rows by "
            f"{miss:.3g}, above zero_tol {zero_tol:.3g}")
    return basis, coeffs, relations


def _fincke_pohst(mu, bstar_sq, centres, bound2, cap):
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
    more than ``cap`` nodes, summed over all targets of the call.
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
        total = k.sum()
        if total > cap:
            raise EnumerationBudgetExceeded(
                f"lattice search needs {total:.0f} nodes on one level, "
                f"over the cap of {cap}")
        k = k.astype(np.int64)
        idx = np.repeat(np.arange(k.size), k)
        c = np.arange(idx.size) - np.repeat(np.cumsum(k) - k - lo, k)
        ctr = ctr.take(idx, axis=0)  # ctr[idx], in a faster copy
        d = c - ctr[:, j]
        rest = rest[idx] - d * d * bstar_sq[j]
        ctr = ctr[:, :j] - c[:, None] * mu[j, :j]
        coeffs = coeffs.take(idx, axis=0)
        coeffs[:, j] = c
        owner = owner[idx]
    return owner, coeffs


def _ball_keys(pts: np.ndarray, sizes: np.ndarray):
    """The rows ``pts`` and their norms ``sizes`` divided by the power of
    two at or below the largest norm, rounded to 9 digits: keys without
    units, the raw values rounded when the largest norm lies in [1, 2)."""
    unit = 2.0 ** (1 - math.frexp(max(sizes.tolist(), default=0.0))[1])
    return np.round(pts * unit, 9), np.round(sizes * unit, 9)


def _ball_order(keys: np.ndarray, size_keys: np.ndarray) -> np.ndarray:
    """Indices that sort points by norm, then lexicographically, on their
    ``_ball_keys``."""
    return np.lexsort([*keys.T[::-1], size_keys])


def enumerate_ball(basis: np.ndarray, radius: float, cap: int = NODE_CAP):
    """The points of ``LatticeSolver(basis).ball`` with their
    coefficients, in ``_ball_order``."""
    pts, cs = LatticeSolver(basis).ball(radius, cap)[:2]
    order = _ball_order(*_ball_keys(pts, np.linalg.norm(pts, axis=1)))
    return pts[order], cs[order]


def _voronoi_walk(normals, rhs):
    """Tight sets of the vertices of the simple bounded polytope
    {y : normals @ y <= rhs}, which holds 0 inside and whose rows 2c and
    2c + 1 are opposite under one right-hand side, by pivoting (Avis &
    Fukuda, Discrete Comput. Geom. 8, 1992) one level at a time and one
    vertex per pair v, -v, whose tight sets differ by k -> k ^ 1."""
    m2, q = normals.shape
    slack, free, start = rhs.copy(), np.eye(q), []
    for _ in range(q):  # a first vertex; each step keeps the rows met tight
        d = free[np.argmax(np.diag(free))]
        rate = normals @ d
        rate[start] = 0.0
        step = np.divide(slack, rate, where=rate > 0,
                         out=np.full(m2, np.inf))
        k = int(np.argmin(step))
        slack -= step[k] * rate
        start.append(k)
        r = free @ normals[k]
        free -= np.outer(r, r) / (r @ r)

    def canonical(tight):  # the one of v, -v whose least index is even
        tight = np.sort(tight, axis=1)
        return np.where(tight[:, :1] & 1, tight ^ 1, tight)

    frontier = canonical(np.array([start]))
    seen, kept, cols = {frontier[0].tobytes()}, [frontier], np.arange(q)
    while frontier.shape[0]:
        f = frontier.shape[0]
        if f * q * m2 > _WALK_BUDGET:
            raise EnumerationBudgetExceeded(
                f"Voronoi cell of a rank-{q} lattice: {2 * len(seen)} "
                f"vertices found, and a frontier of {2 * f} takes "
                f"{f * q * m2} ratio tests, over the budget of {_WALK_BUDGET}")
        try:  # column i of -inv leaves facet i and keeps the others tight
            inv = np.linalg.inv(normals[frontier])
        except np.linalg.LinAlgError:  # classes tied to within rounding
            bad = frontier[np.argmin(abs(np.linalg.det(normals[frontier])))]
            raise EnumerationBudgetExceeded(
                f"Voronoi cell of a rank-{q} lattice: the tight set "
                f"{bad.tolist()} of its {m2} halfspaces is singular, "
                f"a near-tie of its classes") from None
        cross = normals @ inv
        slack = rhs[:, None] - cross @ rhs[frontier][..., None]
        slack[np.arange(f)[:, None], frontier] = np.inf
        # minus the step to each row along each edge: the first met wins
        step = np.divide(slack, cross, where=cross < 0,
                         out=np.full(cross.shape, -np.inf))
        tight = np.repeat(frontier[:, None, :], q, axis=1)
        tight[:, cols, cols] = np.argmax(step, axis=1)
        fresh = {row.tobytes(): row for row in canonical(tight.reshape(-1, q))
                 if row.tobytes() not in seen}
        seen.update(fresh)
        frontier = np.array(list(fresh.values()), np.int64).reshape(-1, q)
        kept.append(frontier)
    reps = np.vstack(kept)
    return np.vstack([reps, reps ^ 1])


class LatticeSolver:
    """A fixed lattice basis, its Gram-Schmidt data, and the queries on
    them.  A lattice of rank 0 is the origin alone: ``closest`` returns
    the norms of the targets with (m, 0) coefficients, and
    ``successive_norms`` an empty array with (0, n) realizers, both in
    closed form; its ``ball`` holds the origin.

    The basis is taken as given; a reduced one, a canonical
    ``discrete_basis`` or one from ``basis_from_generators``, keeps the
    search small.  A query keeps the nearest-plane (Babai) point when its
    in-span residual is below half the shortest Gram-Schmidt norm, hence
    below half the shortest lattice vector, so that no other point is as
    close; other targets run the Fincke-Pohst search within their
    nearest-plane distance.
    """

    def __init__(self, basis):
        self.basis = np.array(basis, dtype=float, ndmin=2)
        self.rank = k = self.basis.shape[0]
        self._cover = self._classes = None
        self._bstar, self._mu = np.zeros(self.basis.shape), np.zeros((k, k))
        bsq = np.zeros(k)
        for i in range(k):
            _gso_row(self.basis, self._bstar, bsq, self._mu, i)
        # not bsq: its v @ v differs in the last bit, and results with it
        self._bstar_sq = np.einsum("ij,ij->i", self._bstar, self._bstar)

    def nearest_plane(self, targets: np.ndarray) -> np.ndarray:
        """Babai nearest-plane coefficients, vectorized over rows; raises
        EnumerationBudgetExceeded on a coefficient not below 2^52."""
        y = np.atleast_2d(np.asarray(targets, dtype=float)).copy()
        m = y.shape[0]
        coeffs = np.zeros((m, self.rank), dtype=np.int64)
        for i in range(self.rank - 1, -1, -1):
            c = np.round((y @ self._bstar[i]) / self._bstar_sq[i])
            top = abs(c).max(initial=0.0)
            if not top < _EXACT:
                raise EnumerationBudgetExceeded(
                    f"nearest plane meets a coefficient of size {top:.6g}; "
                    "floats hold integers exactly below 2^52")
            coeffs[:, i] = c.astype(np.int64)
            y -= np.outer(c, self.basis[i])
        return coeffs

    def ball(self, radius: float, cap: int = NODE_CAP):
        """``(points, coeffs, sq_norms)`` of the lattice points of norm
        at most ``radius * BALL``, the origin included, in search order:
        for a maximum or a minimum over them.  Raises
        EnumerationBudgetExceeded when one level of the search would hold
        more than ``cap`` nodes."""
        if not 0 <= radius < np.inf:
            raise ValueError("radius must be finite and nonnegative")
        rcut2 = np.square(radius * BALL)
        _, cs = _fincke_pohst(self._mu, self._bstar_sq,
                              np.zeros((1, self.rank)), np.array([rcut2]), cap)
        pts = cs @ self.basis
        sq = np.einsum("ij,ij->i", pts, pts)
        keep = sq <= rcut2
        return pts.compress(keep, axis=0), cs.compress(keep, axis=0), sq[keep]

    def closest(self, targets: np.ndarray):
        """Exact closest vectors: returns (distances, coefficients).
        Raises EnumerationBudgetExceeded when one level of the search
        would hold more than ``NODE_CAP`` nodes over all targets."""
        y = np.atleast_2d(np.asarray(targets, dtype=float))
        if not self.rank:  # the origin alone
            return np.linalg.norm(y, axis=1), np.zeros((len(y), 0), np.int64)
        coeffs = self.nearest_plane(y)
        diff = coeffs @ self.basis - y
        d2 = np.einsum("ij,ij->i", diff, diff)
        gs = (diff @ self._bstar.T) / self._bstar_sq
        resid2 = (gs * gs) @ self._bstar_sq
        shortest = self._bstar_sq.min()
        todo = np.flatnonzero(resid2 >= 0.25 * shortest)
        if todo.size:
            centres = (y.take(todo, axis=0) @ self._bstar.T) / self._bstar_sq
            owner, cand = _fincke_pohst(self._mu, self._bstar_sq, centres,
                                        resid2[todo], NODE_CAP)
            cdiff = cand @ self.basis - y.take(todo[owner], axis=0)
            cd2 = np.einsum("ij,ij->i", cdiff, cdiff)
            order = np.lexsort((cd2, owner))
            grp = owner[order]
            first = order[np.concatenate(([True], grp[1:] != grp[:-1]))]
            rows = todo[owner[first]]
            d2[rows] = cd2[first]
            coeffs[rows] = cand.take(first, axis=0)
        return np.sqrt(d2), coeffs

    def class_vectors(self) -> np.ndarray:
        """Integer coefficients in ``basis`` of the shortest vector of
        each nonzero class c of L/2L, one read-only row per class in
        binary order: c - 2 closest(c B / 2).  Those alone in their class
        up to sign are the Voronoi-relevant vectors (Conway & Sloane,
        SPLAG, ch. 2), and every successive norm is the norm of one of
        them.

        One batched ``closest`` finds them, with ``NODE_CAP`` nodes on
        a level over its 2^q - 1 targets; they are kept once found.  Over
        that budget, or at once when the targets alone outnumber the cap,
        raises EnumerationBudgetExceeded naming the rank and the cap.
        """
        if self._classes is None:
            q = self.rank
            count = 2 ** q - 1
            try:
                if count > NODE_CAP:
                    raise EnumerationBudgetExceeded(
                        f"{count} targets, over the cap of {NODE_CAP}")
                classes = (np.arange(1, 2 ** q)[:, None] >> np.arange(q)) & 1
                near = self.closest(0.5 * classes @ self.basis)[1]
            except EnumerationBudgetExceeded as exc:
                raise EnumerationBudgetExceeded(
                    f"shortest vectors of the {count} classes of L/2L at "
                    f"rank {q}: {exc}") from None
            rel = classes - 2 * near
            rel.setflags(write=False)
            self._classes = rel
        return self._classes

    def successive_norms(self):
        """The finite successive norms and their realizers (rows), from
        the ``class_vectors`` signed to be the lexicographically smaller
        of +-v on their ``_ball_keys`` and taken in ``_ball_order``.
        Each step accepts the first vector whose residual against the
        accepted directions is not ``negligible`` next to its norm and
        projects its direction out of the vectors after it.  The class
        vectors generate the lattice, so each step finds one."""
        if not self.rank:  # no norms, and no argmax over width 0
            return np.zeros(0), np.zeros(self.basis.shape)
        pts = self.class_vectors() @ self.basis
        sizes = np.linalg.norm(pts, axis=1)
        keys, size_keys = _ball_keys(pts, sizes)
        flip = keys[np.arange(len(keys)), np.argmax(keys != 0, axis=1)] > 0
        pts[flip] *= -1.0
        keys[flip] *= -1.0
        order = _ball_order(keys, size_keys)
        pts, sizes = pts[order], sizes[order]
        resid = pts.copy()
        picked, start = [], 0
        while len(picked) < self.rank:
            above = ~negligible(np.linalg.norm(resid[start:], axis=1),
                                sizes[start:])
            i = start + int(np.flatnonzero(above)[0])
            u = resid[i] / np.linalg.norm(resid[i])
            picked.append(i)
            start = i + 1
            resid[start:] -= np.outer(resid[start:] @ u, u)
        return sizes[picked], pts[picked]

    def covering_radius(self):
        """Covering radius mu and the vertices of the Voronoi cell of 0,
        farthest first, as rows of a (k, dim) array; computed once.

        The cell is cut out by <x, r> <= |r|^2 / 2 for +-r, r the
        Voronoi-relevant vectors among ``class_vectors``, the query the
        successive norms read too.  Its vertices are walked in
        Gram-Schmidt coordinates on right-hand sides scaled by
        1 + 1e-10 u, u fixed and uniform in [0, 1), which makes every
        vertex simple, and solved again on the exact ones, so mu carries
        no perturbation.  Raises EnumerationBudgetExceeded when
        the walk is over budget (a generic rank-7 cell has 8! vertices),
        at once from rank 9 on, and when classes tied to within rounding
        leave a tight set singular; the refusal is kept too, and later
        calls raise it again without walking.
        """
        if isinstance(self._cover, EnumerationBudgetExceeded):
            raise EnumerationBudgetExceeded(*self._cover.args)
        if self._cover is None:
            try:
                self._cover = self._voronoi_cell()
            except EnumerationBudgetExceeded as exc:
                self._cover = EnumerationBudgetExceeded(*exc.args)
                raise
        return self._cover

    def _voronoi_cell(self):
        q = self.rank
        # one level holding the 2^(q-1) vertex pairs of the cube, the
        # cell of Z^q; checked before the class query
        tests = 2 ** (q - 1) * q * (2 ** (q + 1) - 2)
        if tests > _WALK_BUDGET:
            raise EnumerationBudgetExceeded(
                f"Voronoi cell of a rank-{q} lattice: {2 ** q} vertices "
                f"would take {tests} ratio tests, over the budget of "
                f"{_WALK_BUDGET}")
        scale = np.sqrt(self._bstar_sq)
        rel = self.class_vectors() @ ((self._mu + np.eye(q)) * scale)
        # class c holds a second pair of shortest vectors, and its
        # halfspace only touches the cell, when |r_a|^2 + |r_b|^2 =
        # |r_c|^2 for some a ^ b = c: r_a +- r_b are both shortest in c
        sq = np.einsum("ij,ij->i", rel, rel)
        cls = np.arange(1, 2 ** q)
        pair = np.concatenate(([np.inf], sq))[cls[:, None] ^ cls]
        rel = rel[(sq[:, None] + pair).min(axis=0) > sq * (1 + 1e-10)]
        normals = np.stack([rel, -rel], axis=1).reshape(-1, q)
        rhs = np.repeat(0.5 * np.einsum("ij,ij->i", rel, rel), 2)
        u = np.random.default_rng(_JITTER_SEED).random(len(rel))
        tight = _voronoi_walk(normals, rhs * np.repeat(1 + 1e-10 * u, 2))
        verts = np.linalg.solve(normals[tight],
                                rhs[tight][..., None])[..., 0]
        sizes = np.linalg.norm(verts, axis=1)
        order = np.argsort(-sizes, kind="stable")
        return (float(sizes[order[0]]),
                verts[order] @ (self._bstar / scale[:, None]))
