"""Closest-vector queries, the lattice search budget and the LLL loop,
checked against the independent oracles in conftest and against
properties that hold for every input."""
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chabauty as ch
from chabauty import _lattice
from chabauty.errors import EnumerationBudgetExceeded

from conftest import (brute_closest, brute_covering_radius, random_group,
                      reference_canonical_rows)


def skewed_basis(rng, n):
    """Unit rows and a long last row leaning on them, the shape of
    [(1, 0, 0), (0, 1, 0), (0.2, 0.3, 50)]."""
    basis = np.eye(n)
    basis[-1, :-1] = rng.uniform(-0.5, 0.5, size=n - 1)
    basis[-1, -1] = 50.0
    return basis


@pytest.mark.parametrize("n", range(1, 6))
def test_closest_matches_brute_oracle(rng, n):
    reduced = random_group(rng, n, (0, int(rng.integers(1, n + 1))))
    # on the skewed basis a half on the long row would put targets 25
    # away, beyond what the oracle's box can hold at n = 5
    for basis, halves in ((reduced.discrete_basis, slice(None)),
                          (skewed_basis(rng, n), slice(0, n - 1))):
        q = basis.shape[0]
        solver = _lattice.LatticeSolver(basis)
        scattered = (rng.integers(-3, 4, size=(12, q)) @ basis
                     + rng.normal(scale=0.7, size=(12, n)))
        # half-integer combinations: equidistant from several points
        half = np.zeros((12, q))
        half[:, halves] = 0.5 * rng.integers(0, 2, size=(12, q))[:, halves]
        ties = (rng.integers(-3, 4, size=(12, q)) + half) @ basis
        targets = np.vstack([scattered, ties])
        dist, coeffs = solver.closest(targets)
        np.testing.assert_allclose(dist, brute_closest(basis, targets),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            dist, np.linalg.norm(coeffs @ solver.basis - targets, axis=1),
            rtol=0, atol=1e-12)


def test_search_budget_names_nodes_and_cap():
    with pytest.raises(EnumerationBudgetExceeded) as err:
        _lattice.enumerate_ball(np.eye(3), 30.0, cap=1000)
    # the first level holds 61 nodes, the second the points of a disc
    a, b = np.meshgrid(np.arange(-30, 31), np.arange(-30, 31))
    nodes = int(np.sum(a * a + b * b <= 900))
    message = str(err.value)
    assert re.search(rf"\b{nodes}\b", message)
    assert re.search(r"\b1000\b", message)


def test_canonical_rows_matches_the_row_loop():
    # rows at scales far from 1, with zero rows and coordinates shrunk
    # next to the threshold of negligible, lead with the same sign
    rng = np.random.default_rng(31)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        b = rng.normal(size=(int(rng.integers(1, n + 1)), n))
        b *= 10.0 ** rng.uniform(-100, 100)
        small = rng.random(b.shape) < 0.3
        b[small] *= 10.0 ** rng.uniform(-12, -7, size=small.sum())
        b[rng.random(b.shape[0]) < 0.1] = 0.0
        assert (_lattice.canonical_rows(b).tobytes()
                == reference_canonical_rows(b).tobytes())


def test_closest_and_class_query_read_the_node_cap(monkeypatch):
    # neither takes a budget of its own: both read _lattice.NODE_CAP
    monkeypatch.setattr(_lattice, "NODE_CAP", 5)
    # the deep hole of Z^3 is 8 points away on the last level
    with pytest.raises(EnumerationBudgetExceeded,
                       match=r"^lattice search needs 8 nodes on one level, "
                             r"over the cap of 5$"):
        _lattice.LatticeSolver(np.eye(3)).closest([[0.5, 0.5, 0.5]])
    with pytest.raises(EnumerationBudgetExceeded,
                       match=r"^shortest vectors of the 7 classes of L/2L at "
                             r"rank 3: 7 targets, over the cap of 5$"):
        _lattice.LatticeSolver(np.eye(3)).class_vectors()


def exact_det(rows):
    """Determinant of an integer matrix in exact rational arithmetic."""
    a = [[Fraction(int(x)) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def gram_schmidt(basis):
    """Squared Gram-Schmidt norms and coefficients mu from a QR
    factorization, independent of the module's own loop."""
    r = np.linalg.qr(basis.T, mode="r")
    d = np.diag(r)
    return d * d, (r / d[:, None]).T


def reference_gso(basis):
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


def reference_lll(basis):
    """The LLL loop as it stood before the transform-tracking loop
    replaced it: full Gram-Schmidt recomputation after every row
    operation.  The module must match it bit for bit on independent
    rows."""
    b = np.array(basis, dtype=float)
    k = b.shape[0]
    if k <= 1:
        return b
    bstar, mu = reference_gso(b)
    i = 1
    while i < k:
        for j in range(i - 1, -1, -1):
            m = np.round(mu[i, j])
            if m != 0:
                b[i] -= m * b[j]
                bstar, mu = reference_gso(b)
        lhs = bstar[i] @ bstar[i]
        rhs = (0.75 - mu[i, i - 1] ** 2) * (bstar[i - 1] @ bstar[i - 1])
        if lhs >= rhs - 1e-12 * (1.0 + lhs):
            i += 1
        else:
            b[[i - 1, i]] = b[[i, i - 1]]
            bstar, mu = reference_gso(b)
            i = max(i - 1, 1)
    return b


def unreduced_basis(rng, n, q):
    """A random rank-q basis in R^n with rows scaled by e^U(-1, 1),
    pushed away from reduction by a random unimodular matrix."""
    basis = rng.normal(size=(q, n)) * np.exp(rng.uniform(-1, 1, (q, 1)))
    mix = np.eye(q, dtype=np.int64)
    for _ in range(2 * q):
        i, j = rng.choice(q, size=2, replace=False) if q > 1 else (0, 0)
        if i != j:
            mix[i] += int(rng.integers(-3, 4)) * mix[j]
    return mix @ basis


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
       data=st.data())
def test_lll_reduce_is_reduced_and_unimodular(seed, n, data):
    q = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    basis = unreduced_basis(rng, n, q)
    out = _lattice.lll_reduce(basis)
    assert out.tobytes() == reference_lll(basis).tobytes()
    bstar_sq, mu = gram_schmidt(out)
    assert np.all(np.abs(np.tril(mu, -1)) <= 0.5 + 1e-9)
    for i in range(1, q):
        assert bstar_sq[i] >= ((0.75 - mu[i, i - 1] ** 2) * bstar_sq[i - 1]
                               * (1 - 1e-9))
    coords = np.linalg.lstsq(basis.T, out.T, rcond=None)[0].T
    np.testing.assert_allclose(coords, np.round(coords), atol=1e-6)
    assert abs(exact_det(np.round(coords))) == 1


@settings(max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
       data=st.data())
def test_basis_from_generators_properties(seed, n, data):
    q = data.draw(st.integers(1, n))
    extra = data.draw(st.integers(0, 5))
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(q, n)) * np.exp(rng.uniform(-1, 1, (q, 1)))
    combos = rng.integers(-4, 5, size=(q + extra, q))
    # zero rows and duplicates
    combos[rng.random(q + extra) < 0.15] = 0
    combos = np.vstack([combos, combos[:data.draw(st.integers(0, 2))]])
    gens = combos @ basis
    zero_tol = 1e-9 * max(1.0, float(np.linalg.norm(gens, axis=1).max()))
    out, coeffs, relations = _lattice.basis_from_generators(gens, zero_tol)
    m = gens.shape[0]
    assert coeffs.dtype == relations.dtype == np.int64
    assert out.shape[0] == np.linalg.matrix_rank(combos.astype(float))
    np.testing.assert_allclose(coeffs @ gens, out, rtol=0, atol=zero_tol)
    if relations.shape[0]:
        assert np.linalg.norm(relations @ gens, axis=1).max() <= zero_tol
    assert abs(exact_det(np.vstack([coeffs, relations]).reshape(m, m))) == 1
    # every generator is an integer combination of the basis: exact in
    # the integer coordinates of the random basis
    lattice = coeffs @ combos
    coords = np.linalg.lstsq(lattice.T.astype(float), combos.T.astype(float),
                             rcond=None)[0].T
    np.testing.assert_allclose(coords, np.round(coords), atol=1e-6)
    assert np.array_equal(np.round(coords).astype(np.int64) @ lattice, combos)


@pytest.mark.parametrize("gens, zero_tol, numbers", [
    # 1 / 1e-30 is no integer a float can hold
    ([[1e-30], [1.0]], 1e-40, ["1e+30", "2^52"]),
    # the only relation, (2^80, -2^40, 1), is past what a float holds
    ([[1.0, 0.0], [2.0 ** 40, 1.0], [0.0, 2.0 ** 40]], 1e-9, ["2^52"]),
    # a dense subgroup of the line: two rows left in R^1
    ([[1.0], [math.sqrt(2.0)]], 1e-9, ["2 basis rows in R^1"]),
])
def test_numeric_failures_raise_with_their_numbers(gens, zero_tol, numbers):
    with pytest.raises(EnumerationBudgetExceeded) as err:
        _lattice.basis_from_generators(gens, zero_tol)
    for text in numbers:
        assert text in str(err.value)


@pytest.mark.parametrize("zero_tol", [0.0, -1.0, math.nan])
def test_basis_from_generators_needs_a_positive_zero_tol(zero_tol):
    with pytest.raises(ValueError):
        _lattice.basis_from_generators([[1.0]], zero_tol)


@pytest.mark.parametrize("scale", [1.0, 1e-7])
def test_dependent_generators_reduce_at_any_scale(scale):
    # the rows are scaled by a power of two near 1 / zero_tol before the
    # loop, whose Lovasz test has an absolute slack of 1e-12
    gens = scale * np.array([[2.0, 0.0], [3.0, 0.0], [0.0, 5.0]])
    out, coeffs, relations = _lattice.basis_from_generators(gens, 1e-3 * scale)
    np.testing.assert_allclose(np.abs(out), [[scale, 0.0], [0.0, 5 * scale]],
                               rtol=1e-12)
    assert relations.shape == (1, 3)
    assert abs(exact_det(np.vstack([coeffs, relations]))) == 1


def test_generators_below_zero_tol_are_unit_relations():
    # each generator is zero at this tolerance, so the relations are the
    # unit vectors, not a long unimodular basis of Z^2
    gens = [[-6.5e-20], [2.5e-17]]
    out, coeffs, relations = _lattice.basis_from_generators(gens, 1e-6)
    assert out.shape == (0, 1) and coeffs.shape == (0, 2)
    assert sorted(np.abs(relations).tolist()) == [[0, 1], [1, 0]]


def rank0_solver(width=3):
    return _lattice.LatticeSolver(np.zeros((0, width)))


def from_zeros(shape):
    return _lattice.basis_from_generators(np.zeros(shape), 1e-6)


def apex():
    """The arrays of ``cone_map(0, ...)`` at a point of the (1,1) chart
    of R^3 with a fine lattice, a medium offset and a coarse row."""
    base = ch.standard_subgroup(3, 1, 1)
    g = ch.make_subgroup(3, None, [(0.025, 0, 0), (0.01, 1, 0), (0, 0, 40)])
    loc = ch.cone_map(0.0, *ch.local_decomposition(g, base, 0.1))
    return (loc.fine_part.continuous_basis, loc.fine_part.discrete_basis,
            loc.coarse_basis, loc.medium_offset, loc.coarse_offset_fine,
            loc.coarse_offset_medium)


INT0 = np.zeros((0, 0), np.int64)


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: rank0_solver().closest([[3.0, 4.0, 0.0], [0, 0, 0]]),
                 ([5.0, 0.0], np.zeros((2, 0), np.int64)),
                 id="closest-rank-0"),
    pytest.param(lambda: (rank0_solver().class_vectors(),), (INT0,),
                 id="class-vectors-rank-0"),
    pytest.param(lambda: rank0_solver().successive_norms(),
                 (np.zeros(0), np.zeros((0, 3))), id="norms-rank-0"),
    pytest.param(lambda: rank0_solver(0).successive_norms(),
                 (np.zeros(0), np.zeros((0, 0))), id="norms-rank-0-width-0"),
    pytest.param(lambda: from_zeros((0, 3)), (np.zeros((0, 3)), INT0, INT0),
                 id="no-generators"),
    pytest.param(lambda: from_zeros((2, 0)),
                 (np.zeros((0, 0)), np.zeros((0, 2), np.int64),
                  np.eye(2, dtype=np.int64)),
                 id="generators-of-width-0"),
    pytest.param(lambda: rank0_solver(2).ball(1.0),
                 (np.zeros((1, 2)), np.zeros((1, 0), np.int64), np.zeros(1)),
                 id="ball-rank-0"),
    pytest.param(lambda: (_lattice.lll_reduce(np.zeros((0, 3))),),
                 (np.zeros((0, 3)),), id="lll-no-rows"),
    pytest.param(lambda: (_lattice.lll_reduce([[3.0, 4.0]]),),
                 ([[3.0, 4.0]],), id="lll-one-row"),
    pytest.param(apex, ([[1.0]], np.zeros((0, 1)), np.zeros((0, 1)), [[0.0]],
                        np.zeros((0, 1)), np.zeros((0, 1))),
                 id="cone-map-apex"),
])
def test_empty_input_is_ordinary_input(call, expected):
    # a rank-0 lattice is the origin alone, zero-width generators are
    # all relations, and the apex of a cone keeps no coarse row
    got = call()
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.shape(a) == np.shape(b)
        assert np.asarray(a).dtype == np.asarray(b).dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rows", [[[math.nan, 0.0], [0.0, 1.0]],
                                  [[1.0, 0.0], [math.inf, 1.0]]])
def test_lll_reduce_raises_on_non_finite_rows(rows):
    with pytest.raises(EnumerationBudgetExceeded):
        _lattice.lll_reduce(rows)


# a skewed rank-3 basis: the nearest-plane coefficients of its class
# targets are far past 2^52, and further levels would turn them into NaN
SKEWED = [[717226.8825271587, -510464.5550176106, -3219178.8522220436],
          [1.2269444973601022, 0.18035710748139555, 0.2342641514771704],
          [-399596502550.2343, 284400732641.49426, 1793536524870.7004]]


@pytest.mark.parametrize("basis, targets, number", [
    (SKEWED, 0.5 * np.array(SKEWED).sum(axis=0), "2.06502e+21"),
    (np.eye(2), [[math.nan, 0.0]], "nan"),
    (np.eye(2), [[-2.0 ** 52, 0.0]], "4.5036e+15"),
])
def test_nearest_plane_refuses_an_inexact_coefficient(basis, targets, number):
    with pytest.raises(EnumerationBudgetExceeded,
                       match=f"of size {re.escape(number)};.*2\\^52"):
        _lattice.LatticeSolver(basis).nearest_plane(targets)


def test_norms_of_a_skewed_basis_are_a_budget_error():
    group = ch.ClosedSubgroup(3, [], SKEWED)
    with pytest.raises(EnumerationBudgetExceeded, match="nearest plane"):
        ch.norms(group)


def stress_corpus(seed=2024, per_n=100):
    """Dependent generator sets: integer combinations, up to 100 in
    absolute value, of q..q+5 rows over a random rank-q basis of R^n
    whose rows are scaled by e^U(-3, 3), for n = 1..6."""
    rng = np.random.default_rng(seed)
    for n in range(1, 7):
        for _ in range(per_n):
            q = int(rng.integers(1, n + 1))
            m = q + int(rng.integers(0, 6))
            basis = rng.normal(size=(q, n))
            basis = basis * np.exp(rng.uniform(-3, 3, (q, 1)))
            combos = rng.integers(-100, 101, size=(m, q))
            yield combos, combos @ basis


def test_stress_corpus_has_no_silent_errors():
    answered = 0
    for combos, gens in stress_corpus():
        zero_tol = 1e-10 * float(np.linalg.norm(gens, axis=1).max())
        try:
            out, coeffs, relations = _lattice.basis_from_generators(
                gens, zero_tol)
        except EnumerationBudgetExceeded:
            continue
        answered += 1
        m = gens.shape[0]
        assert out.shape[0] == np.linalg.matrix_rank(combos.astype(float))
        full = np.vstack([coeffs, relations]).reshape(m, m)
        assert abs(exact_det(full)) == 1
        assert not np.any(relations @ combos)
        lattice = coeffs @ combos
        coords = np.linalg.lstsq(lattice.T.astype(float),
                                 combos.T.astype(float), rcond=None)[0].T
        assert np.array_equal(np.round(coords).astype(np.int64) @ lattice,
                              combos)
    # 576 of the 600 at the time of writing
    assert answered >= 550


def root_lattice(name, n):
    """A_n in R^(n+1), or D_n in R^n, with roots of norm sqrt(2)."""
    if name == "A":
        return np.eye(n, n + 1) - np.eye(n, n + 1, k=1)
    basis = np.eye(n) - np.eye(n, k=-1)
    basis[0, 1] = -1.0
    basis[0, 0] = -1.0
    return basis


# covering radii from Conway & Sloane, SPLAG, ch. 4
@pytest.mark.parametrize("basis, mu", [
    *[(np.eye(n), math.sqrt(n) / 2) for n in range(2, 7)],
    (np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2]]), 1 / math.sqrt(3)),
    (root_lattice("A", 3), 1.0),
    (root_lattice("D", 4), 1.0),
    (root_lattice("D", 6), math.sqrt(6) / 2),
], ids=["Z2", "Z3", "Z4", "Z5", "Z6", "A2", "A3", "D4", "D6"])
def test_covering_radius_of_known_lattices(basis, mu):
    solver = _lattice.LatticeSolver(basis)
    got, vertices = solver.covering_radius()
    assert got == pytest.approx(mu, abs=1e-12)
    sizes = np.linalg.norm(vertices, axis=1)
    assert sizes[0] == pytest.approx(got, abs=1e-12)
    assert np.all(np.diff(sizes) <= 1e-12)
    # each vertex of the Voronoi cell of 0 is as close to 0 as to any
    # other lattice point
    near, _ = solver.closest(vertices)
    assert np.allclose(near, sizes, rtol=0, atol=1e-12)


@pytest.mark.parametrize("q", range(1, 5))
def test_covering_radius_matches_grid_oracle(rng, q):
    steps = (64, 32, 10, 6)[q - 1]
    for _ in range(2):
        n = q + int(rng.integers(0, 2))
        basis = random_group(rng, n, (0, q)).discrete_basis
        mu, vertices = _lattice.LatticeSolver(basis).covering_radius()
        oracle, slack = brute_covering_radius(basis, steps)
        assert oracle - 1e-12 <= mu <= oracle + slack
        # a generic cell, such as a random lattice's, has (q + 1)!
        assert len(vertices) == math.factorial(q + 1)
        sizes = np.linalg.norm(vertices, axis=1)
        assert np.allclose(brute_closest(basis, vertices), sizes,
                           rtol=0, atol=1e-12)


@pytest.mark.parametrize("t", [2.0 ** -k for k in range(1, 6)] + [3.0])
def test_covering_radius_scales(rng, t):
    for q in range(1, 6):
        basis = random_group(rng, q, (0, q)).discrete_basis
        mu = _lattice.LatticeSolver(basis).covering_radius()[0]
        scaled = _lattice.LatticeSolver(t * basis).covering_radius()[0]
        assert scaled == pytest.approx(t * mu, rel=1e-12)


def test_covering_radius_budget_states_its_numbers():
    # a generic rank-7 cell has 8! = 40,320 vertices
    basis = np.random.default_rng(1).normal(size=(7, 7))
    with pytest.raises(EnumerationBudgetExceeded) as info:
        _lattice.LatticeSolver(basis).covering_radius()
    message = str(info.value)
    assert "rank-7 lattice" in message
    assert f"over the budget of {_lattice._WALK_BUDGET}" in message
    assert re.search(r"\d+ vertices found, and a frontier of \d+ takes "
                     r"\d+ ratio tests", message)
    # rank 10 is refused before any of its 2^10 - 1 closest-vector queries
    with pytest.raises(EnumerationBudgetExceeded,
                       match="rank-10 lattice: 1024 vertices would take "
                             "10475520 ratio tests"):
        _lattice.LatticeSolver(np.eye(10)).covering_radius()
