import math
import sys
import threading
import warnings

import numpy as np
import pytest

import chabauty as ch
from chabauty import _lattice, subgroup
from chabauty.subgroup import points_in_ball_with_coefficients
from chabauty.errors import (DimensionMismatch, EnumerationBudgetExceeded,
                             InvalidType, NonClosedInput, NonFiniteInput,
                             SingularMatrix)

from conftest import brute_points_in_ball, random_group, random_type

S2 = 1.0 / math.sqrt(2.0)


def test_make_subgroup_projects_discrete_part():
    g = ch.make_subgroup(2, [(S2, S2)], [(1.0, 0.0)])
    assert g.group_type == (1, 1)
    np.testing.assert_allclose(g.continuous_basis, [[S2, S2]], atol=1e-12)
    np.testing.assert_allclose(g.discrete_basis, [[0.5, -0.5]], atol=1e-12)


def test_make_subgroup_keeps_canonical_lattice():
    g = ch.make_subgroup(3, None, np.eye(3))
    np.testing.assert_allclose(g.discrete_basis, np.eye(3), atol=1e-12)
    assert g.continuous_dim == 0


def test_make_subgroup_rejects_dense_winding():
    with pytest.raises(NonClosedInput):
        ch.make_subgroup(2, None, [(1.0, 0.0), (math.sqrt(2.0), 0.0)])


def test_make_subgroup_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        ch.make_subgroup(3, None, [(1.0, 0.0)])


@pytest.mark.parametrize("cont, disc", [(None, [(math.nan, 0.0)]),
                                        (None, [(math.inf, 0.0)]),
                                        ([(math.nan, 1.0)], None),
                                        (None, [(1e300, 0.0), (0.0, 1.0)]),
                                        ([(1e300, 0.0)], [(0.0, 1.0)])])
def test_make_subgroup_rejects_non_finite(cont, disc):
    with pytest.raises(NonFiniteInput):
        ch.make_subgroup(2, cont, disc)


def test_make_subgroup_takes_one_flat_generator():
    g = ch.make_subgroup(2, None, [1.0, 0.0])
    assert g.group_type == (0, 1)
    np.testing.assert_array_equal(np.abs(g.discrete_basis), [[1.0, 0.0]])
    assert repr(g) == "ClosedSubgroup(n=2, type=(0,1))"


def test_make_subgroup_drops_absorbed_generators():
    g = ch.make_subgroup(2, [(1.0, 0.0)], [(3.0, 0.0)])
    assert g.group_type == (1, 0)


def test_type_and_rank():
    assert ch.type_of(ch.standard_subgroup(2, 2, 0)) == (2, 0)
    assert ch.type_of(ch.standard_subgroup(3, 0, 3)) == (0, 3)
    g = ch.make_subgroup(2, [(S2, S2)], [(1.0, 0.0)])
    assert ch.type_of(g) == (1, 1)
    assert g.rank == 2


def test_canonical_decomposition_components():
    g = ch.standard_subgroup(2, 1, 1)
    cont, disc = g.continuous_basis, g.discrete_basis
    np.testing.assert_allclose(cont, [[1.0, 0.0]])
    np.testing.assert_allclose(disc, [[0.0, 1.0]])
    z = ch.standard_subgroup(3, 0, 3)
    cont, disc = z.continuous_basis, z.discrete_basis
    assert cont.shape == (0, 3)
    np.testing.assert_allclose(disc, np.eye(3))


def test_points_in_ball_examples():
    z2 = ch.standard_subgroup(2, 0, 2)
    pts = ch.points_in_ball(z2, 1.0)
    assert sorted(map(tuple, np.round(pts, 9))) == [
        (-1.0, 0.0), (0.0, -1.0), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    g = ch.make_subgroup(2, None, [(1.0, 0.0), (0.0, 3.0)])
    pts = ch.points_in_ball(g, 2.0)
    assert sorted(map(tuple, np.round(pts, 9))) == [
        (-2.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    trivial = ch.make_subgroup(2)
    np.testing.assert_allclose(ch.points_in_ball(trivial, 5.0),
                               [[0.0, 0.0]])


def _ball_cases(rng):
    skewed = ch.make_subgroup(3, None, [(1, 0, 0), (0, 1, 0), (0.2, 0.3, 50)])
    cases = [(skewed, 3.0), (skewed, 50.5)]
    for _ in range(40):
        n = int(rng.integers(1, 6))
        g = random_group(rng, n, (0, int(rng.integers(1, n + 1))))
        cases.append((g, float(rng.uniform(0.5, 4.0 if n <= 3 else 2.5))))
    return cases


def test_points_in_ball_matches_brute_oracle(rng):
    for g, radius in _ball_cases(rng):
        mine = ch.points_in_ball(g, radius)
        brute = brute_points_in_ball(g.discrete_basis, radius)
        a = sorted(map(tuple, np.round(mine, 8)))
        b = sorted(map(tuple, np.round(brute, 8)))
        assert a == b


def _order_key(point):
    return (round(float(np.linalg.norm(point)), 9),
            *(round(float(x), 9) for x in point))


def test_points_in_ball_order_contract(rng):
    for g, radius in _ball_cases(rng):
        pts, coeffs = points_in_ball_with_coefficients(g, radius)
        np.testing.assert_allclose(coeffs @ g.discrete_basis, pts,
                                   rtol=0, atol=1e-9)
        keys = [_order_key(p) for p in pts]
        assert keys == sorted(keys)
        # the sort is the only difference from the searched half, origin
        # first, followed by its mirror image
        found, found_coeffs, sq = _lattice.LatticeSolver(
            g.discrete_basis).ball(radius)
        np.testing.assert_allclose(sq, np.linalg.norm(found, axis=1) ** 2,
                                   rtol=1e-12, atol=1e-12)
        assert not found_coeffs[0].any()
        found = np.vstack([found, 0.0 - found[1:]])
        found_coeffs = np.vstack([found_coeffs, -found_coeffs[1:]])
        order = sorted(range(len(found)), key=lambda i: _order_key(found[i]))
        assert np.array_equal(pts, found[order])
        assert np.array_equal(coeffs, found_coeffs[order])


def test_points_in_ball_budget():
    g = ch.make_subgroup(2, None, [(0.01, 0.0), (0.0, 0.01)])
    with pytest.raises(EnumerationBudgetExceeded):
        ch.points_in_ball(g, 50.0, cap=1000)


@pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf])
def test_points_in_ball_needs_a_finite_nonnegative_radius(radius):
    g = ch.standard_subgroup(2, 0, 2)
    with pytest.raises(ValueError,
                       match="radius must be finite and nonnegative"):
        ch.points_in_ball(g, radius)


def test_nearest_point_builds_one_solver(monkeypatch):
    builds = []
    real = _lattice.LatticeSolver

    def counting(basis):
        builds.append(basis)
        return real(basis)

    monkeypatch.setattr(_lattice, "LatticeSolver", counting)
    g = ch.make_subgroup(2, None, [(1.0, 0.0), (0.3, 1.1)])
    other = ch.make_subgroup(2, None, [(1.02, 0.01), (0.29, 1.12)])
    for x in [(0.2, 0.1), (3.3, -1.2), (0.5, 0.5)]:
        ch.nearest_point(g, x)
        ch.distance_to_subgroup(x, g)
    ch.norms(g)
    subgroup._solver(g).covering_radius()
    ch.hausdorff_gap(g, other, 4.0)
    assert sum(b is g.discrete_basis for b in builds) == 1


def test_shared_solver_under_threads():
    g = ch.make_subgroup(2, None, [(1.0, 0.0), (0.3, 1.1)])
    points = np.random.default_rng(3).uniform(-3, 3, size=(40, 2))
    expected = [ch.distance_to_subgroup(x, ch.make_subgroup(
        2, None, g.discrete_basis)) for x in points]
    results = []

    def work():
        results.append([ch.distance_to_subgroup(x, g) for x in points])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert results == [expected] * 8


def test_nearest_point_batches_rows(rng):
    for n in range(1, 5):
        for _ in range(6):
            g = random_group(rng, n)
            points = rng.normal(scale=2.0, size=(7, n))
            batched = ch.nearest_point(g, points)
            one_by_one = np.array([ch.nearest_point(g, x) for x in points])
            assert batched.shape == points.shape
            np.testing.assert_allclose(batched, one_by_one, rtol=0,
                                       atol=1e-12)
            assert ch.nearest_point(g, points[0]).shape == (n,)
    with pytest.raises(DimensionMismatch):
        ch.nearest_point(ch.standard_subgroup(2, 0, 2), np.zeros((3, 3)))


def test_distance_examples():
    z2 = ch.standard_subgroup(2, 0, 2)
    assert ch.distance_to_subgroup((0.5, 0.0), z2) == pytest.approx(0.5)
    rz = ch.standard_subgroup(2, 1, 1)
    assert ch.distance_to_subgroup((0.5, 7.0), rz) == pytest.approx(0.0,
                                                                    abs=1e-12)
    g = ch.make_subgroup(2, None, [(1.0, 0.0), (0.0, 3.0)])
    assert ch.distance_to_subgroup((0.4, 0.3), g) == pytest.approx(0.5)


def test_apply_linear():
    z2 = ch.standard_subgroup(2, 0, 2)
    same = ch.apply_linear(np.eye(2), z2)
    np.testing.assert_allclose(same.discrete_basis, z2.discrete_basis,
                               atol=1e-12)
    doubled = ch.apply_linear(2.0 * np.eye(3), ch.standard_subgroup(3, 0, 3))
    np.testing.assert_allclose(sorted(np.linalg.norm(
        doubled.discrete_basis, axis=1)), [2.0, 2.0, 2.0])
    with pytest.raises(SingularMatrix):
        ch.apply_linear(np.zeros((2, 2)), z2)


def test_apply_linear_preserves_type(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        g = random_group(rng, n)
        mat = rng.normal(size=(n, n))
        while abs(np.linalg.det(mat)) < 1e-3:
            mat = rng.normal(size=(n, n))
        assert ch.type_of(ch.apply_linear(mat, g)) == ch.type_of(g)


def test_scale_conventions():
    z3 = ch.standard_subgroup(3, 0, 3)
    assert ch.type_of(ch.scale(z3, math.inf)) == (0, 0)
    assert ch.type_of(ch.scale(z3, 0.0)) == (3, 0)
    g = ch.make_subgroup(2, None, [(1.0, 0.0), (0.0, 3.0)])
    doubled = ch.scale(g, 2.0)
    np.testing.assert_allclose(sorted(np.linalg.norm(
        doubled.discrete_basis, axis=1)), [2.0, 6.0])


def test_scale_rejects_nan_of_any_type_and_overflow():
    g = ch.make_subgroup(1, None, [(10.0,)])
    for t in (float("nan"), np.float32("nan"), np.float64("nan")):
        with pytest.raises(ValueError):
            ch.scale(g, t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput):
            ch.scale(g, 1e308)
        with pytest.raises(NonFiniteInput):  # the squared norm overflows
            ch.scale(g, 1e160)
        assert ch.scale(g, np.float32(2.0)).discrete_basis[0, 0] == 20.0
        h = ch.make_subgroup(2, None, [(10.0, 0.0), (0.0, 1.0)])
        for t in (1e-200, 1e-160):  # a squared norm below the normal range
            with pytest.raises(NonFiniteInput):
                ch.scale(h, t)
        assert ch.scale(h, 1e-100).group_type == (0, 2)


def test_scale_roundtrip(rng):
    for _ in range(10):
        n = int(rng.integers(1, 5))
        g = random_group(rng, n)
        t = float(rng.uniform(0.2, 5.0))
        back = ch.scale(ch.scale(g, t), 1.0 / t)
        np.testing.assert_allclose(back.discrete_basis, g.discrete_basis,
                                   atol=1e-9)


def test_make_subgroup_idempotent(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        g = random_group(rng, n)
        again = ch.make_subgroup(n, g.continuous_basis, g.discrete_basis)
        np.testing.assert_allclose(again.continuous_basis,
                                   g.continuous_basis, atol=1e-9)
        np.testing.assert_allclose(again.discrete_basis,
                                   g.discrete_basis, atol=1e-9)


def test_make_subgroup_idempotent_generic_generators(rng):
    # raw generator lists whose reduced rows are not norm-sorted
    for _ in range(40):
        n = int(rng.integers(2, 6))
        q = int(rng.integers(2, n + 1))
        g = ch.make_subgroup(n, None, rng.normal(size=(q, n)))
        again = ch.make_subgroup(n, g.continuous_basis, g.discrete_basis)
        np.testing.assert_allclose(again.discrete_basis,
                                   g.discrete_basis, atol=1e-9)


def glued_lattice(size):
    """size * (Z^5 + Z (1, ..., 1) / 2), the glue vector first."""
    rows = size * np.eye(5)
    rows[0] = 0.5 * size
    return rows


@pytest.mark.parametrize("rows", [
    # mu = 0.5000000000000001: size reduction sits on a tie
    [[0.9983783335943661, 0.056927172855646795],
     [0.360395924886702, 2.462594048590776]],
    glued_lattice(0.02),
    glued_lattice(1.0),
], ids=["tie2", "glued0.02", "glued1"])
def test_canonical_basis_is_a_fixed_point(rows):
    # the solver takes a canonical basis as given, so reducing it again
    # must return the same bits, and so must canonicalizing it again
    n = len(rows[0])
    g = ch.make_subgroup(n, None, rows)
    assert np.array_equal(_lattice.lll_reduce(g.discrete_basis),
                          g.discrete_basis)
    again = ch.make_subgroup(n, None, g.discrete_basis)
    assert np.array_equal(again.discrete_basis, g.discrete_basis)


def test_membership_consistency(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        g = random_group(rng, n, (0, n))
        radius = float(rng.uniform(1.0, 3.0))
        pts = ch.points_in_ball(g, radius)
        for d in pts:
            assert ch.distance_to_subgroup(d, g) < 1e-9
            assert np.linalg.norm(d) <= radius + 1e-9


def test_random_subgroup_deterministic():
    a = ch.random_subgroup(3, (0, 3), seed=7)
    b = ch.random_subgroup(3, (0, 3), seed=7)
    np.testing.assert_array_equal(a.discrete_basis, b.discrete_basis)
    g = ch.random_subgroup(3, (1, 1), seed=11)
    assert ch.type_of(g) == (1, 1)
    with pytest.raises(InvalidType):
        ch.random_subgroup(2, (2, 1), seed=0)


def test_random_subgroup_norm_range(rng):
    for _ in range(10):
        n = int(rng.integers(1, 5))
        p, q = random_type(rng, n)
        g = ch.random_subgroup(n, (p, q), seed=int(rng.integers(2 ** 32)))
        if q:
            sizes = np.linalg.norm(g.discrete_basis, axis=1)
            assert sizes.min() >= 0.6 - 1e-9
            assert sizes.max() <= 2.4 + 1e-9
