import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chabauty as ch

from conftest import groups, random_group, same_group


def test_dual_of_integer_lattice_is_itself():
    for n in (1, 2, 3):
        z = ch.standard_subgroup(n, 0, n)
        d = ch.dual(z)
        assert ch.type_of(d) == (0, n)
        rows = sorted(map(tuple, np.round(np.abs(d.discrete_basis), 12)))
        assert rows == sorted(map(tuple, np.eye(n)))


def test_dual_scaled_line_lattice():
    g = ch.make_subgroup(2, None, [(2.0, 0.0)])
    d = ch.dual(g)
    assert ch.type_of(d) == (1, 1)
    np.testing.assert_allclose(np.abs(d.continuous_basis), [[0.0, 1.0]],
                               atol=1e-12)
    np.testing.assert_allclose(d.discrete_basis, [[0.5, 0.0]], atol=1e-12)


def test_dual_of_trivial_group():
    d = ch.dual(ch.make_subgroup(3))
    assert ch.type_of(d) == (3, 0)
    d2 = ch.dual(ch.standard_subgroup(3, 3, 0))
    assert ch.type_of(d2) == (0, 0)


def test_dual_pairing_is_integral(rng):
    hits = 0
    while hits < 100:
        n = int(rng.integers(1, 5))
        g = random_group(rng, n)
        if g.discrete_rank == 0:
            continue
        d = ch.dual(g)
        a = ch.points_in_ball(g, 4.0)
        b = ch.points_in_ball(d, 4.0)
        prods = a @ b.T
        assert np.max(np.abs(prods - np.round(prods))) < 1e-8
        hits += a.shape[0] and b.shape[0]


def test_dual_covolume_reciprocity(rng):
    for _ in range(20):
        g = random_group(rng, 2, (0, 2))
        prod = ch.covolume(g) * ch.covolume(ch.dual(g))
        assert prod == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60)
@given(g=groups(max_n=5))
def test_dual_type_formula_and_involution(g):
    n = g.ambient_dim
    p, q = ch.type_of(g)
    d = ch.dual(g)
    assert ch.type_of(d) == (n - (p + q), q)
    assert ch.subgroups_equal(ch.dual(d), g, tol=1e-8)


def assert_same_norms(a, b):
    na, nb = ch.norms(a), ch.norms(b)
    assert np.array_equal(np.isinf(na), np.isinf(nb))
    finite = np.isfinite(na)
    np.testing.assert_allclose(nb[finite], na[finite], rtol=1e-9, atol=0)


@settings(max_examples=60)
@given(g=groups(), seed=st.integers(0, 2 ** 32 - 1))
def test_orthogonal_maps_keep_type_and_norms(g, seed):
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.normal(size=(g.ambient_dim,) * 2))
    h = ch.apply_linear(rot, g)
    assert ch.type_of(h) == ch.type_of(g)
    assert_same_norms(g, h)
    assert_same_norms(ch.dual(g), ch.dual(h))


@settings(max_examples=60)
@given(g=groups(), seed=st.integers(0, 2 ** 32 - 1))
def test_dual_commutes_with_linear_maps(g, seed):
    """dual(m H) = m^(-T) dual(H) for an invertible m = I + N/2 with
    condition number at most 50."""
    rng = np.random.default_rng(seed)
    n = g.ambient_dim
    m = np.eye(n) + 0.5 * rng.normal(size=(n, n))
    assume(np.linalg.cond(m) <= 50)
    left = ch.dual(ch.apply_linear(m, g))
    right = ch.apply_linear(np.linalg.inv(m).T, ch.dual(g))
    np.testing.assert_allclose(
        left.continuous_basis.T @ left.continuous_basis,
        right.continuous_basis.T @ right.continuous_basis, atol=1e-9)
    assert same_group(left, right)
