"""Scale equivariance: canonical form, norms, duals and the JSON round
trip commute with the homothety x -> t x, exactly when t is a power of
two."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chabauty as ch
from chabauty import _lattice
from chabauty.serialize import subgroup_from_dict, subgroup_to_dict

from conftest import groups

H = [(10.0, 0.0), (0.0, 1.0)]  # a lattice that LLL reorders


def h(t):
    return ch.scale(ch.make_subgroup(2, None, H), t)


def round_trip(g):
    return subgroup_from_dict(json.loads(json.dumps(subgroup_to_dict(g))))


def canonical(g, t, seed):
    """Canonical form of t times generators of g that are not its
    canonical bases: the continuous basis mixed by a triangular matrix
    and the lattice basis by a unimodular one."""
    rng = np.random.default_rng(seed)
    p, q = ch.type_of(g)
    mix = np.eye(p) + np.triu(rng.normal(size=(p, p)), 1)
    lower = np.tril(rng.integers(-2, 3, size=(q, q)), -1) + np.eye(q)
    upper = np.triu(rng.integers(-2, 3, size=(q, q)), 1) + np.eye(q)
    return ch.make_subgroup(g.ambient_dim, t * (mix @ g.continuous_basis),
                            t * (lower @ upper @ g.discrete_basis))


@settings(max_examples=300)
@given(g=groups(max_n=5), k=st.integers(-40, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_powers_of_two_commute_exactly(g, k, seed):
    t = 2.0 ** k
    one, scaled = canonical(g, 1.0, seed), canonical(g, t, seed)
    assert np.array_equal(scaled.continuous_basis, one.continuous_basis)
    assert np.array_equal(scaled.discrete_basis, t * one.discrete_basis)
    assert np.array_equal(ch.norms(scaled), t * ch.norms(one))
    assert np.array_equal(ch.dual(scaled).discrete_basis,
                          ch.dual(one).discrete_basis / t)


@settings(max_examples=300)
@given(g=groups(max_n=5), e=st.floats(-12.0, 12.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_real_factors_keep_type_norms_and_dual_type(g, e, seed):
    t = 10.0 ** e
    one, scaled = canonical(g, 1.0, seed), canonical(g, t, seed)
    assert ch.type_of(scaled) == ch.type_of(one)
    np.testing.assert_allclose(ch.norms(scaled), t * ch.norms(one),
                               rtol=1e-9, atol=0)
    assert ch.type_of(ch.dual(scaled)) == ch.type_of(ch.dual(one))
    assert ch.type_of(round_trip(scaled)) == ch.type_of(one)


def test_small_line_lattice_survives_the_json_round_trip():
    g = round_trip(ch.scale(ch.make_subgroup(2, None, [(1.0, 0.0)]), 1e-10))
    assert ch.type_of(g) == (0, 1)
    np.testing.assert_allclose(g.discrete_basis, [[1e-10, 0.0]], rtol=1e-15)


def test_ball_membership_is_relative():
    # the ball of radius 1e-13 in 1e-13 Z holds 0 and +-1e-13, as the
    # ball of radius 1 in Z holds 0 and +-1; an absolute slack of 1e-12
    # would take in 23 points
    g = ch.scale(ch.standard_subgroup(1, 0, 1), 1e-13)
    np.testing.assert_array_equal(ch.points_in_ball(g, 1e-13),
                                  [[0.0], [-1e-13], [1e-13]])


@pytest.mark.parametrize("t", [1.0, 1e-7])
def test_lll_reorders_at_every_scale(t):
    b = t * np.array(H)
    np.testing.assert_array_equal(_lattice.lll_reduce(b), b[::-1])


@pytest.mark.parametrize("t", [1e-9, 1e-100])
def test_norms_of_small_lattices(t):
    np.testing.assert_allclose(ch.norms(h(t)), [t, 10 * t], rtol=1e-12)


def test_orthonormal_frames_of_small_rows():
    small = 1e-10 * np.array(H)
    np.testing.assert_allclose(_lattice.orthonormalize(small), np.eye(2))
    np.testing.assert_allclose(
        abs(_lattice.orthonormal_complement(small[:1])), [[0.0, 1.0]])


def test_dual_of_a_small_lattice():
    d = ch.dual(h(1e-9))
    assert ch.type_of(d) == (0, 2)
    np.testing.assert_allclose(ch.norms(d), [1e8, 1e9], rtol=1e-12)


def test_small_linear_map():
    g = ch.apply_linear(1e-10 * np.eye(2), ch.make_subgroup(2, None, H))
    assert ch.type_of(g) == (0, 2)
    np.testing.assert_allclose(ch.norms(g), [1e-10, 1e-9], rtol=1e-12)
