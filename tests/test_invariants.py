import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import chabauty as ch
from chabauty import _lattice, subgroup
from chabauty.errors import EnumerationBudgetExceeded, WrongAmbientDim
from chabauty.invariants import INDETERMINATE, generation_data

from conftest import brute_norms, brute_points_in_ball, random_group


def test_norms_boundary_cases():
    np.testing.assert_allclose(ch.norms(ch.standard_subgroup(3, 3, 0)),
                               [0.0, 0.0, 0.0])
    assert np.all(np.isinf(ch.norms(ch.make_subgroup(3))))


def test_norms_examples():
    g = ch.make_subgroup(2, None, [(1.0, 0.0), (0.0, 3.0)])
    np.testing.assert_allclose(ch.norms(g), [1.0, 3.0])
    rz = ch.standard_subgroup(2, 1, 1)
    np.testing.assert_allclose(ch.norms(rz), [0.0, 1.0])


def test_norms_generation_radius_not_row_norm():
    # the second generation radius can differ from the second basis norm
    g = ch.make_subgroup(2, None, [(1.0, 0.0), (0.5, 0.9)])
    vals = ch.norms(g)
    assert vals[0] == pytest.approx(1.0)
    assert vals[1] == pytest.approx(math.hypot(0.5, 0.9))


def orthogonal_sum(rng, parts):
    """The orthogonal sum of the lattices with row bases ``parts``,
    rotated at random, its basis mixed by a random unimodular matrix,
    and its norms from ``brute_norms`` on each part.  The norms of an
    orthogonal sum are those of its summands merged, since the part of a
    vector in a summand is no longer than the vector."""
    dims = [b.shape[1] for b in parts]
    n = sum(dims)
    basis = np.zeros((n, n))
    at = 0
    for b, d in zip(parts, dims):
        basis[at:at + d, at:at + d] = b
        at += d
    rot, _ = np.linalg.qr(rng.normal(size=(n, n)))
    mix = np.eye(n) + np.triu(rng.integers(-2, 3, (n, n)), 1)
    g = ch.make_subgroup(n, None, mix @ basis @ rot)
    expected = np.sort(np.concatenate(
        [brute_norms(ch.make_subgroup(d, None, b))
         for b, d in zip(parts, dims)]))
    return g, expected


def test_norms_of_a_long_spectrum_match_brute_oracle(rng):
    # the ball at the largest norm holds about 3.3 million points
    g = ch.make_subgroup(3, None, np.diag([1.0, 1.0, 1024.0]))
    vals, realizers = generation_data(g)
    np.testing.assert_allclose(vals, [1.0, 1.0, 1024.0])
    np.testing.assert_allclose(np.sort(np.abs(realizers).max(axis=1)),
                               [1.0, 1.0, 1024.0])
    for _ in range(5):
        g, expected = orthogonal_sum(rng, [np.eye(2), np.array([[1024.0]])])
        np.testing.assert_allclose(ch.norms(g), expected, rtol=1e-12)


def test_norms_match_brute_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(1, 5))
        g = random_group(rng, n)
        np.testing.assert_allclose(ch.norms(g), brute_norms(g), atol=1e-9)


def test_norms_scaling_equivariance(rng):
    for _ in range(10):
        n = int(rng.integers(1, 5))
        g = random_group(rng, n)
        t = float(rng.uniform(0.3, 4.0))
        np.testing.assert_allclose(ch.norms(ch.scale(g, t)),
                                   t * ch.norms(g), atol=1e-9)


def test_norms_rotation_invariance(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        g = random_group(rng, n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        np.testing.assert_allclose(ch.norms(ch.apply_linear(q, g)),
                                   ch.norms(g), atol=1e-8)


def test_systole():
    assert ch.systole(ch.standard_subgroup(2, 0, 2)) == pytest.approx(1.0)
    assert math.isinf(ch.systole(ch.make_subgroup(2)))
    assert math.isinf(ch.systole(ch.make_subgroup(0)))
    g = ch.make_subgroup(2, None, [(3.0, 0.0), (0.0, 1.0)])
    assert ch.systole(g) == pytest.approx(1.0)


def test_covolume_cases():
    assert ch.covolume(ch.standard_subgroup(2, 0, 2)) == pytest.approx(1.0)
    hexl = ch.make_subgroup(2, None, [(1.0, 0.0), (0.5, math.sqrt(3) / 2)])
    assert ch.covolume(hexl) == pytest.approx(math.sqrt(3) / 2)
    assert ch.covolume(ch.standard_subgroup(2, 1, 0)) is INDETERMINATE
    assert repr(INDETERMINATE) == "Indeterminate"
    assert ch.covolume(ch.standard_subgroup(2, 1, 1)) == 0.0
    assert ch.covolume(ch.standard_subgroup(2, 2, 0)) == 0.0
    assert math.isinf(ch.covolume(ch.standard_subgroup(2, 0, 1)))
    assert math.isinf(ch.covolume(ch.make_subgroup(2)))
    with pytest.raises(WrongAmbientDim):
        ch.covolume(ch.standard_subgroup(3, 0, 3))


def test_discrete_covolume():
    g = ch.make_subgroup(3, None, [(2.0, 0.0, 0.0), (0.0, 3.0, 0.0)])
    assert ch.discrete_covolume(g) == pytest.approx(6.0)
    assert ch.discrete_covolume(ch.make_subgroup(3)) == pytest.approx(1.0)


def test_delta_type_examples():
    g = ch.make_subgroup(2, None, [(0.01, 0.0), (0.0, 5.0)])
    assert ch.delta_type(g, 0.1) == (1, 1)
    assert ch.delta_type(ch.standard_subgroup(2, 0, 2), 0.1) == (0, 2)
    tiny = ch.make_subgroup(2, None, [(0.1, 0.0)])
    assert ch.delta_type(tiny, 0.1) is None


def test_delta_type_window_is_relative():
    def line(size):
        return ch.scale(ch.standard_subgroup(1, 0, 1), size)
    assert ch.delta_type(line(5e-13), 1e-12) == (1, 0)
    assert ch.delta_type(line(1e-12 * (1 + 1e-10)), 1e-12) is None
    assert ch.delta_type(line(1e-12 * (1 + 1e-8)), 1e-12) == (0, 1)
    assert ch.delta_type(line(1e12 * (1 - 1e-10)), 1e-12) is None


def test_delta_type_below_type(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        g = random_group(rng, n)
        delta = float(rng.choice([0.05, 0.1, 0.2]))
        dt = ch.delta_type(g, delta)
        if dt is not None:
            assert ch.type_leq(dt, ch.type_of(g))


def test_norm_vector_shape(rng):
    for _ in range(15):
        n = int(rng.integers(1, 6))
        g = random_group(rng, n)
        p, q = ch.type_of(g)
        vals = ch.norms(g)
        assert vals.shape == (n,)
        assert np.all(vals[:p] == 0.0)
        middle = vals[p:p + q]
        assert np.all(np.isfinite(middle)) and np.all(middle > 0)
        assert np.all(np.isinf(vals[p + q:]))
        assert np.all(np.diff(vals[np.isfinite(vals)]) >= -1e-12)


def test_norm_continuity_along_family():
    deltas = []
    ts = np.linspace(1.0, 2.0, 9)
    for t0, t1 in zip(ts, ts[1:]):
        a = ch.make_subgroup(2, None, [(1.0, 0.0), (0.0, float(t0))])
        b = ch.make_subgroup(2, None, [(1.0, 0.0), (0.0, float(t1))])
        deltas.append(np.max(np.abs(ch.norms(a) - ch.norms(b)))
                      / (t1 - t0))
    assert max(deltas) <= 1.0 + 1e-9


def _squeezed_bases(rng, per_dim):
    """Seeded full-rank bases at n = 1..5, half of them squeezed along
    one axis so that the ball holds many points of low rank."""
    for n in range(1, 6):
        for k in range(per_dim):
            g = random_group(rng, n, (0, n))
            if k % 2:
                scales = np.ones(n)
                scales[rng.integers(n)] = np.exp(rng.uniform(-3.5, -1.0))
                g = ch.apply_linear(np.diag(scales), g)
            yield g


def test_realizers_span_the_flag(rng):
    """The realizers are lattice points whose norms are the norms, and
    for each norm r the realizers of norm <= r span the same space as
    all lattice points of norm <= r."""
    for g in _squeezed_bases(rng, 12):
        vals, realizers = generation_data(g)
        np.testing.assert_allclose(vals, brute_norms(g), atol=1e-9)
        basis = g.discrete_basis
        coords = realizers @ np.linalg.inv(basis)
        np.testing.assert_allclose(coords, np.round(coords), atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(realizers, axis=1), vals)
        pts = brute_points_in_ball(basis, vals.max() * (1 + 1e-9))
        sizes = np.linalg.norm(pts, axis=1)
        for r in vals:
            span = realizers[vals <= r * (1 + 1e-9)]
            both = np.vstack([span, pts[sizes <= r * (1 + 1e-9)]])
            assert np.linalg.matrix_rank(both, tol=1e-9) == span.shape[0]


def test_sorted_path_norms_match_brute_oracle(rng):
    for g in _squeezed_bases(rng, 6):
        np.testing.assert_allclose(ch.norms(g), brute_norms(g), atol=1e-9)


def test_generation_data_repeats_read_only():
    g = ch.make_subgroup(2, None, [(1.0, 0.0), (0.5, 0.9)])
    vals, realizers = generation_data(g)
    again, again_realizers = generation_data(g)
    np.testing.assert_array_equal(again, vals)
    np.testing.assert_array_equal(again_realizers, realizers)
    for arr in (vals, realizers, ch.norms(g)):
        with pytest.raises(ValueError):
            arr[0] = 7.0
    np.testing.assert_array_equal(ch.norms(g), [1.0, math.hypot(0.5, 0.9)])


def test_generation_data_budget_failure_not_cached(monkeypatch):
    g = ch.standard_subgroup(3, 0, 3)  # 7 classes of L/2L, over the cap
    with monkeypatch.context() as patch:
        patch.setattr(_lattice, "NODE_CAP", 5)
        for _ in range(2):
            with pytest.raises(EnumerationBudgetExceeded):
                subgroup._solver(g).class_vectors()
    np.testing.assert_allclose(ch.norms(g), [1.0, 1.0, 1.0])


def test_class_query_reach():
    # one level of the class query of Z^13 holds 1,062,881 nodes over
    # its 8191 targets, past the default cap of 10^6
    with pytest.raises(EnumerationBudgetExceeded,
                       match=r"rank 13\b.*\b1000000\b"):
        ch.norms(ch.standard_subgroup(13, 0, 13))
    g = ch.random_subgroup(12, (0, 12), seed=12)
    basis = g.discrete_basis
    sq = _lattice.LatticeSolver(basis).ball(
        float(np.linalg.norm(basis, axis=1).min()))[2]
    assert ch.norms(g)[0] == pytest.approx(np.sqrt(sq[sq > 0].min()),
                                           rel=1e-12)


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), q=st.integers(1, 5),
       spectrum=st.sampled_from(["gaussian", "log", "long"]),
       t=st.floats(0.05, 20.0))
def test_norms_match_brute_oracle_and_mu_scales(seed, q, spectrum, t):
    """Gaussian bases, rows scaled by e^U(-1.5, 1.5), and the spectrum
    (1, ..., 1, 1000), whose ball at the largest norm no oracle box
    holds: there the oracle runs on the summands."""
    rng = np.random.default_rng(seed)
    if spectrum == "long":
        g, expected = orthogonal_sum(rng, [np.eye(q - 1),
                                           np.array([[1000.0]])])
    else:
        basis = rng.normal(size=(q, q))
        if spectrum == "log":
            basis *= np.exp(rng.uniform(-1.5, 1.5, (q, 1)))
        g = ch.make_subgroup(q, None, basis)
        expected = brute_norms(g)
    np.testing.assert_allclose(ch.norms(g), expected, rtol=1e-9, atol=1e-9)
    scaled = ch.scale(g, t)
    np.testing.assert_allclose(ch.norms(scaled), t * ch.norms(g), rtol=1e-9)
    mu = subgroup._solver(g).covering_radius()[0]
    assert subgroup._solver(scaled).covering_radius()[0] == pytest.approx(
        t * mu, rel=1e-9)
