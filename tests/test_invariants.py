import math

import numpy as np
import pytest

import chabauty as ch
from chabauty import _lattice
from chabauty.errors import EnumerationBudgetExceeded, WrongAmbientDim
from chabauty.invariants import (INDETERMINATE, _generation_radii_projected,
                                 _generation_radii_sorted, generation_data)

from conftest import brute_norms, random_group


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


def test_norms_projected_fallback_agrees():
    basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1024.0]])
    g = ch.make_subgroup(3, None, basis)
    np.testing.assert_allclose(ch.norms(g), [1.0, 1.0, 1024.0])
    direct, realizers = _generation_radii_projected(
        g.discrete_basis, 1e-9, 10 ** 6)
    np.testing.assert_allclose(direct, [1.0, 1.0, 1024.0])
    np.testing.assert_allclose(np.sort(np.abs(realizers).max(axis=1)),
                               [1.0, 1.0, 1024.0])


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
    g = ch.make_subgroup(2, None, [(3.0, 0.0), (0.0, 1.0)])
    assert ch.systole(g) == pytest.approx(1.0)


def test_covolume_cases():
    assert ch.covolume(ch.standard_subgroup(2, 0, 2)) == pytest.approx(1.0)
    hexl = ch.make_subgroup(2, None, [(1.0, 0.0), (0.5, math.sqrt(3) / 2)])
    assert ch.covolume(hexl) == pytest.approx(math.sqrt(3) / 2)
    assert ch.covolume(ch.standard_subgroup(2, 1, 0)) is INDETERMINATE
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


def _sorted_path_bases(rng, per_dim):
    """Seeded full-rank bases at n = 1..5, half of them squeezed along
    one axis so that the ball holds many points of low rank, all small
    enough for the sorted enumeration path."""
    for n in range(1, 6):
        for k in range(per_dim):
            g = random_group(rng, n, (0, n))
            if k % 2:
                scales = np.ones(n)
                scales[rng.integers(n)] = np.exp(rng.uniform(-3.5, -1.0))
                g = ch.apply_linear(np.diag(scales), g)
            basis = g.discrete_basis
            nu = _lattice.dual_coefficient_norms(basis)
            rmax = float(np.linalg.norm(basis, axis=1).max())
            assert np.prod(2 * np.floor(rmax * nu + 1e-9) + 1) <= 262_144
            yield g


def _per_point_radii(basis, rank_tol, cap):
    """Reference for the sorted pass: one point at a time, each point's
    residual built from scratch against the accepted directions."""
    q = basis.shape[0]
    row_norms = np.linalg.norm(basis, axis=1)
    pts, _ = _lattice.enumerate_ball(
        basis, float(row_norms.max()) * (1 + 1e-12), cap)
    sizes = np.linalg.norm(pts, axis=1)
    keep = sizes > rank_tol
    ortho, radii, realizers = [], [], []
    for v, r in zip(pts[keep], sizes[keep]):
        resid = v.copy()
        for u in ortho:
            resid -= (resid @ u) * u
        nr = np.linalg.norm(resid)
        if nr > rank_tol * max(1.0, r):
            ortho.append(resid / nr)
            radii.append(r)
            realizers.append(v)
            if len(radii) == q:
                break
    return np.array(radii), np.array(realizers)


def test_sorted_pass_matches_per_point_reference(rng):
    for g in _sorted_path_bases(rng, 12):
        radii, realizers = _generation_radii_sorted(
            g.discrete_basis, 1e-9, 10 ** 6)
        ref_radii, ref_realizers = _per_point_radii(
            g.discrete_basis, 1e-9, 10 ** 6)
        assert np.array_equal(radii, ref_radii)
        assert np.array_equal(realizers, ref_realizers)


def test_sorted_path_norms_match_brute_oracle(rng):
    for g in _sorted_path_bases(rng, 6):
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


def test_generation_data_budget_failure_not_cached():
    g = ch.standard_subgroup(3, 0, 3)  # 7 points in the unit ball
    for _ in range(2):
        with pytest.raises(EnumerationBudgetExceeded):
            generation_data(g, cap=5)
    np.testing.assert_allclose(ch.norms(g), [1.0, 1.0, 1.0])
