import itertools
import math

import numpy as np
import pytest

import chabauty as ch
from chabauty import invariants
from chabauty.errors import (BasePointNotAligned, FlagsTooFar,
                             InconsistentData, InvalidPair, InvalidStratum,
                             NotDecomposable, NotInNeighborhood, OutOfRange)

from conftest import random_type


def rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def perturbed_group(rng, n, p, q, delta):
    """Random member of the scale-delta neighborhood of the aligned
    (p, q) base point, exercising fine lattices, offsets and coarse
    directions."""
    eye = np.eye(n)
    cont, disc = [], []
    for i in range(p):
        if rng.random() < 0.5:
            disc.append(eye[i] * delta * rng.uniform(0.15, 0.3))
        else:
            cont.append(eye[i])
    for i in range(q):
        w = np.zeros(n)
        if p and rng.random() < 0.7:
            w[:p] = rng.uniform(-2.0, 2.0, size=p)
        disc.append(eye[p + i] + w)
    for j in range(int(rng.integers(0, n - p - q + 1))):
        big = (3.0 / delta) * rng.uniform(1.0, 2.0)
        w = np.zeros(n)
        w[:p + q] = rng.uniform(-0.4, 0.4, size=p + q)
        disc.append(big * eye[p + q + j] + w)
    g = ch.make_subgroup(n, cont, disc)
    tilt = np.eye(n) + 0.2 * delta * rng.uniform(-1, 1, size=(n, n))
    return ch.apply_linear(tilt, g)


# --- linear decompositions and the aligning rotation ---------------------


def test_linear_decomposition_aligned_cases():
    g = ch.standard_subgroup(3, 1, 1)
    lin = ch.linear_decomposition(g, 0.1)
    np.testing.assert_allclose(np.abs(lin.fine), [[1, 0, 0]], atol=1e-9)
    np.testing.assert_allclose(np.abs(lin.medium), [[0, 1, 0]], atol=1e-9)
    np.testing.assert_allclose(np.abs(lin.coarse), [[0, 0, 1]], atol=1e-9)


def test_linear_decomposition_small_vector():
    g = ch.make_subgroup(2, None, [(0.01, 0.0), (0.0, 5.0)])
    lin = ch.linear_decomposition(g, 0.1)
    assert lin.block_type == (1, 1)
    np.testing.assert_allclose(np.abs(lin.fine), [[1.0, 0.0]], atol=1e-9)
    np.testing.assert_allclose(np.abs(lin.medium), [[0.0, 1.0]], atol=1e-9)
    assert lin.coarse.shape == (0, 2)


def test_linear_decomposition_full_lattice():
    lin = ch.linear_decomposition(ch.standard_subgroup(3, 0, 3), 0.5)
    assert lin.block_type == (0, 3)
    assert lin.fine.shape == (0, 3)
    assert lin.medium.shape == (3, 3)


def test_linear_decomposition_threshold():
    tiny = ch.make_subgroup(2, None, [(0.1, 0.0)])
    with pytest.raises(NotDecomposable):
        ch.linear_decomposition(tiny, 0.1)


def test_trivialisation_identity():
    base = ch.standard_flag(3, 1, 1)
    tau = ch.trivialisation(base, base).matrix
    np.testing.assert_allclose(tau, np.eye(3), atol=1e-12)


def test_trivialisation_2d_rotation():
    base = ch.standard_flag(2, 1, 0)
    rot = rotation2(0.1)
    flag = ch.LinearDecomposition(base.fine @ rot.T, base.medium,
                                  base.coarse @ rot.T)
    tau = ch.trivialisation(flag, base).matrix
    np.testing.assert_allclose(tau, rotation2(-0.1), atol=1e-12)


def test_trivialisation_continuity():
    base = ch.standard_flag(2, 1, 0)
    rot = rotation2(1e-6)
    flag = ch.LinearDecomposition(base.fine @ rot.T, base.medium,
                                  base.coarse @ rot.T)
    tau = ch.trivialisation(flag, base).matrix
    assert np.linalg.norm(tau - np.eye(2)) <= 1e-5


def test_trivialisation_far_flags_rejected():
    base = ch.standard_flag(2, 1, 0)
    rot = rotation2(math.pi / 2)
    flag = ch.LinearDecomposition(base.fine @ rot.T, base.medium,
                                  base.coarse @ rot.T)
    with pytest.raises(FlagsTooFar):
        ch.trivialisation(flag, base)


def test_trivialisation_coherence(rng):
    for _ in range(15):
        n = int(rng.integers(2, 5))
        p, q = random_type(rng, n)
        base = ch.standard_flag(n, p, q)
        tilt = np.eye(n) + 0.05 * rng.uniform(-1, 1, size=(n, n))
        qmat, _ = np.linalg.qr(tilt)
        flag = ch.LinearDecomposition(base.fine @ qmat.T,
                                      base.medium @ qmat.T,
                                      base.coarse @ qmat.T)
        tau = ch.trivialisation(flag, base).matrix
        np.testing.assert_allclose(tau @ tau.T, np.eye(n), atol=1e-10)
        for block, ref in ((flag.fine, base.fine),
                           (flag.medium, base.medium),
                           (flag.coarse, base.coarse)):
            if block.shape[0] == 0:
                continue
            image = block @ tau.T
            resid = image - (image @ ref.T) @ ref
            assert np.max(np.abs(resid)) < 1e-9


# --- local decomposition and reconstruction ------------------------------


def test_local_decomposition_base_point():
    base = ch.standard_subgroup(3, 1, 1)
    lin, loc = ch.local_decomposition(base, base, 0.1)
    assert loc.fine_part.group_type == (1, 0)
    np.testing.assert_allclose(loc.medium_basis, np.eye(1), atol=1e-12)
    assert loc.coarse_count == 0
    np.testing.assert_allclose(loc.medium_offset, np.zeros((1, 1)),
                               atol=1e-12)


def test_local_decomposition_uses_one_rank_tolerance():
    g = ch.make_subgroup(3, None, [(1, 0, 0), (0, 1, 0), (0.2, 0.3, 50.0)])
    base = ch.standard_subgroup(3, 0, 2)
    ch.local_decomposition(g, base, 0.1, ch.Tolerance(rank_tol=1e-7))
    assert list(invariants._generation_memo[g]) == [(1e-07, 1000000)]


def test_local_decomposition_coarse_offsets():
    base = ch.standard_subgroup(3, 0, 2)
    g = ch.make_subgroup(3, None, [(1, 0, 0), (0, 1, 0), (0.2, 0.3, 50.0)])
    lin, loc = ch.local_decomposition(g, base, 0.1)
    np.testing.assert_allclose(loc.medium_basis, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(np.abs(loc.coarse_basis), [[50.0]],
                               atol=1e-9)
    np.testing.assert_allclose(
        np.abs(loc.coarse_offset_medium), [[0.2, 0.3]], atol=1e-9)
    rec = ch.reconstruct(lin, loc)
    assert ch.chabauty_distance(rec, g) < 1e-6


def test_local_decomposition_rejects_far_flag():
    base = ch.standard_subgroup(2, 1, 1)
    g = ch.apply_linear(rotation2(0.8), base)
    with pytest.raises(NotInNeighborhood):
        ch.local_decomposition(g, base, 0.1)


def test_local_decomposition_requires_aligned_base():
    base = ch.apply_linear(rotation2(0.3), ch.standard_subgroup(2, 1, 1))
    with pytest.raises(BasePointNotAligned):
        ch.local_decomposition(base, base, 0.1)


def test_membership_reports_reason():
    base = ch.standard_subgroup(2, 1, 1)
    report = ch.in_scale_neighborhood(
        ch.apply_linear(rotation2(0.8), base), base, 0.1)
    assert not report
    assert report.reason


def test_reconstruct_base_point():
    base = ch.standard_subgroup(4, 1, 2)
    lin, loc = ch.local_decomposition(base, base, 0.1)
    rec = ch.reconstruct(lin, loc)
    assert ch.chabauty_distance(rec, base) < 1e-9


def test_reconstruct_collapsed_formula():
    # no offsets and no coarse part: the group is the rotated direct sum
    base = ch.standard_subgroup(2, 1, 1)
    lin, loc = ch.local_decomposition(base, base, 0.1)
    assert loc.coarse_count == 0
    rec = ch.reconstruct(lin, loc)
    assert ch.chabauty_distance(rec, base) < 1e-9


def test_reconstruct_validates_shapes():
    base = ch.standard_subgroup(3, 1, 1)
    lin, loc = ch.local_decomposition(base, base, 0.1)
    bad = ch.LocalDecomposition(loc.fine_part, np.eye(2), loc.coarse_basis,
                                np.zeros((2, 1)), loc.coarse_offset_fine,
                                np.zeros((0, 2)))
    with pytest.raises(InconsistentData):
        ch.reconstruct(lin, bad)


def test_local_decomposition_nontrivial_fine_offsets():
    # the fine block carries a genuine lattice, so the medium offset is
    # reduced modulo it and stays nonzero
    delta = 0.1
    base = ch.standard_subgroup(2, 1, 1)
    g = ch.make_subgroup(2, None, [(0.02, 0.0), (0.007, 1.0)])
    lin, loc = ch.local_decomposition(g, base, delta)
    assert loc.fine_part.group_type == (0, 1)
    np.testing.assert_allclose(loc.medium_offset, [[0.007]], atol=1e-12)
    rec = ch.reconstruct(lin, loc)
    assert ch.chabauty_distance(rec, g) < 1e-9


def test_local_decomposition_tiny_fine_scales():
    # a fine lattice far below the scale must not trigger any
    # medium-radius enumeration blowup
    delta = 0.03
    base = ch.standard_subgroup(4, 2, 1)
    g = ch.make_subgroup(4, None, [
        (0.004, 0, 0, 0), (0, 0.009, 0, 0), (0, 0, 1.0, 0),
        (0.001, 0.002, 0.3, 120.0)])
    assert ch.in_scale_neighborhood(g, base, delta)
    lin, loc = ch.local_decomposition(g, base, delta)
    assert loc.coarse_count == 1
    rec = ch.reconstruct(lin, loc)
    assert ch.chabauty_distance(rec, g) < 1e-6


def test_membership_norm_budget():
    # fine and coarse scales can each be admissible while their budget
    # sum still crosses the scale
    delta = 0.1
    base = ch.standard_subgroup(3, 1, 1)
    g = ch.make_subgroup(3, None, [(0.08, 0, 0), (0, 1, 0), (0, 0, 15.0)])
    report = ch.in_scale_neighborhood(g, base, delta)
    assert not report
    assert "budget" in report.reason


def test_roundtrip_random_cases(rng):
    done = 0
    while done < 40:
        n = int(rng.integers(1, 5))
        p, q = random_type(rng, n)
        delta = float(rng.choice([0.05, 0.1]))
        base = ch.standard_subgroup(n, p, q)
        g = perturbed_group(rng, n, p, q, delta)
        if not ch.in_scale_neighborhood(g, base, delta):
            continue
        lin, loc = ch.local_decomposition(g, base, delta)
        rec = ch.reconstruct(lin, loc)
        assert ch.chabauty_distance(rec, g) < 1e-6
        done += 1


# --- link geometry --------------------------------------------------------


def link_point(delta):
    base = ch.standard_subgroup(3, 1, 1)
    g = ch.make_subgroup(3, None, [(delta / 4, 0, 0), (0, 1, 0),
                                   (0, 0, 4 / delta)])
    return base, g


def test_on_link_cases():
    delta = 0.1
    base, g = link_point(delta)
    assert ch.on_link(g, base, delta)
    assert not ch.on_link(base, base, delta)
    shifted = ch.make_subgroup(3, None, [(delta / 4, 0, 0), (0, 1.05, 0),
                                         (0, 0, 4 / delta)])
    assert not ch.on_link(shifted, base, delta)


def test_cone_map_scales_blocks():
    delta = 0.1
    base, g = link_point(delta)
    lin, loc = ch.local_decomposition(g, base, delta)
    same = ch.cone_map(1.0, lin, loc)
    np.testing.assert_allclose(same.coarse_basis, loc.coarse_basis)
    np.testing.assert_allclose(ch.norms(same.fine_part),
                               ch.norms(loc.fine_part))
    half = ch.cone_map(0.5, lin, loc)
    np.testing.assert_allclose(ch.norms(half.fine_part),
                               0.5 * ch.norms(loc.fine_part), atol=1e-12)
    np.testing.assert_allclose(half.coarse_basis, 2.0 * loc.coarse_basis)
    np.testing.assert_allclose(half.coarse_offset_medium,
                               loc.coarse_offset_medium)
    rec = ch.reconstruct(lin, half)
    assert ch.in_scale_neighborhood(rec, base, delta)
    with pytest.raises(OutOfRange):
        ch.cone_map(2.0, lin, loc)


def test_cone_map_apex():
    delta = 0.1
    base, g = link_point(delta)
    lin, loc = ch.local_decomposition(g, base, delta)
    apex = ch.cone_map(0.0, lin, loc)
    rec = ch.reconstruct(lin, apex)
    assert ch.chabauty_distance(rec, base) < 1e-9


def test_bundle_projection_values():
    delta = 0.1
    base, g = link_point(delta)
    lin, loc = ch.local_decomposition(g, base, delta)
    fine, coarse, lam = ch.bundle_projection(lin, loc, delta)
    assert lam == pytest.approx(0.5)
    assert ch.norms(fine)[-1] == pytest.approx(1.0)
    assert ch.norms(coarse)[0] == pytest.approx(1.0)


def test_bundle_projection_pure_cases():
    delta = 0.1
    base = ch.standard_subgroup(3, 1, 1)
    pure_fine = ch.make_subgroup(3, None, [(delta / 2, 0, 0), (0, 1, 0)])
    lin, loc = ch.local_decomposition(pure_fine, base, delta)
    assert ch.bundle_projection(lin, loc, delta)[2] == pytest.approx(1.0)
    pure_coarse = ch.make_subgroup(3, [(1, 0, 0)],
                                   [(0, 1, 0), (0, 0, 2 / delta)])
    lin, loc = ch.local_decomposition(pure_coarse, base, delta)
    assert ch.bundle_projection(lin, loc, delta)[2] == pytest.approx(0.0)


def test_bundle_projection_invalid_stratum():
    base = ch.standard_subgroup(2, 0, 0)
    lin, loc = ch.local_decomposition(
        ch.make_subgroup(2, None, [(30.0, 0.0)]), base, 0.1)
    with pytest.raises(InvalidStratum):
        ch.bundle_projection(lin, loc, 0.1)


def test_cone_consistency_of_projection():
    delta = 0.1
    base, g = link_point(delta)
    lin, loc = ch.local_decomposition(g, base, delta)
    fine0, coarse0, _ = ch.bundle_projection(lin, loc, delta)
    for t in (0.5, 0.8, 1.5):
        moved = ch.cone_map(t, lin, loc)
        fine, coarse, _ = ch.bundle_projection(lin, moved, delta,
                                               require_link=False)
        assert ch.chabauty_distance(fine, fine0) < 1e-9
        assert ch.chabauty_distance(coarse, coarse0) < 1e-9


# --- incidence order, dimensions, fibers ----------------------------------


def test_type_order_examples():
    assert ch.type_leq((1, 1), (0, 2))
    assert not ch.type_leq((0, 1), (1, 1))
    assert ch.type_leq((1, 1), (1, 1))


def test_order_axioms_exhaustive():
    for n in range(7):
        types = ch.all_types(n)
        for a in types:
            assert ch.type_leq(a, a)
        for a, b in itertools.permutations(types, 2):
            if ch.type_leq(a, b) and ch.type_leq(b, a):
                assert a == b
        for a, b, c in itertools.product(types, repeat=3):
            if ch.type_leq(a, b) and ch.type_leq(b, c):
                assert ch.type_leq(a, c)


def test_stratum_dimension_plane():
    dims = {t: ch.stratum_dimension(2, t)
            for t in [(0, 2), (1, 1), (0, 1), (1, 0), (2, 0), (0, 0)]}
    assert list(dims.values()) == [4, 2, 2, 1, 0, 0]


def test_dimension_monotone_exhaustive():
    for n in range(1, 7):
        types = ch.all_types(n)
        for a, b in itertools.permutations(types, 2):
            if ch.type_leq(a, b):
                assert ch.stratum_dimension(n, b) > ch.stratum_dimension(n, a)


def test_fiber_dimension_values():
    assert ch.fiber_dimension(3, (0, 1), (0, 3)) == 2
    assert ch.fiber_dimension(3, (0, 1), (0, 2)) == 1
    # the link of a rank-two lattice in R^3 is a two-torus
    assert ch.fiber_dimension(3, (0, 2), (0, 3)) == 2
    for n in range(2, 7):
        assert ch.fiber_dimension(n, (0, n - 1), (0, n)) == n - 1
    with pytest.raises(InvalidPair):
        ch.fiber_dimension(3, (0, 2), (0, 2))


def test_fiber_dimension_nonnegative_exhaustive():
    for n in range(1, 7):
        types = ch.all_types(n)
        for a, b in itertools.permutations(types, 2):
            if ch.type_leq(a, b):
                assert ch.fiber_dimension(n, a, b) >= 0


def test_hasse_diagram_plane():
    edges = ch.hasse_diagram(2)
    as_tuples = {(tuple(a), tuple(b)) for a, b in edges}
    assert as_tuples == {
        ((0, 2), (1, 1)), ((0, 2), (0, 1)),
        ((1, 1), (2, 0)), ((1, 1), (1, 0)),
        ((0, 1), (1, 0)), ((0, 1), (0, 0)),
    }
