import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chabauty as ch
from chabauty import invariants
from chabauty.errors import (BasePointNotAligned, FlagsTooFar,
                             InconsistentData, InvalidPair, InvalidStratum,
                             NotDecomposable, NotInNeighborhood, OutOfRange)

from conftest import brute_closest, random_type, same_group


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


def test_flag_beyond_the_alignment_is_a_failed_membership():
    # the flag gap 0.8 is below delta = 0.9 but above trivialisation's 0.7
    report = ch.in_scale_neighborhood(
        ch.make_subgroup(2, None, [(0.6, 0.8)]), ch.standard_subgroup(2, 0, 1),
        0.9)
    assert not report
    assert report.reason == "blockwise principal angles exceed the bound"


@pytest.mark.parametrize("rows, base_type, reason", [
    ([[0.1]], (0, 1), "not decomposable at scale 0.1"),
    ([[1.0]], (1, 0), "scale type (0, 1) does not match the base type (1, 0)"),
    (rotation2(math.pi / 6), (0, 2),
     "no distinguished basis within delta of the identity"),
    (0.5 * np.eye(2), (0, 2),
     "distinguished vectors do not generate the medium lattice"),
], ids=["on-threshold", "other-type", "rotated", "index-four"])
def test_rejection_reasons(rows, base_type, reason):
    g = ch.make_subgroup(len(rows[0]), None, rows)
    base = ch.standard_subgroup(g.ambient_dim, *base_type)
    with pytest.raises(NotInNeighborhood) as info:
        ch.local_decomposition(g, base, 0.1)
    assert str(info.value) == reason
    report = ch.in_scale_neighborhood(g, base, 0.1)
    assert not report
    assert report.reason == reason


# hand-built subgroups that break the ClosedSubgroup invariants: discrete
# rows inside the continuous part, or a badly skewed discrete basis
@pytest.mark.parametrize("cont, disc, base_type, error, reason", [
    ([[1, 0]], [[1e-3, 0]], (2, 0), InconsistentData,
     "fine block dimension mismatch"),
    ([[1, 0]], [[1, 0]], (1, 1), InconsistentData,
     "medium block dimension mismatch"),
    ([[1, 0]], [[20, 1e-8]], (1, 0), NotInNeighborhood,
     "coarse lattice rank mismatch"),
    # rows (0, 31) and (0.01, -31e7) turned by 0.05 rad: the fine vector
    # (0.01, 0) is the second row plus 1e7 times the first, and one unit
    # in the last place of 3e8 (6e-8) left in its coarse coordinate
    # exceeds 1e-8
    ([], [[-1.5493542473910282, 30.961258072243954],
          [15493542.483897787, -309612580.72193974]], (1, 0),
     InconsistentData, "fine lattice escapes the fine block"),
], ids=["fine-in-continuous", "medium-in-continuous", "coarse-in-continuous",
        "skewed-basis"])
def test_hand_built_subgroups_are_refused(cont, disc, base_type, error,
                                          reason):
    g = ch.ClosedSubgroup(2, np.array(cont, dtype=float).reshape(-1, 2), disc)
    base = ch.standard_subgroup(2, *base_type)
    with pytest.raises(error) as info:
        ch.local_decomposition(g, base, 0.1)
    assert str(info.value) == reason
    report = ch.in_scale_neighborhood(g, base, 0.1)
    assert not report
    assert report.reason == reason


def test_unnormalised_continuous_row_decomposes_like_its_canonical_form():
    # a continuous row of length 1e10 scales the rounding of the rotation
    # by 1e10; the blocks come from the orthonormalised row all the same
    angle = 0.01
    g = ch.ClosedSubgroup(
        2, [[1e10 * math.cos(angle), 1e10 * math.sin(angle)]], [])
    base = ch.standard_subgroup(2, 1, 0)
    lin, loc = ch.local_decomposition(g, base, 0.1)
    lin_c, loc_c = ch.local_decomposition(
        ch.make_subgroup(2, g.continuous_basis), base, 0.1)
    np.testing.assert_array_equal(lin.fine, lin_c.fine)
    np.testing.assert_array_equal(loc.fine_part.continuous_basis,
                                  loc_c.fine_part.continuous_basis)
    assert loc.fine_part.discrete_rank == loc_c.fine_part.discrete_rank == 0


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
    # a coarse lattice of rank 2 counts with its shortest vector, 12
    g = ch.make_subgroup(3, None, [(0.06, 0, 0), (0, 12.0, 0), (0, 0, 30.0)])
    report = ch.in_scale_neighborhood(g, ch.standard_subgroup(3, 1, 0), delta)
    assert report.reason == "fine/coarse norm budget 0.143333 is not below 0.1"


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


def offsets_are_shortest(loc):
    """Every offset is no longer than its distance to the lattice it is
    taken modulo: the fine part (off its continuous directions) for the
    fine offsets, the medium lattice for the medium ones."""
    fine = loc.fine_part
    for offsets, cont, disc in (
            (loc.medium_offset, fine.continuous_basis, fine.discrete_basis),
            (loc.coarse_offset_fine, fine.continuous_basis,
             fine.discrete_basis),
            (loc.coarse_offset_medium, None, loc.medium_basis)):
        if offsets.size == 0:
            continue
        if cont is not None and cont.shape[0]:
            if np.max(np.abs(offsets @ cont.T)) > 1e-9:
                return False
        sizes = np.linalg.norm(offsets, axis=1)
        if disc.shape[0] and np.any(
                sizes > brute_closest(disc, offsets) + 1e-9):
            return False
    return True


def test_fine_part_is_the_whole_fine_lattice():
    # Z^5 + Z (1, ..., 1) / 2: its ball at the largest successive norm
    # holds only the +-e_i, which generate an index-2 sublattice
    half = 0.01 * np.vstack([np.eye(5)[1:], 0.5 * np.ones(5)])
    g = ch.make_subgroup(5, None, half)
    base = ch.standard_subgroup(5, 5, 0)
    assert ch.in_scale_neighborhood(g, base, 0.1)
    lin, loc = ch.local_decomposition(g, base, 0.1)
    assert invariants.discrete_covolume(loc.fine_part) == pytest.approx(
        invariants.discrete_covolume(g), rel=1e-9)
    rec = ch.reconstruct(lin, loc)
    assert ch.distance_to_subgroup(0.005 * np.ones(5), rec) < 1e-12
    assert same_group(rec, g)


def test_coarse_medium_offset_is_a_shortest_coset_representative():
    # the LLL basis of the medium lattice is not its distinguished basis
    rows = [[1.022, -0.026, 0.006, 0], [0.003, 1.014, 0.021, 0],
            [-0.031, 0.01, 0.993, 0], [0.685, 1.164, 0.513, 30]]
    g = ch.make_subgroup(4, None, rows)
    base = ch.standard_subgroup(4, 0, 3)
    lin, loc = ch.local_decomposition(g, base, 0.1)
    off = loc.coarse_offset_medium
    assert np.linalg.norm(off) == pytest.approx(
        brute_closest(loc.medium_basis, off)[0], abs=1e-12)
    assert np.linalg.norm(off) < 0.62
    assert same_group(ch.reconstruct(lin, loc), g)


@pytest.mark.parametrize("n, cont, disc, base_type, q, m", [
    # q = 0: a nearly horizontal line and a coarse row
    (2, [(1.0, 0.02)], [(0.3, 30.0)], (1, 0), 0, 1),
    # no coarse block: a nearly horizontal line and a medium row
    (2, [(1.0, 0.01)], [(0.4, 1.02)], (1, 1), 1, 0),
    # neither: a fine lattice fills the plane
    (2, None, [(0.02, 0.0), (0.005, 0.03)], (2, 0), 0, 0),
    # every block empty: R^0
    (0, None, None, (0, 0), 0, 0),
])
def test_empty_blocks_round_trip(n, cont, disc, base_type, q, m):
    g = ch.make_subgroup(n, cont, disc)
    lin, loc = ch.local_decomposition(g, ch.standard_subgroup(n, *base_type),
                                      0.1)
    p = base_type[0]
    assert loc.medium_basis.shape == (q, q)
    assert loc.coarse_basis.shape == (m, n - p - q)
    assert loc.medium_offset.shape == (q, p)
    assert loc.coarse_offset_fine.shape == (m, p)
    assert loc.coarse_offset_medium.shape == (m, q)
    assert same_group(ch.reconstruct(lin, loc), g)


@settings(max_examples=100)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_reconstruct_inverts_local_decomposition(seed, data):
    """Near an aligned base point of type (p, q) at delta = 0.1: fine
    lattices of rank up to 5 (some with the glue vector (1, ..., 1) / 2),
    continuous fine directions, medium rows I + 0.04 U(-1, 1) with fine
    offsets, and at most one coarse row (U(-3, 3), 30)."""
    p = data.draw(st.integers(0, 5))
    discrete = data.draw(st.integers(0, p))
    q = data.draw(st.integers(0 if p else 1, min(3, 6 - p)))
    coarse = data.draw(st.integers(0, min(1, 6 - p - q)))
    glue = data.draw(st.booleans())
    rng = np.random.default_rng(seed)
    n = p + q + coarse
    eye = np.eye(n)
    size = 0.1 * rng.uniform(0.15, 0.3)
    disc = [size * eye[i] for i in range(discrete)]
    if glue and discrete > 1:
        disc[0] = 0.5 * size * eye[:discrete].sum(axis=0)
    for i in range(q):
        row = eye[p + i].copy()
        row[p:p + q] += 0.04 * rng.uniform(-1, 1, q)
        row[:p] = rng.uniform(-2, 2, p)
        disc.append(row)
    for j in range(coarse):
        row = 30.0 * eye[p + q + j]
        row[:p + q] = rng.uniform(-3, 3, p + q)
        disc.append(row)
    g = ch.make_subgroup(n, eye[discrete:p], disc)
    base = ch.standard_subgroup(n, p, q)
    lin, loc = ch.local_decomposition(g, base, 0.1)
    assert offsets_are_shortest(loc)
    assert same_group(ch.reconstruct(lin, loc), g)


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


def test_off_link_by_flag_or_medium_offset():
    # each group misses the link by one condition only; bundle_projection
    # checks that its norm budget is delta / 2
    delta = 0.1
    base, g = link_point(delta)
    tilt = np.eye(3)
    tilt[:2, :2] = rotation2(1e-4)
    tilted = ch.apply_linear(tilt, g)
    lin, loc = ch.local_decomposition(tilted, base, delta)
    ch.bundle_projection(lin, loc, delta)
    assert ch.flag_gap(lin, ch.standard_flag(3, 1, 1)) > 1e-5
    assert not ch.on_link(tilted, base, delta)
    offset = ch.make_subgroup(3, None, [(delta / 4, 0, 0), (0.01, 1, 0),
                                        (0, 0, 4 / delta)])
    lin, loc = ch.local_decomposition(offset, base, delta)
    ch.bundle_projection(lin, loc, delta)
    assert ch.flag_gap(lin, ch.standard_flag(3, 1, 1)) < 1e-12
    assert abs(loc.medium_basis[0, 0] - 1.0) < 1e-12
    np.testing.assert_allclose(loc.medium_offset, [[0.01]])
    assert not ch.on_link(offset, base, delta)


def test_bundle_projection_off_link():
    delta = 0.1
    base, g = link_point(delta)
    lin, loc = ch.local_decomposition(g, base, delta)
    with pytest.raises(NotInNeighborhood, match="not on the link"):
        ch.bundle_projection(lin, ch.cone_map(0.5, lin, loc), delta)


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
