import gc
import math
import weakref

import numpy as np
import pytest

import chabauty as ch
from chabauty import _lattice, invariants, metric, subgroup
from chabauty.errors import EnumerationBudgetExceeded, InvalidPair, Unstable

from conftest import brute_gap, random_group


def line_lattice(alpha):
    return ch.make_subgroup(1, None, [[alpha]])


def test_gap_identical_is_zero(rng):
    for _ in range(5):
        n = int(rng.integers(1, 4))
        g = random_group(rng, n)
        assert ch.hausdorff_gap(g, g, 4.0) == 0.0


def test_gap_shifted_lattice():
    z2 = ch.standard_subgroup(2, 0, 2)
    stretched = ch.apply_linear(np.diag([1.1, 1.0]), z2)
    gap = ch.hausdorff_gap(z2, stretched, 1.0)
    assert abs(gap - 0.1) <= 0.05


def test_gap_equal_traces():
    assert ch.hausdorff_gap(line_lattice(10.0), ch.make_subgroup(1),
                            1.0) == 0.0


def test_distance_self_zero(rng):
    g = random_group(rng, 3)
    assert ch.chabauty_distance(g, g) == 0.0


def test_distance_sparse_lattices_approach_trivial():
    trivial = ch.make_subgroup(1)
    vals = [ch.chabauty_distance(line_lattice(a), trivial)
            for a in (2.0, 4.0, 8.0, 16.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert ch.chabauty_distance(line_lattice(128.0), trivial) < 0.02


def test_distance_lattice_vs_plane():
    d = ch.chabauty_distance(ch.standard_subgroup(2, 0, 2),
                             ch.standard_subgroup(2, 2, 0))
    assert d >= 0.4


def test_neighborhood_examples(rng):
    g = random_group(rng, 2)
    assert ch.neighborhood_test(g, g, 4.0, 1e-9)
    assert ch.neighborhood_test(line_lattice(100.0), ch.make_subgroup(1),
                                1.0, 0.01)
    assert not ch.neighborhood_test(line_lattice(1.05), line_lattice(1.0),
                                    10.0, 0.1)


def test_metric_symmetry_exact(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        a, b = random_group(rng, n), random_group(rng, n)
        assert ch.chabauty_distance(a, b) == ch.chabauty_distance(b, a)


def test_metric_triangle(rng):
    params = ch.MetricParams()
    for _ in range(20):
        n = int(rng.integers(1, 4))
        a, b, c = (random_group(rng, n) for _ in range(3))
        dac = ch.chabauty_distance(a, c, params)
        dab = ch.chabauty_distance(a, b, params)
        dbc = ch.chabauty_distance(b, c, params)
        assert dac <= dab + dbc + 2 * params.grid


def test_metric_separation(rng):
    def far_apart(a, b):
        # compare span projectors (continuous bases are sign-ambiguous)
        pa = a.continuous_basis.T @ a.continuous_basis
        pb = b.continuous_basis.T @ b.continuous_basis
        delta = np.max(np.abs(pa - pb)) if pa.size else 0.0
        if a.discrete_basis.shape == b.discrete_basis.shape:
            if a.discrete_basis.size:
                delta = max(delta, np.max(np.abs(
                    a.discrete_basis - b.discrete_basis)))
            return delta > 0.1
        return True

    found = 0
    while found < 15:
        n = int(rng.integers(1, 4))
        a, b = random_group(rng, n), random_group(rng, n)
        if a.group_type != b.group_type or not far_apart(a, b):
            continue
        assert ch.chabauty_distance(a, b) > 0.0
        found += 1


def test_topology_consistency():
    for n in (1, 2, 3):
        z = ch.standard_subgroup(n, 0, n)
        trivial = ch.make_subgroup(n)
        full = ch.standard_subgroup(n, n, 0)
        to_trivial = [ch.chabauty_distance(ch.scale(z, float(k)), trivial)
                      for k in (2, 4, 8, 16, 32, 64, 128, 256)]
        to_full = [ch.chabauty_distance(ch.scale(z, 1.0 / k), full)
                   for k in (2, 4, 8, 16, 32, 64, 128, 256)]
        assert all(a >= b - 1e-12 for a, b in zip(to_trivial, to_trivial[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(to_full, to_full[1:]))
        assert to_trivial[-1] < 0.02
        assert to_full[-1] < 0.02


def test_classify_limit_shrinking_generator():
    fam = ch.degeneration_family(2, (0, 2), (1, 1))
    report = ch.classify_limit(fam, [64, 128, 256, 512, 1024], 0.01)
    assert report.group_type == (1, 1)
    assert report.to_zero == (0,)


def test_classify_limit_escaping_generator():
    fam = ch.degeneration_family(2, (0, 2), (0, 1))
    report = ch.classify_limit(fam, [64, 128, 256, 512, 1024], 0.01)
    assert report.group_type == (0, 1)
    assert report.to_infinity == (1,)


def test_classify_limit_constant_family():
    report = ch.classify_limit(lambda t: ch.standard_subgroup(3, 0, 3),
                               [1.0, 2.0, 3.0], 0.01)
    assert report.group_type == (0, 3)
    assert report.to_zero == () and report.to_infinity == ()


def test_classify_limit_unstable():
    def flip(t):
        if int(t) % 2:
            return ch.standard_subgroup(2, 0, 2)
        return ch.make_subgroup(2, None, [(0.001, 0.0), (0.0, 1.0)])
    with pytest.raises(Unstable):
        ch.classify_limit(flip, [1, 2, 3, 4, 5], 0.01)


def test_degeneration_family_rejects_non_arrow():
    with pytest.raises(InvalidPair):
        ch.degeneration_family(3, (0, 2), (2, 0))


def test_frontier_realization_sample():
    for hi, lo in [((0, 2), (1, 1)), ((1, 1), (1, 0))]:
        fam = ch.degeneration_family(3, hi, lo)
        report = ch.classify_limit(fam, [64, 128, 256, 512, 1024], 0.01)
        assert tuple(report.group_type) == lo


def test_params_validation():
    with pytest.raises(ValueError):
        ch.MetricParams(radii=(1.0, 1.0), weights=(1.0, 0.5))
    with pytest.raises(ValueError):
        ch.MetricParams(grid=0.0)
    with pytest.raises(ValueError):
        ch.MetricParams(grid=float("nan"))
    with pytest.raises(ValueError):
        ch.MetricParams(radii=(1.0, float("inf")), weights=(1.0, 0.5))
    with pytest.raises(ValueError):
        ch.MetricParams(cap=0)


def test_dense_gap_matches_brute_oracle(rng):
    params = ch.MetricParams()
    for i in range(20):
        n = 2 + (i // 2) % 2
        radius = (1.0, 2.0, 4.0, 8.0)[(i // 4) % 4]
        a = random_group(rng, n, (0, n))
        if i % 2 == 0:  # a near pair (I + eps M) a
            eps = 10.0 ** rng.uniform(-3, -1)
            b = ch.apply_linear(np.eye(n) + eps * rng.normal(size=(n, n)), a)
        else:
            b = random_group(rng, n, (0, n))
        want = brute_gap(a.discrete_basis, b.discrete_basis, radius)
        nu = _lattice.dual_coefficient_norms(a.discrete_basis)
        got = metric._dense_gap(a, b, metric._TargetProfile(b), radius, nu,
                                params, None)
        assert got == pytest.approx(want, abs=1e-12)
        oracle = max(want, brute_gap(b.discrete_basis, a.discrete_basis,
                                     radius))
        gap = ch.hausdorff_gap(a, b, radius, params)
        assert oracle - params.grid <= gap <= oracle + params.grid / 2


def test_budget_error_states_its_numbers():
    lattice = ch.make_subgroup(2, None, [(1.0, 0.0), (0.3, 1.1)])
    with pytest.raises(EnumerationBudgetExceeded) as info:
        ch.hausdorff_gap(ch.make_subgroup(2, [(0.6, 0.8)]), lattice, 4.0,
                         ch.MetricParams(cap=10))
    message = str(info.value)
    assert "over the cap of 10 " in message
    for part in ("evaluations", "open cells left", "incumbent",
                 "best open bound"):
        assert part in message


def test_caches_free_their_subgroups():
    caches = (subgroup._solvers, metric._enum_cache,
              invariants._generation_memo)
    gc.collect()
    before = [len(c) for c in caches]
    a = ch.make_subgroup(2, None, [(1.0, 0.0), (0.3, 1.1)])
    b = ch.make_subgroup(2, None, [(1.02, 0.01), (0.29, 1.12)])
    plane = ch.standard_subgroup(2, 2, 0)
    ch.chabauty_distance(a, b)
    ch.chabauty_distance(plane, a)
    ch.norms(a)
    assert all(len(c) > n for c, n in zip(caches, before))
    refs = [weakref.ref(g) for g in (a, b, plane)]
    del a, b, plane
    gc.collect()
    assert all(r() is None for r in refs)
    assert [len(c) for c in caches] == before


PAIRS = [((2, 0, 2), (2, 2, 0)), ((2, 2, 0), (2, 0, 2)),
         ((2, 0, 2), (2, 0, 2)), ((3, 1, 1), (3, 0, 3)),
         ((1, 0, 1), (1, 0, 0))]


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("pair", PAIRS)
def test_radius_and_eps_must_be_finite(pair, value):
    a, b = (ch.standard_subgroup(*t) for t in pair)
    with pytest.raises(ValueError, match="radius must be finite"):
        ch.hausdorff_gap(a, b, value)
    with pytest.raises(ValueError, match="radius must be finite"):
        ch.neighborhood_test(a, b, value, 0.1)
    with pytest.raises(ValueError, match="eps must be finite"):
        ch.neighborhood_test(a, b, 2.0, value)


def test_gap_from_the_full_space_is_the_covering_radius(rng):
    for n in range(1, 5):
        full = ch.standard_subgroup(n, n, 0)
        for p in range(n):
            target = random_group(rng, n, (p, n - p))
            mu = subgroup._solver(target).covering_radius()[0]
            lower = random_group(rng, n, (p, n - p - 1))
            for radius in (0.25, 0.5, 1.0, 2.0, 4.0):
                assert ch.hausdorff_gap(full, target, radius) == \
                    min(radius, mu)
                assert ch.hausdorff_gap(target, full, radius) == \
                    min(radius, mu)
                assert ch.hausdorff_gap(full, lower, radius) == radius


def test_lattice_of_r6_against_r6_answers():
    lattice = ch.random_subgroup(6, (0, 6), seed=6)
    full = ch.standard_subgroup(6, 6, 0)
    mu = subgroup._solver(lattice).covering_radius()[0]
    params = ch.MetricParams()
    want = sum(w * min(1.0, r, mu)
               for r, w in zip(params.radii, params.weights))
    assert ch.chabauty_distance(lattice, full) == pytest.approx(want)
