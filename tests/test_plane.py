import cmath
import math

import numpy as np
import pytest

import chabauty as ch
from chabauty.errors import (NotInC1, NotLattice, NotUnitSystole,
                             SingularBasePoint)

CORNER = cmath.exp(1j * math.pi / 3)


def rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def lattice(*gens):
    return ch.make_subgroup(2, None, [(z.real, z.imag)
                                      for z in map(complex, gens)])


def hexagonal():
    return lattice(1.0, CORNER)


def random_reduced_z(rng):
    x = rng.uniform(-0.5, 0.499)
    y = rng.uniform(math.sqrt(max(0.0, 1 - x * x)) + 0.02, 3.0)
    return complex(x, y)


def random_unit_systole_lattice(rng):
    z = random_reduced_z(rng)
    theta = rng.uniform(0.0, math.pi)
    return ch.apply_linear(rotation2(theta), lattice(1.0, z)), z, theta


# --- covolume normalization and suspension --------------------------------


def test_normalize_covolume_cases():
    z2 = ch.standard_subgroup(2, 0, 2)
    np.testing.assert_allclose(ch.normalize_covolume(z2).discrete_basis,
                               z2.discrete_basis, atol=1e-12)
    hexn = ch.normalize_covolume(hexagonal())
    assert ch.covolume(hexn) == pytest.approx(1.0, abs=1e-12)
    scalefac = (math.sqrt(3) / 2) ** -0.5
    assert ch.systole(hexn) == pytest.approx(scalefac)
    rank_one = lattice(cmath.exp(0.4j))
    line = ch.normalize_covolume(rank_one)
    assert ch.type_of(line) == (1, 0)
    with pytest.raises(NotUnitSystole):
        ch.normalize_covolume(ch.scale(z2, 2.0))


def test_normalize_covolume_unit_output(rng):
    for _ in range(25):
        g, _, _ = random_unit_systole_lattice(rng)
        assert ch.covolume(ch.normalize_covolume(g)) == pytest.approx(
            1.0, abs=1e-9)


def test_suspension_identity_at_zero(rng):
    z2 = ch.standard_subgroup(2, 0, 2)
    assert ch.chabauty_distance(ch.suspension_map(z2, 0.0), z2) < 1e-6
    g, _, _ = random_unit_systole_lattice(rng)
    gn = ch.normalize_covolume(g)
    assert ch.chabauty_distance(ch.suspension_map(gn, 0.0), gn) < 1e-6


def test_suspension_on_lines_and_at_infinity():
    line = ch.make_subgroup(2, [(math.cos(0.3), math.sin(0.3))], None)
    out = ch.suspension_map(line, 2.0)
    assert ch.type_of(out) == (0, 1)
    np.testing.assert_allclose(out.discrete_basis,
                               [[2 * math.cos(0.3), 2 * math.sin(0.3)]],
                               atol=1e-12)
    assert ch.chabauty_distance(ch.suspension_map(line, 0.0), line) == 0.0
    top = ch.suspension_map(ch.standard_subgroup(2, 0, 2), math.inf)
    assert ch.type_of(top) == (0, 0)
    with pytest.raises(NotInC1):
        ch.suspension_map(ch.scale(ch.standard_subgroup(2, 0, 2), 1.3), 1.0)


def test_suspension_escapes_monotonically():
    z2 = ch.standard_subgroup(2, 0, 2)
    trivial = ch.make_subgroup(2)
    vals = [ch.chabauty_distance(ch.suspension_map(z2, float(t)), trivial)
            for t in (1, 2, 4, 8, 16, 32, 64, 128)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


# --- fundamental domain reduction ------------------------------------------


def test_reduce_square_lattice():
    form = ch.reduce_lattice(ch.standard_subgroup(2, 0, 2))
    assert form.z == pytest.approx(1j)
    assert form.theta == pytest.approx(0.0)


def test_reduce_hexagonal_canonical_corner():
    form = ch.reduce_lattice(hexagonal())
    assert form.z == pytest.approx(CORNER)


def test_reduce_interior_point():
    form = ch.reduce_lattice(lattice(1.0, 0.3 + 2.0j))
    assert form.z == pytest.approx(0.3 + 2.0j)


def test_reduce_rejects_non_lattices():
    with pytest.raises(NotLattice):
        ch.reduce_lattice(ch.standard_subgroup(2, 1, 1))
    with pytest.raises(NotUnitSystole):
        ch.reduce_lattice(ch.scale(ch.standard_subgroup(2, 0, 2), 1.5))


def test_reduce_reconstructs_lattice(rng):
    for _ in range(30):
        g, _, _ = random_unit_systole_lattice(rng)
        form = ch.reduce_lattice(g)
        rebuilt = ch.apply_linear(rotation2(-form.theta),
                                  lattice(1.0, form.z))
        assert ch.chabauty_distance(rebuilt, g) < 1e-6
        assert abs(form.z) >= 1.0 - 1e-9
        assert abs(form.z.real) <= 0.5 + 1e-9


def test_reduce_boundary_lattices(rng):
    # circle edges (both glued sides), vertical edges, and near-corner
    # points all land on canonical representatives and reconstruct
    def draw(mode):
        if mode == 0:
            return cmath.exp(1j * rng.uniform(math.pi / 3 + 0.01,
                                              math.pi / 2 - 0.01))
        if mode == 1:
            return cmath.exp(1j * rng.uniform(math.pi / 2 + 0.01,
                                              2 * math.pi / 3 - 0.01))
        if mode == 2:
            side = 0.5 if rng.random() < 0.5 else -0.5
            return complex(side, rng.uniform(0.87, 3.0))
        return (1 + rng.uniform(0, 0.02)) * cmath.exp(
            1j * (math.pi / 3 + rng.uniform(0.002, 0.05)))

    for k in range(40):
        z = draw(k % 4)
        g = ch.apply_linear(rotation2(rng.uniform(0, math.pi)),
                            lattice(1.0, z))
        form = ch.reduce_lattice(g)
        on_circle = abs(abs(form.z) - 1) <= 1e-7
        assert abs(form.z) >= 1 - 1e-8
        assert abs(form.z.real) <= 0.5 + 1e-8
        if on_circle:
            assert form.z.real >= -1e-7
        else:
            assert form.z.real < 0.5
        rebuilt = ch.apply_linear(rotation2(-form.theta),
                                  lattice(1.0, form.z))
        assert ch.chabauty_distance(rebuilt, g) < 1e-6


def test_reduce_matches_shortest_vector_oracle(rng):
    for _ in range(30):
        g, z, _ = random_unit_systole_lattice(rng)
        pts = ch.points_in_ball(g, abs(z) * (1 + 1e-9))
        cplx = pts[:, 0] + 1j * pts[:, 1]
        cplx = cplx[np.abs(cplx) > 1e-9]
        shortest = np.min(np.abs(cplx))
        assert shortest == pytest.approx(1.0, abs=1e-9)
        # second shortest independent vector has length |z|
        indep = [w for w in cplx if abs((w / cplx[np.argmin(np.abs(cplx))]
                                         ).imag) > 1e-9]
        assert min(abs(w) for w in indep) == pytest.approx(abs(z), abs=1e-9)
        assert ch.reduce_lattice(g).z == pytest.approx(z, abs=1e-9)


# --- base points on the glued sphere ---------------------------------------


def test_base_point_rank_one_maps_to_infinity():
    g = lattice(cmath.exp(0.7j))
    assert ch.base_point(g) == ch.INFINITY_POINT


def test_base_point_vertical_gluing():
    a = lattice(1.0, 0.5 + 2.0j)
    b = lattice(1.0, -0.5 + 2.0j)
    assert ch.base_point(a) == pytest.approx(ch.base_point(b))


def test_base_point_circle_gluing():
    theta = 0.25
    a = lattice(1.0, cmath.exp(1j * (math.pi / 2 + theta)))
    b = lattice(1.0, cmath.exp(1j * (math.pi / 2 - theta)))
    assert ch.base_point(a) == pytest.approx(ch.base_point(b))


# --- stabilizers ------------------------------------------------------------


def test_stabilizer_orders():
    assert ch.stabilizer_order(ch.standard_subgroup(2, 0, 2)) == 2
    assert ch.stabilizer_order(hexagonal()) == 3
    assert ch.stabilizer_order(lattice(1.0, 0.3 + 2.0j)) == 1
    assert ch.stabilizer_order(lattice(cmath.exp(0.4j))) == 1


def test_stabilizer_rotation_invariant(rng):
    for theta in (0.3, 1.1, 2.5):
        rot = rotation2(theta)
        assert ch.stabilizer_order(
            ch.apply_linear(rot, ch.standard_subgroup(2, 0, 2))) == 2
        assert ch.stabilizer_order(ch.apply_linear(rot, hexagonal())) == 3
    for _ in range(20):
        g, _, _ = random_unit_systole_lattice(rng)
        assert ch.stabilizer_order(g) in (1, 2, 3)


# --- cross-section -----------------------------------------------------------


def test_cross_section_interior():
    g = ch.cross_section(2j)
    assert ch.chabauty_distance(g, lattice(1.0, 2j)) < 1e-9


def test_cross_section_on_the_arc():
    theta = 0.2
    u = cmath.exp(1j * (math.pi / 2 + theta))
    g = ch.cross_section(u)
    phase = cmath.exp(1j * (math.pi / 2 - theta))
    expected = lattice(phase, phase * u)
    assert ch.chabauty_distance(g, expected) < 1e-9


def test_cross_section_glued_pairs():
    for theta in np.linspace(0.01, math.pi / 6 - 0.01, 12):
        up = cmath.exp(1j * (math.pi / 2 + theta))
        um = cmath.exp(1j * (math.pi / 2 - theta))
        assert ch.chabauty_distance(ch.cross_section(up),
                                    ch.cross_section(um)) < 1e-6


def test_cross_section_vertical_gluing():
    for y in (1.2, 1.8, 2.5):
        a = ch.cross_section(complex(0.5, y))
        b = ch.cross_section(complex(-0.5, y))
        assert ch.chabauty_distance(a, b) < 1e-6


def test_cross_section_infinity():
    g = ch.cross_section(ch.INFINITY_POINT)
    assert ch.type_of(g) == (0, 1)


def test_cross_section_singular_points():
    with pytest.raises(SingularBasePoint):
        ch.cross_section(1j)
    with pytest.raises(SingularBasePoint):
        ch.cross_section(CORNER)
    with pytest.raises(SingularBasePoint):
        ch.cross_section(cmath.exp(2j * math.pi / 3))


def test_atlas_rows():
    rows = ch.atlas_rows(n_re=9, n_im=7, im_max=2.0)
    assert all(len(r) == 3 for r in rows)
    orders = {r[2] for r in rows}
    assert orders <= {1, 2, 3}
    assert any(r[2] == 2 for r in rows)  # the square lattice sits at (0, 1)


def test_atlas_orders_match_row_by_row_invariance():
    def invariant(group, angle):
        rot = rotation2(angle)
        return all(ch.distance_to_subgroup(v, group) < 1e-6
                   for v in group.discrete_basis @ rot.T)

    for x, y, order in ch.atlas_rows(n_re=9, n_im=7, im_max=2.0):
        g = lattice(1.0, complex(x, y))
        expected = (3 if invariant(g, math.pi / 3)
                    else 2 if invariant(g, math.pi / 2) else 1)
        assert order == expected
