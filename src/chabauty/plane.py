"""Explicit structure of the plane case: covolume normalization, the
suspension over unit-systole subgroups, reduction into the modular
fundamental domain, the glued 2-sphere of base points, stabilizer
orders, and a continuous cross-section of the rotation action.

Subgroups of R^2 are identified with subsets of the complex plane.  A
unit-systole lattice, rotated so a shortest vector becomes 1, is the
lattice Z + zZ for a unique z in the fundamental domain
D = {|z| >= 1, |Re z| <= 1/2}; gluing Re z = -1/2 to Re z = 1/2 and
z to -conj(z) on the circle turns D (plus a point at infinity for the
rank-one subgroups) into a sphere.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NotInC1, NotLattice, NotUnitSystole, SingularBasePoint,
                     WrongAmbientDim)
from .invariants import covolume, generation_data, systole
from .subgroup import ClosedSubgroup, make_subgroup, scale

INFINITY_POINT = complex(math.inf, 0.0)

_CORNER = cmath.exp(1j * math.pi / 3)
_TOL = 1e-9  # how far a norm, a covolume or a base point may miss its value


def _require_plane(group: ClosedSubgroup):
    if group.ambient_dim != 2:
        raise WrongAmbientDim("this operation lives on subgroups of R^2")


def _as_complex(rows: np.ndarray) -> np.ndarray:
    return rows[:, 0] + 1j * rows[:, 1]


def _lattice_from_complex(*gens: complex) -> ClosedSubgroup:
    rows = [(z.real, z.imag) for z in gens]
    return make_subgroup(2, None, rows)


def normalize_covolume(group: ClosedSubgroup) -> ClosedSubgroup:
    """Rescale a unit-systole subgroup to unit covolume.

    Lattices scale by covolume^(-1/2); a rank-one discrete subgroup
    degenerates to its spanned line (the scale-zero convention)."""
    _require_plane(group)
    if abs(systole(group) - 1.0) > _TOL:
        raise NotUnitSystole("the shortest nonzero vector must have norm 1")
    if group.group_type == (0, 2):
        return scale(group, covolume(group) ** -0.5)
    return scale(group, 0.0)  # (0,1): other types have systole 0 or inf


def suspension_map(group: ClosedSubgroup, t: float) -> ClosedSubgroup:
    """Climb the covolume cone from a unit-covolume lattice or a line.

    A lattice of systole s maps to (t/s + 1) times itself, a line
    e^(i a) R maps to the discrete group t e^(i a) Z; t = 0 is the
    identity and t = inf collapses everything discrete to the trivial
    group."""
    _require_plane(group)
    if not t >= 0:
        raise ValueError("the cone parameter must lie in [0, inf]")
    p, q = group.group_type
    if (p, q) == (0, 2):
        if abs(covolume(group) - 1.0) > _TOL:
            raise NotInC1("expected a unit-covolume lattice or a line")
        if math.isinf(t):
            return make_subgroup(2, None, None)
        return scale(group, t / systole(group) + 1.0)
    if (p, q) == (1, 0):
        if math.isinf(t):
            return make_subgroup(2, None, None)
        if t == 0:
            return group
        direction = group.continuous_basis[0]
        return make_subgroup(2, None, [t * direction])
    raise NotInC1("expected a unit-covolume lattice or a line")


@dataclass(frozen=True)
class ReducedForm:
    """Rotation angle in [0, pi) aligning a shortest vector with 1, and
    the second generator z in the fundamental domain: the subgroup is
    e^(-i theta) (Z + z Z).  At z = i theta is below pi/2, at the
    corner below pi/3."""

    theta: float
    z: complex


def _canonicalize(theta: float, z: complex):
    """Push (theta, z) to the canonical fundamental-domain
    representative: Re z in [-1/2, 1/2), except on the unit circle
    where Re z >= 0 and corner ties resolve to exp(i pi/3)."""
    if z.imag < 0:
        z = -z  # the pair generates the same lattice
    shift = math.floor(z.real + 0.5)
    z -= shift
    on_circle = abs(abs(z) - 1.0) <= 10 * _TOL
    if on_circle and z.real < -_TOL:
        theta = (theta - cmath.phase(z)) % math.pi
        z = -z.conjugate()
    if not on_circle and z.real >= 0.5 - _TOL:
        z -= 1.0
    return theta % math.pi, z


def _order(z: complex) -> int:
    """Stabilizer order at a canonical base point: 3 at the corner, 2
    at i, 1 elsewhere.  The one rule for the two singular points."""
    if abs(z - _CORNER) <= 10 * _TOL:
        return 3
    return 2 if abs(z - 1j) <= 10 * _TOL else 1


def reduce_lattice(group: ClosedSubgroup) -> ReducedForm:
    """Canonical (theta, z) of a unit-systole lattice.

    The realizers of the two successive norms are a shortest vector a
    and a shortest vector w outside Za, so z = w / a has |z| >= 1 and
    |Re z| <= 1/2, and the lattice is a (Z + z Z).  The square and
    triangular lattices are invariant under the rotations by pi/2 and
    pi/3, so at z = i and at the corner theta is reduced modulo those
    angles, which makes it the smallest angle that works."""
    _require_plane(group)
    if group.group_type != (0, 2):
        raise NotLattice("expected a rank-two lattice of the plane")
    vals, realizers = generation_data(group)
    if abs(vals[0] - 1.0) > _TOL:
        raise NotUnitSystole("the shortest vector must have norm 1")
    a, w = _as_complex(realizers)
    theta, z = _canonicalize((-cmath.phase(a)) % math.pi, complex(w / a))
    return ReducedForm(theta % (math.pi / _order(z)), z)


def base_point(group: ClosedSubgroup) -> complex:
    """Coordinate of a unit-systole subgroup on the glued sphere of
    base points: the canonical z for lattices, infinity for rank-one
    subgroups.  Rotated copies land on the same point."""
    _require_plane(group)
    p, q = group.group_type
    if (p, q) == (0, 1):
        if abs(systole(group) - 1.0) > _TOL:
            raise NotUnitSystole("the shortest vector must have norm 1")
        return INFINITY_POINT
    return reduce_lattice(group).z


def stabilizer_order(group: ClosedSubgroup) -> int:
    """Order of the stabilizer in the rotations modulo +-1: 3 for
    triangular lattices, 2 for square lattices, 1 otherwise and for
    rank-one subgroups.  Read off the base point, so it accepts what
    ``base_point`` accepts and calls a lattice symmetric exactly where
    ``reduce_lattice`` reduces theta further and ``cross_section``
    refuses."""
    z = base_point(group)
    return 1 if z == INFINITY_POINT else _order(z)


def cross_section_phase(u: complex) -> float:
    """The rotation correction of the cross-section.

    Zero except inside a collar along the upper-left circle arc, where
    it climbs linearly (in the radial collar coordinate) to the value
    pi/2 - angle forced on the arc itself.  The collar pinches to zero
    width at both ends of the arc so the correction stays continuous
    across the vertical gluing and on the segment above i; the only
    discontinuities sit at the two singular points, where they are
    absorbed by the extra symmetry of those lattices."""
    if math.isinf(u.real) or math.isinf(u.imag):
        return 0.0
    ang = cmath.phase(u)
    if not math.pi / 2 < ang < 2 * math.pi / 3:
        return 0.0
    theta = ang - math.pi / 2  # in (0, pi/6)
    rho = abs(u) - 1.0
    width = 0.1 * min(1.0, 12 * theta / math.pi,
                      12 * (math.pi / 6 - theta) / math.pi)
    if width <= 0 or rho >= width:
        return 0.0
    return (math.pi / 2 - theta) * (1.0 - max(rho, 0.0) / width)


def cross_section(u: complex) -> ClosedSubgroup:
    """The subgroup e^(i f(u)) (Z + u Z) over a nonsingular base point.

    Accepts any fundamental-domain representative of the point,
    including glued boundary twins, which map to equal subgroups."""
    if u == INFINITY_POINT or (isinstance(u, complex)
                               and math.isinf(abs(u))):
        return make_subgroup(2, None, [(1.0, 0.0)])
    u = complex(u)
    if abs(u) < 1.0 - 1e-6 or abs(u.real) > 0.5 + 1e-6:
        raise ValueError("base point lies outside the fundamental domain")
    _, z = _canonicalize(0.0, u)
    if _order(z) > 1:
        raise SingularBasePoint(
            "the cross-section is undefined at the two singular points")
    phase = cmath.exp(1j * cross_section_phase(u))
    return _lattice_from_complex(phase, phase * u)


def atlas_rows(n_re: int = 41, n_im: int = 41, im_max: float = 3.0):
    """Grid of fundamental-domain points with their stabilizer orders,
    for external plotting: rows (Re z, Im z, order).  Raises ValueError
    unless ``n_re`` and ``n_im`` are nonnegative and ``im_max`` is finite
    and at least 1."""
    for name, steps in (("n_re", n_re), ("n_im", n_im)):
        if steps < 0:
            raise ValueError(f"{name} must be nonnegative, got {steps}")
    if not 1.0 <= im_max < math.inf:
        raise ValueError(f"im_max must be finite and at least 1, got {im_max}")
    rows = []
    for x in np.linspace(-0.5, 0.5, n_re):
        y_min = math.sqrt(max(0.0, 1.0 - x * x))
        for y in np.linspace(y_min, im_max, n_im):
            rows.append((x, y, _order(_canonicalize(0.0, complex(x, y))[1])))
    return rows
