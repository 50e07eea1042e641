"""Input checks across the package, one row each: the call, the error
type and the exact message."""
import contextlib
import dataclasses
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

import chabauty as ch
from chabauty import cli, errors
from chabauty.errors import (DimensionMismatch, FlagsTooFar,
                             InconsistentData, InvalidPair, InvalidType,
                             NonClosedInput, NonFiniteInput, NotInC1,
                             NotLattice, NotUnitSystole)


def decomposed():
    """(lin, loc) of the aligned (1,1) base point of R^3 at scale 0.1."""
    base = ch.standard_subgroup(3, 1, 1)
    return ch.local_decomposition(base, base, 0.1)


def reconstruct_with(**changes):
    lin, loc = decomposed()
    return ch.reconstruct(lin, dataclasses.replace(loc, **changes))


def skewed_flag():
    """Fine and coarse lines of the plane at 44 and 46 degrees, not
    orthogonal, each within sine 0.695 of its axis."""
    a, b = math.radians(44), math.radians(46)
    return ch.LinearDecomposition(np.array([[math.cos(a), math.sin(a)]]),
                                  np.zeros((0, 2)),
                                  np.array([[math.cos(b), math.sin(b)]]))


def cli_info(data):
    """Run ``chabauty info`` on a file holding ``data`` and raise the
    error object it prints, as the package's error of that kind."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "group.json"
        path.write_text(json.dumps(data))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(["info", str(path)]) == 1
    error = json.loads(out.getvalue())["error"]
    raise getattr(errors, error["kind"], ValueError)(error["message"])


UNDERFLOW = ("generators must have finite squared norms, normal floats "
             "unless zero")
RAGGED = "must be vectors of length 2, got rows of unequal length"

CASES = [
    # metric
    ("metric-params-no-radii",
     lambda: ch.MetricParams(radii=(), weights=()),
     ValueError, "radii must not be empty"),
    ("metric-params-lengths",
     lambda: ch.MetricParams(radii=(1.0, 2.0), weights=(1.0,)),
     ValueError, "radii and weights must have equal length"),
    ("metric-gap-dimensions",
     lambda: ch.hausdorff_gap(ch.make_subgroup(1), ch.make_subgroup(2), 1.0),
     DimensionMismatch, "subgroups live in different dimensions"),
    ("metric-family-source",
     lambda: ch.degeneration_family(2, (2, 1), (3, 0)),
     InvalidPair, "source (2,1) does not fit in dimension 2"),
    ("metric-family-parameter",
     lambda: ch.degeneration_family(2, (0, 1), (1, 0))(0.0),
     ValueError, "the parameter must be positive and finite"),
    ("metric-family-nan-parameter",
     lambda: ch.degeneration_family(2, (0, 1), (1, 0))(math.nan),
     ValueError, "the parameter must be positive and finite"),
    ("metric-family-infinite-shrink",
     lambda: ch.degeneration_family(2, (0, 1), (1, 0))(math.inf),
     ValueError, "the parameter must be positive and finite"),
    ("metric-family-infinite-grow",
     lambda: ch.degeneration_family(2, (0, 1), (0, 0))(math.inf),
     ValueError, "the parameter must be positive and finite"),
    ("metric-family-shrink-underflow",
     lambda: ch.degeneration_family(2, (0, 1), (1, 0))(1e300),
     NonFiniteInput, UNDERFLOW),
    # subgroup
    ("subgroup-negative-dimension",
     lambda: ch.make_subgroup(-1),
     DimensionMismatch, "ambient dimension must be nonnegative"),
    ("subgroup-underflowing-generator",
     lambda: ch.make_subgroup(2, None, [(1e-170, 0)]),
     NonFiniteInput, UNDERFLOW),
    ("subgroup-too-many-generators",
     lambda: ch.make_subgroup(2, None, [(1, 0), (0, 1), (1, 1)]),
     NonClosedInput, "more discrete generators than the complement can carry"),
    ("subgroup-rows-past-dimension",
     lambda: ch.ClosedSubgroup(2, [[1, 0]], [[0, 1], [1, 1]]),
     DimensionMismatch, "type (1,2) does not fit in dimension 2"),
    ("subgroup-discrete-basis-width",
     lambda: ch.ClosedSubgroup(2, [], [[1, 0, 0, 1]]),
     DimensionMismatch,
     "discrete basis must be vectors of length 2, got shape (1, 4)"),
    ("subgroup-continuous-basis-width",
     lambda: ch.ClosedSubgroup(2, np.zeros((1, 4)), []),
     DimensionMismatch,
     "continuous basis must be vectors of length 2, got shape (1, 4)"),
    ("subgroup-ragged-generators",
     lambda: ch.make_subgroup(2, None, [(1, 0), (1,)]),
     DimensionMismatch, f"discrete generators {RAGGED}"),
    ("subgroup-ragged-basis",
     lambda: ch.ClosedSubgroup(2, [], [[1, 0], [1]]),
     DimensionMismatch, f"discrete basis {RAGGED}"),
    ("subgroup-generator-not-a-number",
     lambda: ch.make_subgroup(2, None, [("a", 0), (1, 0)]),
     ValueError, "could not convert string to float: 'a'"),
    ("cli-ragged-basis",
     lambda: cli_info({"ambient_dim": 2, "discrete_basis": [[1, 0], [1]]}),
     DimensionMismatch, f"discrete_basis {RAGGED}"),
    ("cli-continuous-basis-width",
     lambda: cli_info({"ambient_dim": 2, "continuous_basis": [[1, 0, 0]]}),
     DimensionMismatch,
     "continuous_basis must be vectors of length 2, got shape (1, 3)"),
    ("subgroup-standard-type",
     lambda: ch.standard_subgroup(2, 2, 1),
     InvalidType, "type (2,1) does not fit in dimension 2"),
    ("subgroup-linear-shape",
     lambda: ch.apply_linear(np.eye(3), ch.make_subgroup(2)),
     DimensionMismatch, "expected a 2x2 matrix, got (3, 3)"),
    ("subgroup-negative-scale",
     lambda: ch.scale(ch.make_subgroup(2), -1.0),
     ValueError, "scale factor must be nonnegative"),
    # plane
    ("plane-suspension-rank-one",
     lambda: ch.suspension_map(ch.make_subgroup(2, None, [(1, 0)]), 1.0),
     NotInC1, "expected a unit-covolume lattice or a line"),
    ("plane-suspension-nan-on-a-line",
     lambda: ch.suspension_map(ch.make_subgroup(2, [(1, 0)]), math.nan),
     ValueError, "the cone parameter must lie in [0, inf]"),
    ("plane-suspension-nan-on-a-lattice",
     lambda: ch.suspension_map(ch.standard_subgroup(2, 0, 2), math.nan),
     ValueError, "the cone parameter must lie in [0, inf]"),
    ("plane-base-point-systole",
     lambda: ch.base_point(ch.make_subgroup(2, None, [(2, 0)])),
     NotUnitSystole, "the shortest vector must have norm 1"),
    ("plane-stabilizer-systole",
     lambda: ch.stabilizer_order(ch.make_subgroup(2, None, [(2, 0), (0, 3)])),
     NotUnitSystole, "the shortest vector must have norm 1"),
    ("plane-reduce-systole-off-by-1e-7",
     lambda: ch.reduce_lattice(ch.scale(ch.standard_subgroup(2, 0, 2),
                                        1 + 1e-7)),
     NotUnitSystole, "the shortest vector must have norm 1"),
    ("plane-stabilizer-systole-off-by-1e-7",
     lambda: ch.stabilizer_order(ch.scale(ch.standard_subgroup(2, 0, 2),
                                          1 + 1e-7)),
     NotUnitSystole, "the shortest vector must have norm 1"),
    ("plane-stabilizer-line",
     lambda: ch.stabilizer_order(ch.make_subgroup(2, [(1, 0)])),
     NotLattice, "expected a rank-two lattice of the plane"),
    ("plane-cross-section-domain",
     lambda: ch.cross_section(0.5j),
     ValueError, "base point lies outside the fundamental domain"),
    # local
    ("local-flag-blocks",
     lambda: ch.flag_gap(ch.standard_flag(3, 1, 1), ch.standard_flag(3, 2, 0)),
     DimensionMismatch, "flag blocks have different dimensions"),
    ("local-polar-factor",
     lambda: ch.trivialisation(skewed_flag(), ch.standard_flag(2, 1, 0)),
     FlagsTooFar, "polar factor is degenerate"),
    ("local-decomposition-dimensions",
     lambda: ch.local_decomposition(ch.standard_subgroup(2, 0, 1),
                                    ch.standard_subgroup(3, 0, 1), 0.1),
     DimensionMismatch, "group and base live in different spaces"),
    ("local-stratum-type",
     lambda: ch.stratum_dimension(2, (2, 1)),
     InvalidPair, "type (2,1) does not fit in dimension 2"),
    ("local-fiber-type",
     lambda: ch.fiber_dimension(2, (3, 0), (0, 0)),
     InvalidPair, "type (3,0) does not fit in dimension 2"),
    ("local-bundle-zero-scale",
     lambda: ch.bundle_projection(*decomposed(), 0.0),
     ValueError, "the scale must lie in (0, 1)"),
    ("local-bundle-nan-scale",
     lambda: ch.bundle_projection(*decomposed(), math.nan),
     ValueError, "the scale must lie in (0, 1)"),
    ("local-bundle-negative-scale",
     lambda: ch.bundle_projection(*decomposed(), -1.0),
     ValueError, "the scale must lie in (0, 1)"),
    ("local-reconstruct-fine-dimension",
     lambda: reconstruct_with(fine_part=ch.standard_subgroup(2, 2, 0)),
     InconsistentData, "fine part has the wrong ambient dimension"),
    ("local-reconstruct-coarse-width",
     lambda: reconstruct_with(coarse_basis=np.zeros((0, 2))),
     InconsistentData, "coarse basis has the wrong width"),
    ("local-reconstruct-offsets",
     lambda: reconstruct_with(medium_offset=np.zeros((1, 2))),
     InconsistentData, "offset arrays have inconsistent shapes"),
]


@pytest.mark.parametrize("call, error, message",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_input_check_raises(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_cli_refuses_empty_radii(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"radii": [], "weights": []}))
    z3 = str(Path(__file__).parent / "fixtures" / "z3.json")
    assert cli.run(["dist", z3, z3, "--params", str(params)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "OutOfRange",
        "message": "invalid metric parameters: radii must not be empty"}


def test_the_zero_space_maps_to_itself():
    r0 = ch.make_subgroup(0)
    for g in (ch.dual(r0), ch.apply_linear(np.zeros((0, 0)), r0)):
        assert (g.ambient_dim, ch.type_of(g)) == (0, (0, 0))
