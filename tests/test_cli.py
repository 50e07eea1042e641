import json
import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import chabauty as ch
from chabauty.cli import build_parser, cli_entry, main, run
from chabauty.serialize import dumps, subgroup_from_dict

FIXTURES = Path(__file__).parent / "fixtures"


def invoke(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_info_integer_lattice(capsys):
    code, out = invoke(["info", str(FIXTURES / "z3.json")], capsys)
    assert code == 0
    assert '"type": [0, 3]' in out
    assert '"norms": [1, 1, 1]' in out
    data = json.loads(out)
    assert data["rank"] == 3


def test_dual_command(capsys):
    code, out = invoke(["dual", str(FIXTURES / "two_z_e1.json")], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["type"] == [1, 1]
    # output re-parses under the subgroup schema
    g = subgroup_from_dict(data)
    assert ch.type_of(g) == (1, 1)


def test_fiber_dim_command(capsys):
    code, out = invoke(["fiber-dim", "3", "0", "1", "0", "3"], capsys)
    assert code == 0
    assert out.strip() == "2"


def test_dist_command(capsys):
    code, out = invoke(["dist", str(FIXTURES / "z3.json"),
                        str(FIXTURES / "z3.json")], capsys)
    assert code == 0
    assert json.loads(out)["distance"] == 0


def test_reduce2_command(capsys):
    code, out = invoke(["reduce2", str(FIXTURES / "hexagonal.json")], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["z"][0] == pytest.approx(0.5)
    assert data["z"][1] == pytest.approx(math.sqrt(3) / 2)


def test_non_finite_input_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"ambient_dim": 2, "continuous_basis": [], '
                    '"discrete_basis": [[NaN, 0.0]]}')
    code, out = invoke(["info", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "NonFiniteInput"


def test_stab_batch_preserves_order(capsys):
    code, out = invoke(["stab", str(FIXTURES / "z3.json"),
                        str(FIXTURES / "hexagonal.json")], capsys)
    # first input is not planar: the whole batch fails as a domain error
    assert code == 1
    code, out = invoke(["stab", str(FIXTURES / "hexagonal.json"),
                        str(FIXTURES / "hexagonal.json")], capsys)
    assert code == 0
    data = json.loads(out)
    assert [d["order"] for d in data] == [3, 3]


def test_suspend_command(capsys):
    code, out = invoke(["suspend", str(FIXTURES / "hexagonal.json"),
                        "--t", "1.0"], capsys)
    # hexagonal lattice has covolume sqrt(3)/2, not 1
    assert code == 1
    data = json.loads(out)
    assert data["error"]["kind"] == "NotInC1"


def test_suspend_command_on_unit_lattice(capsys, tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(dumps(ch.subgroup_to_dict(ch.standard_subgroup(2, 0, 2))))
    code, out = invoke(["suspend", str(path), "--t", "1"], capsys)
    assert code == 0
    assert json.loads(out)["discrete_basis"] == [[2, 0], [0, 2]]


def test_decompose_command(capsys):
    code, out = invoke(["decompose", str(FIXTURES / "coarse_offsets.json"),
                        "--base-type", "0", "2", "--delta", "0.1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["coarse_basis"] == [[50]]
    assert data["coarse_offset_medium"][0][0] == pytest.approx(0.2)
    # the embedded fine part re-parses under the subgroup schema
    fine = subgroup_from_dict(data["fine_part"])
    assert fine.ambient_dim == 0


def test_limit_command(capsys):
    code, out = invoke(["limit", "--template", "shrink", "--n", "2",
                        "--source", "0", "2", "--delta", "0.01",
                        "--t", "64", "128", "256", "512", "1024"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["type"] == [1, 1]
    assert data["to_zero"] == [0]


@pytest.mark.parametrize("template, argv, group_type, to_infinity", [
    ("grow", ["--n", "1", "--source", "0", "1", "--t", "1", "100", "1000",
              "10000"], [0, 0], [0]),
    ("constant", ["--n", "2", "--source", "0", "2", "--t", "1", "2", "3"],
     [0, 2], []),
])
def test_limit_other_templates(capsys, template, argv, group_type,
                               to_infinity):
    code, out = invoke(["limit", "--template", template, "--delta", "0.1",
                        *argv], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["type"] == group_type
    assert data["to_zero"] == []
    assert data["to_infinity"] == to_infinity


def test_poset_command(capsys):
    code, out = invoke(["poset", "--n", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    dims = dict(zip(map(tuple, data["types"]), data["dimensions"]))
    assert dims[(0, 2)] == 4 and dims[(1, 1)] == 2
    assert [[0, 2], [1, 1]] in data["covers"]


def test_sample_deterministic(capsys):
    code1, out1 = invoke(["sample", "--n", "3", "--type", "1", "1",
                          "--seed", "7"], capsys)
    code2, out2 = invoke(["sample", "--n", "3", "--type", "1", "1",
                          "--seed", "7"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    g = subgroup_from_dict(json.loads(out1))
    assert ch.type_of(g) == (1, 1)


def test_atlas_csv(capsys):
    code, out = invoke(["atlas", "--re-steps", "5", "--im-steps", "4",
                        "--im-max", "2.0"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,stabilizer_order"
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_atlas_json_matches_csv(capsys):
    argv = ["atlas", "--re-steps", "3", "--im-steps", "2"]
    code, out = invoke(argv + ["--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    code, out = invoke(argv, capsys)
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert [[float(x) for x in line.split(",")] for line in lines] == rows


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, _ = invoke(["info", str(FIXTURES / "z3.json"),
                      "--out", str(target)], capsys)
    assert code == 0
    assert json.loads(target.read_text())["type"] == [0, 3]


def test_params_file(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"radii": [1.0, 2.0],
                                  "weights": [1.0, 0.5], "grid": 0.1}))
    code, out = invoke(["dist", str(FIXTURES / "z3.json"),
                        str(FIXTURES / "z3.json"),
                        "--params", str(params)], capsys)
    assert code == 0
    assert json.loads(out)["distance"] == 0


@pytest.mark.parametrize("raw, named", [({"grid": -1}, "grid"),
                                        ({"gird": 0.5}, "gird"),
                                        ({"cap": 2.5}, "cap"),
                                        ({"cap": True}, "cap"),
                                        ({"grid": True}, "grid"),
                                        ([0.5], "object")])
def test_bad_params_file_is_a_domain_error(tmp_path, capsys, raw, named):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(raw))
    code, out = invoke(["dist", str(FIXTURES / "z3.json"),
                        str(FIXTURES / "z3.json"),
                        "--params", str(params)], capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "OutOfRange"
    assert named in error["message"]


@pytest.mark.parametrize("argv, named", [
    (["decompose", str(FIXTURES / "z3.json"), "--base-type", "0", "3",
      "--delta", "2"], "scale"),
    (["atlas", "--re-steps", "-1"], "-1"),
    (["limit", "--template", "shrink", "--n", "2", "--source", "0", "2",
      "--delta", "0.1", "--t", "1", "2"], "three"),
    (["limit", "--template", "shrink", "--n", "2", "--source", "0", "2",
      "--delta", "5", "--t", "1", "2", "3"], "scale"),
    (["suspend", str(FIXTURES / "hexagonal.json"), "--t", "-1"], "cone"),
    (["atlas", "--im-max", "-3"], "im_max"),
])
def test_out_of_range_argument_is_a_domain_error(capsys, argv, named):
    code, out = invoke(argv, capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "ValueError"
    assert named in error["message"]


@pytest.mark.parametrize("text, named", [
    ('{"ambient_dim": 2, "discrete_basis": 5}', "basis"),
    ('{"ambient_dim": 2.7}', "ambient_dim"),
    ('{"ambient_dim": true}', "ambient_dim"),
    ('{"ambient_dim": "2"}', "ambient_dim"),
    ('{"ambient_dim": 2, "continous_basis": [[1, 0]]}', "keys"),
    ('{"ambient_dim": 2, "discrete_basis": [[true, false]]}', "basis"),
    ('{"ambient_dim": 2, "discrete_basis": [1, 0]}', "basis"),
    ('[{"ambient_dim": 2}]', "object"),
], ids=["basis-int", "dim-float", "dim-bool", "dim-str", "misspelled-key",
        "bool-entries", "flat-basis", "not-an-object"])
def test_schema_violation_is_a_domain_error(tmp_path, capsys, text, named):
    with pytest.raises(ch.DimensionMismatch, match=named):
        subgroup_from_dict(json.loads(text))
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out = invoke(["info", str(path)], capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "DimensionMismatch"
    assert named in error["message"]


# one command of each kind whose parse could carry state into the next:
# a --format and its default, a usage error, a batch, --seed and its
# default
SEQUENCE = [
    ["atlas", "--re-steps", "3", "--im-steps", "2", "--format", "json"],
    ["atlas", "--re-steps", "3", "--im-steps", "2"],
    ["dist", str(FIXTURES / "z3.json")],
    ["info", str(FIXTURES / "z3.json"), str(FIXTURES / "hexagonal.json")],
    ["sample", "--n", "3", "--type", "1", "1", "--seed", "7"],
    ["sample", "--n", "3", "--type", "1", "1"],
]


def run_sequence(order, folder):
    """(exit code, text written to --out or None) of each command of
    SEQUENCE, in SEQUENCE's order, run in the given order."""
    folder.mkdir()
    results = {}
    for i in order:
        path = folder / f"{i}.out"
        code = run(SEQUENCE[i] + ["--out", str(path)])
        results[i] = (code, path.read_text() if path.exists() else None)
    return [results[i] for i in range(len(SEQUENCE))]


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    forwards = list(range(len(SEQUENCE)))
    serial = run_sequence(forwards, tmp_path / "forwards")
    assert run_sequence(forwards[::-1], tmp_path / "reverse") == serial
    codes = [code for code, _ in serial]
    assert codes == [0, 0, 2, 0, 0, 0]
    assert json.loads(serial[0][1])
    assert serial[1][1].startswith("re,im,stabilizer_order\n")
    assert serial[4][1] != serial[5][1]
    # four threads at once, switching often, each starting the sequence
    # at a different command, give the serial outputs
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(
                lambda k: run_sequence(forwards[k:] + forwards[:k],
                                       tmp_path / f"thread{k}"),
                range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == [serial] * 4


def test_usage_error_exit_code(capsys):
    assert run(["no-such-command"]) == 2
    assert run(["info", "x.json", "--format", "csv"]) == 2


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--format", "json"],
                                  ["--params", "p.json"]])
def test_options_of_other_commands_are_usage_errors(flag, capsys):
    assert run(["info", *flag, str(FIXTURES / "z3.json")]) == 2


def test_info_and_dual_of_a_small_lattice(tmp_path, capsys):
    path = tmp_path / "small.json"
    small = ch.scale(ch.make_subgroup(2, None, [(10.0, 0.0), (0.0, 1.0)]),
                     1e-9)
    path.write_text(dumps(ch.subgroup_to_dict(small)))
    code, out = invoke(["info", str(path)], capsys)
    assert code == 0
    info = json.loads(out)
    assert info["type"] == [0, 2]
    assert info["norms"] == pytest.approx([1e-9, 1e-8], rel=1e-12)
    code, out = invoke(["dual", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["type"] == [0, 2]


def test_domain_error_object(capsys):
    code, out = invoke(["reduce2", str(FIXTURES / "z3.json")], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["error"]["kind"] == "WrongAmbientDim"


def test_missing_input_file(capsys):
    code, out = invoke(["info", "does-not-exist.json"], capsys)
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "FileNotFoundError"


def test_float_serialization_rules():
    assert dumps(float("inf")) == '"inf"'
    assert dumps(ch.INDETERMINATE) == '"indeterminate"'
    assert dumps(0.1) == "0.10000000000000001"
    assert dumps({"a": [1, 2.5]}) == '{"a": [1, 2.5]}'


def test_dumps_of_other_values():
    assert dumps([None, True, False]) == "[null, true, false]"
    assert dumps(1.5 - 2j) == "[1.5, -2]"
    with pytest.raises(TypeError, match="set"):
        dumps({1, 2})


def test_info_reports_the_covolume_of_a_plane_subgroup(capsys):
    code, out = invoke(["info", str(FIXTURES / "hexagonal.json")], capsys)
    assert code == 0
    assert json.loads(out)["covolume"] == pytest.approx(math.sqrt(3) / 2)


def test_main_and_console_entry(capsys, monkeypatch):
    argv = ["fiber-dim", "3", "0", "1", "0", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "1\n"
    monkeypatch.setattr(sys, "argv", ["chabauty"] + argv)
    with pytest.raises(SystemExit) as info:
        cli_entry()
    assert info.value.code == 0
    assert capsys.readouterr().out == "1\n"


def test_cli_subprocess_entry():
    out = subprocess.run(
        [sys.executable, "-m", "chabauty.cli", "fiber-dim",
         "3", "0", "1", "0", "2"],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"
