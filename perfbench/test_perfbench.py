"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the checkout:  python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = dict(seconds=0.01, min_ops=1)  # one round per loop


def _names(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_names_match_the_code():
    assert _names("end_to_end") == run.END_TO_END
    assert _names("per_layer") == {k: unit for k, (unit, _)
                                   in tracing.PER_LAYER.items()}
    assert {w["name"] for w in BENCHMARK["workloads"]} \
        == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(name, trace):
    result = run.run_workload(name, seed=3, trace=trace, **TINY)
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == set(_names(section))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_setup_samples_between_rounds_leave_the_run_intact():
    result = run.run_workload("cli_batch", seed=3, trace=0, seconds=0.3,
                              min_ops=1)
    assert len(result["report"]["setup_runs_s"]) >= 2
    assert result["report"]["rounds"] >= 2
    assert result["correct"] and result["failed"] == 0
    # the package left imported is one whole import, not a mix
    assert sys.modules["chabauty.cli"] is sys.modules["chabauty"].cli


def _corrupt_dist(wl, ch, op, args):
    return wl.real_call(ch, op, args) + 10.0


def _corrupt_decompose(wl, ch, op, args):
    out = wl.real_call(ch, op, args)
    return None if out is not None else out  # a wrong rejection


def _corrupt_cli(wl, ch, op, args):
    path = wl.real_call(ch, op, args)
    if op.kind == "info":
        data = json.loads(Path(path).read_text())
        first = data[0] if isinstance(data, list) else data
        first["type"] = [9, 9]
        Path(path).write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("name,corrupt", [
    ("dist", _corrupt_dist), ("decompose", _corrupt_decompose),
    ("cli_batch", _corrupt_cli)])
def test_planted_wrong_output_raises_failed_share(monkeypatch, name,
                                                  corrupt):
    wl = workloads.WORKLOADS[name]
    monkeypatch.setattr(wl, "real_call", wl.call, raising=False)
    monkeypatch.setattr(wl, "call",
                        lambda ch, op, args: corrupt(wl, ch, op, args))
    result = run.run_workload(name, seed=3, trace=0, **TINY)
    assert result["failed"] >= 1 and not result["correct"]
    assert result["report"]["failed_share"] > 0


@pytest.mark.parametrize("name", ["dist", "decompose"])
def test_self_times_sum_to_traced_wall(name):
    metrics = run.run_workload(name, seed=5, trace=1, **TINY)["metrics"]
    total = sum(metrics[f"{layer}.self_s"]["value"]
                for layer in tracing.LAYERS + ("bench",))
    assert total == pytest.approx(metrics["trace.wall_s"]["value"],
                                  rel=1e-6)


def test_pool_overlap_is_reported_on_cli_batch():
    metrics = run.run_workload("cli_batch", seed=5, trace=1,
                               **TINY)["metrics"]
    assert metrics["cli.pool_overlap"]["value"] > 0
    # spans of pool workers overlap in time, so self times can only add
    # up to more than the wall time, never less
    total = sum(metrics[f"{layer}.self_s"]["value"]
                for layer in tracing.LAYERS + ("bench",))
    assert total >= metrics["trace.wall_s"]["value"] * (1 - 1e-9)


def test_missing_wrapped_function_is_reported_absent():
    run.require_source()
    import chabauty as ch
    wrapped = tuple(w for w in tracing.WRAPPED
                    if w != ("_lattice", "enumerate_ball"))
    wrapped += (("_lattice", "enumerate_ball_v2"), ("gone", "function"))
    tr = tracing.Tracer()
    tr.install(wrapped=wrapped)
    try:
        span = tr.begin_op(0)
        ch.chabauty_distance(ch.standard_subgroup(2, 0, 2),
                             ch.scale(ch.standard_subgroup(2, 0, 2), 0.5))
        tr.end_op(span)
    finally:
        tr.uninstall()
    assert tr.absent == ["lattice.enumerate_ball_v2", "gone.function"]
    report = tr.report(untraced_wall=1.0)
    assert set(report) == set(tracing.PER_LAYER)
    assert report["lattice.enumerate_ball.calls"] == 0
    assert report["metric.chabauty_distance.calls"] == 1
    assert report["trace.absent"] == 2
    assert ch.chabauty_distance.__module__ == "chabauty.metric"  # restored


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "dist",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_counts_survive_concurrent_pool_workers():
    run.require_source()
    import chabauty._lattice as lat
    tr = tracing.Tracer()
    tr.install()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        solver = lat.LatticeSolver(np.eye(2))
        span = tr.begin_op(0)
        workers = [threading.Thread(
            target=lambda: [solver.closest(np.zeros((3, 2)))
                            for _ in range(200)]) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        tr.end_op(span)
    finally:
        sys.setswitchinterval(interval)
        tr.uninstall()
    assert not any(w.is_alive() for w in workers)
    report = tr.report()
    assert report["lattice.closest.calls"] == 8 * 200
    assert report["lattice.closest.targets"] == 8 * 200 * 3


def test_budget_errors_count_where_raised():
    run.require_source()
    import chabauty as ch
    tr = tracing.Tracer()
    tr.install()
    try:
        span = tr.begin_op(0)
        with pytest.raises(ch.EnumerationBudgetExceeded):
            ch.points_in_ball(ch.standard_subgroup(3, 0, 3), 10.0, cap=5)
        tr.end_op(span)
    finally:
        tr.uninstall()
    report = tr.report()
    assert report["lattice.budget_exceeded"] == 1
    assert report["metric.budget_exceeded"] == 0


def test_same_group_tells_groups_apart():
    run.require_source()
    import chabauty as ch
    g = ch.random_subgroup(4, (1, 2), seed=7)
    assert workloads.same_group(g, workloads.fresh(ch, g), 1e-9)
    assert not workloads.same_group(g, ch.scale(g, 2.0), 1e-6)
    twice = ch.apply_linear(2.0 * np.eye(4), g)  # another basis
    assert workloads.same_group(ch.scale(g, 2.0), twice, 1e-6)
