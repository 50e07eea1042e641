"""Benchmark of the chabauty package: timed workloads, traced per-layer
spans and a one-shot record of the dimension frontier.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dist --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --frontier

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is a report with the environment stamp and the figures that are not
metrics (failed_share, whole-loop throughput, the first errors).  See
README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import copy
import gc
import importlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS runs single-threaded unless the caller sets these.  The package's
# matrices are small: a second BLAS thread only spins (a 15 s decompose
# run used 26 s of CPU instead of 19 s, and was no faster) and ties the
# figures to whatever else runs on the other core.
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREADS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

sys.path.insert(0, str(HERE))
import frontier  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Set-up is timed once before the timed loop and SETUP_SAMPLES - 1
# more times spread across it, so that its median sees the machine over
# the same stretch of time as the ops do.
SETUP_SAMPLES = 9


def environment(seed) -> dict:
    """Stamp recorded next to every result."""
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    threads = {k: os.environ.get(k) for k in BLAS_THREADS}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "commit": _commit(),
        "seed": seed,
    }


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def require_source():
    """Put the checkout's ``src`` first on the path, or stop: the
    benchmark measures the package of this checkout, never one that
    happens to be installed."""
    if not (SRC / "chabauty" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'chabauty'}; "
                 "run from the root of a chabauty checkout")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def _package_modules() -> dict:
    return {k: m for k, m in sys.modules.items()
            if k == "chabauty" or k.startswith("chabauty.")}


def _setup(workload, seed, workdir):
    """Import the package and build the inputs; returns the time taken."""
    for key in _package_modules():
        del sys.modules[key]
    shutil.rmtree(workdir, ignore_errors=True)
    start = time.perf_counter()
    ch = importlib.import_module("chabauty")
    rounds = workload.build(ch, np.random.default_rng(seed), workdir)
    elapsed = time.perf_counter() - start
    if not Path(ch.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported {ch.__file__}, not the checkout's source")
    return elapsed, ch, rounds


def run_workload(name, seed, seconds, trace, min_ops=100) -> dict:
    """One run of one workload: set up, time, check.  Returns the result
    object with an extra ``report`` entry."""
    require_source()
    workload = workloads.WORKLOADS[name]
    workdir = TMP / f"{name}-{os.getpid()}"
    try:
        elapsed, ch, rounds = _setup(workload, seed, workdir / "run")
        setups = [elapsed]
        if trace:
            tracer = tracing.Tracer()
            loop, replay = _traced_rounds(workload, ch, rounds, seconds,
                                          tracer)
            untraced = sum(r.latency for r in replay.records)
            values = tracer.report(untraced_wall=untraced)
            units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
        else:
            loop = workloads.timed_loop(
                workload, ch, rounds, seconds, min_ops=min_ops,
                between=_setup_sampler(workload, seed, workdir / "setup",
                                       seconds, setups))
            lat = np.array([r.latency for r in loop.records]) * 1e3
            values = {
                "ops_per_s": statistics.median(loop.round_rates),
                "op_p50_ms": float(np.percentile(lat, 50)),
                "op_p90_ms": float(np.percentile(lat, 90)),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": loop.peak_rss_mb,
            }
            units = END_TO_END
        wrong = workload.check(ch, loop.records, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()
    records = loop.records
    failed = sum(1 for i, r in enumerate(records)
                 if r.error is not None or i in wrong)
    errors = [r.error for r in records if r.error is not None]
    report = {
        "workload": name,
        "env": environment(seed),
        "seconds": seconds,
        "trace": int(bool(trace)),
        "rounds": len(loop.round_rates),
        "loop_wall_s": loop.wall,
        "loop_ops_per_s": (len(records) - failed) / loop.wall,
        "failed_share": failed / len(records),
        "wrong_outputs": len(wrong),
        "first_errors": errors[:3],
        "setup_runs_s": setups,
    }
    if trace:
        report["absent"] = tracer.absent
        report["spans_by_name"] = _span_table(tracer)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                    for k in units},
        "report": report,
    }


def _setup_sampler(workload, seed, workdir, seconds, setups):
    """Between rounds: once the rounds have taken the next
    ``seconds / (SETUP_SAMPLES - 1)``, time one more set-up into
    ``setups``.  Its inputs and its import of the package are thrown
    away, and the timed loop goes on with its own."""
    step = seconds / (SETUP_SAMPLES - 1)

    def sample(loop):
        if len(setups) >= SETUP_SAMPLES or loop.wall < (len(setups) - 0.5) \
                * step:
            return
        modules = _package_modules()
        try:
            setups.append(_setup(copy.copy(workload), seed, workdir)[0])
        finally:
            for key in _package_modules():
                del sys.modules[key]
            sys.modules.update(modules)
            shutil.rmtree(workdir, ignore_errors=True)
            gc.collect()

    return sample


def _traced_rounds(workload, ch, rounds, seconds, tracer):
    """Run a fixed number of rounds, about half of ``seconds`` of work
    at the calibrated rate, each once traced and once untraced in
    alternating order, so that both see the same state of the machine.
    The number of rounds depends only on ``seconds``, so every count
    repeats exactly between runs of the same seed."""
    traced, untraced = workloads.Loop(), workloads.Loop()
    for rnd in range(max(1, round(seconds / 2
                                  * workload.trace_rounds_per_s))):
        for with_trace in (rnd % 2 == 0, rnd % 2 == 1):
            if not with_trace:
                workloads.run_round(workload, ch, rounds, untraced)
                continue
            tracer.install()
            try:
                workloads.run_round(workload, ch, rounds, traced, tracer)
            finally:
                tracer.uninstall()
    return traced, untraced


def _span_table(tracer) -> dict:
    """Calls and total seconds per span name, written out with the run."""
    table = {}
    for span in tracer.spans:
        calls, total = table.get(span.name, (0, 0.0))
        table[span.name] = (calls + 1, total + span.end - span.start)
    return {k: {"calls": c, "total_s": round(t, 6)}
            for k, (c, t) in sorted(table.items())}


def run_all(seed, seconds, trace) -> int:
    """Each workload in a fresh process; a table of every metric."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit code {proc.returncode}")
            return proc.returncode or 1
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        results[name] = result
        print(f"{name}: attempted {result['attempted']}, failed "
              f"{result['failed']}, failed_share {report['failed_share']:.4g}"
              f", correct {result['correct']}")
        for key, m in result["metrics"].items():
            print(f"  {key:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    # a terminated run still removes its temporary files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--frontier", action="store_true",
                    help="run the slow and failing cases once each")
    ap.add_argument("--frontier-case", help=argparse.SUPPRESS)
    ns = ap.parse_args(argv)
    if ns.frontier or ns.frontier_case:
        require_source()
        if ns.frontier_case:
            return frontier.run_case(ns.frontier_case, ns.seed)
        return frontier.run_all(__file__, ns.seed, environment(ns.seed))
    if ns.workload is None:
        ap.error("--workload or --frontier is required")
    if ns.seconds <= 0:
        ap.error("--seconds must be positive")
    if ns.workload == "all":
        require_source()
        return run_all(ns.seed, ns.seconds, ns.trace)
    result = run_workload(ns.workload, ns.seed, ns.seconds, ns.trace)
    print(json.dumps({"report": result.pop("report")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
