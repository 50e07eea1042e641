"""One-shot record of the slow and failing cases: the dimension frontier.

Each case runs once, with default ``MetricParams``, in its own process
with a time limit, and the record gives the time to an answer or to a
failure.  These cases stay out of the repeated workloads only because
each takes seconds to minutes.  This mode never gates a change.
"""
from __future__ import annotations

import json
import math
import resource
import subprocess
import sys
import time
import zlib

import numpy as np

TIME_LIMIT_S = 300


def _random(ch, rng, n, group_type):
    return ch.random_subgroup(n, group_type, seed=int(rng.integers(2 ** 32)))


def _near(ch, rng, n, group_type):
    a = _random(ch, rng, n, group_type)
    eps = math.exp(rng.uniform(math.log(1e-3), math.log(1e-1)))
    return a, ch.apply_linear(np.eye(n) + eps * rng.normal(size=(n, n)), a)


def _full(ch, n):
    return ch.standard_subgroup(n, n, 0)


# name -> function making the pair (a, b) timed by chabauty_distance(a, b)
CASES = {
    "R4_vs_random_22": lambda ch, rng: (_full(ch, 4),
                                        _random(ch, rng, 4, (2, 2))),
    "near_n4_type22_draw0": lambda ch, rng: _near(ch, rng, 4, (2, 2)),
    "near_n4_type22_draw1": lambda ch, rng: _near(ch, rng, 4, (2, 2)),
    "near_n4_type13_draw0": lambda ch, rng: _near(ch, rng, 4, (1, 3)),
    "near_n4_type13_draw1": lambda ch, rng: _near(ch, rng, 4, (1, 3)),
    "near_n3_type03_draw0": lambda ch, rng: _near(ch, rng, 3, (0, 3)),
    "near_n3_type03_draw1": lambda ch, rng: _near(ch, rng, 3, (0, 3)),
    "lattice_n5_scale_1/2_vs_R5": lambda ch, rng: (
        ch.scale(_random(ch, rng, 5, (0, 5)), 0.5), _full(ch, 5)),
    "lattice_n5_scale_1/4_vs_R5": lambda ch, rng: (
        ch.scale(_random(ch, rng, 5, (0, 5)), 0.25), _full(ch, 5)),
    "lattice_n6_scale_1_vs_R6": lambda ch, rng: (
        _random(ch, rng, 6, (0, 6)), _full(ch, 6)),
    "lattice_n6_scale_1/2_vs_R6": lambda ch, rng: (
        ch.scale(_random(ch, rng, 6, (0, 6)), 0.5), _full(ch, 6)),
    **{f"lattice_pair_n4_draw{i}": (lambda ch, rng: (
        _random(ch, rng, 4, (0, 4)), _random(ch, rng, 4, (0, 4))))
       for i in range(5)},
    # two full-rank groups of R^3 with lattice parts, left out of dist
    **{f"full_rank_n3_type{s[0]}{s[1]}_vs_{t[0]}{t[1]}": (
        lambda ch, rng, s=s, t=t: (_random(ch, rng, 3, s),
                                   _random(ch, rng, 3, t)))
       for s, t in (((0, 3), (0, 3)), ((0, 3), (1, 2)), ((0, 3), (2, 1)),
                    ((1, 2), (2, 1)), ((2, 1), (2, 1)))},
    # the k = 0 end of criterion 8's contraction chains at n = 4
    **{f"chain_n4_type{p}{4 - p}_k0": (lambda ch, rng, p=p: (
        _random(ch, rng, 4, (p, 4 - p)), _full(ch, 4)))
       for p in range(4)},
}


def run_case(name, seed) -> int:
    """Child process: build the case from the seed and its name, time
    one distance, print one JSON line."""
    import chabauty as ch
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    a, b = CASES[name](ch, rng)
    start = time.perf_counter()
    try:
        value, error = ch.chabauty_distance(a, b), None
    except ch.ChabautyError as exc:
        value, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    print(json.dumps({
        "case": name, "seconds": elapsed,
        "outcome": "answer" if error is None else "failure",
        "value": value, "error": error,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


def run_all(script, seed, env) -> int:
    """Every case in its own process, one after the other."""
    records = []
    for name in CASES:
        try:
            proc = subprocess.run(
                [sys.executable, script, "--frontier-case", name,
                 "--seed", str(seed)],
                capture_output=True, text=True, timeout=TIME_LIMIT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 0 and lines:
                record = json.loads(lines[-1])
            else:
                record = {"case": name, "outcome": "crash",
                          "error": proc.stderr.strip()[-500:]}
        except subprocess.TimeoutExpired:
            record = {"case": name, "outcome": "timeout",
                      "seconds": float(TIME_LIMIT_S)}
        records.append(record)
        print(json.dumps(record), flush=True)
    print(json.dumps({"frontier": records, "env": env}))
    return 0
