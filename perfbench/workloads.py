"""The three repeated workloads: input generation, the timed op, and
the output checks that run after the timed loop.

Each workload builds a pool of rounds from its seed.  A round is a
fixed mix of ops, so every run sees the same proportions of cheap and
expensive ops whatever the seed; the timed loop runs whole rounds and
cycles through the pool.  The pool is small enough that a run goes
through it several times, so a fast run and a slow one cover the same
inputs (with a pool longer than a run, a faster run would reach inputs
a slower one never sees, and its figures and peak memory would follow
the machine's speed).  In-memory subgroups are
copied before every op (outside its timing), so the package's per-group
caches never carry over from one op to the next.
"""
from __future__ import annotations

import csv
import importlib
import itertools
import json
import math
import resource
import time
from pathlib import Path

import numpy as np


class Op:
    __slots__ = ("kind", "args", "key")

    def __init__(self, kind, args, key):
        self.kind = kind
        self.args = args
        self.key = key  # (pool round, slot): identifies the input


class Record:
    __slots__ = ("op", "rnd", "latency", "output", "error")

    def __init__(self, op, rnd, latency, output, error):
        self.op = op
        self.rnd = rnd  # round number within the run
        self.latency = latency
        self.output = output
        self.error = error


class Loop:
    """Outcome of one timed loop."""

    def __init__(self):
        self.records: list[Record] = []
        self.round_rates: list[float] = []
        self.wall = 0.0
        self.peak_rss_mb = 0.0


def fresh(ch, g):
    """Same canonical subgroup, new object: no cache entry matches it."""
    return ch.ClosedSubgroup(g.ambient_dim, g.continuous_basis,
                             g.discrete_basis)


def all_types(n):
    return [(p, q) for p in range(n + 1) for q in range(n - p + 1)]


def _cycle(rng, items):
    """Endless cycle through ``items`` from a seeded starting point."""
    start = int(rng.integers(len(items)))
    return itertools.cycle(items[start:] + items[:start])


def timed_loop(workload, ch, rounds, seconds, min_ops=100,
               between=None) -> Loop:
    """Run whole rounds until they took ``seconds``, at least ``min_ops``
    ops ran and the whole pool ran once, or three times ``seconds`` have
    passed.  ``between(loop)``, if given, runs after each round but the
    last, outside the rounds' timing.

    The peak resident set size is read once the pool has run once, so
    that it covers the same work in a fast run and a slow one: the
    package's caches keep every distance target alive, and the resident
    set grows with each op (about 3.8 MB per round of ``dist``)."""
    loop = Loop()
    start = time.perf_counter()
    while True:
        run_round(workload, ch, rounds, loop)
        done = len(loop.round_rates)
        if done <= len(rounds):
            loop.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        if (loop.wall >= seconds and len(loop.records) >= min_ops
                and done >= len(rounds)) \
                or time.perf_counter() - start >= 3 * seconds:
            return loop
        if between is not None:
            between(loop)


def run_round(workload, ch, rounds, loop, tracer=None):
    """Run the next round of the pool into ``loop``, each op inside a
    span of ``tracer`` if given.  Errors count as failed ops and never
    stop the round."""
    rnd = len(loop.round_rates)
    ok = 0
    start = time.perf_counter()
    for op in rounds[rnd % len(rounds)]:
        args = workload.prepare(ch, op)
        span = tracer.begin_op(len(loop.records)) if tracer else None
        t0 = time.perf_counter()
        try:
            output, error = workload.call(ch, op, args), None
        except Exception as exc:  # a failed op; the run goes on
            output, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if span is not None:
            tracer.end_op(span)
        ok += error is None
        loop.records.append(Record(op, rnd, latency, output, error))
    elapsed = time.perf_counter() - start
    loop.round_rates.append(ok / elapsed)
    loop.wall += elapsed


def _first_passes(records):
    """Map from each input to the index of its first record; repeats
    of an input are checked against that record's output."""
    first = {}
    for i, rec in enumerate(records):
        first.setdefault(rec.op.key, i)
    return first


# ---------------------------------------------------------------------------
# dist: the metric


class Dist:
    """An op is one ``chabauty_distance(a, b)`` with default parameters.

    A round holds 16 unrelated random pairs at n = 1, 2, 3 (acceptance
    criterion 9), two contraction chains scale(g, 2^-k) vs R^n for
    k = 0..7 at n <= 3 (criterion 8), and eight near-identical pairs
    (a, (I + eps M) a) at n = 2, two in each quarter of log10(eps) in
    [-3, -1]: six of type (0,2) and two of type (1,1).  A pair of type
    (0,2) takes 33-45 ms on every draw, one of type (1,1) 3-50 ms.
    With a fifth of the ops near pairs, mostly of type (0,2), the 90th
    percentile of the latency lies inside the (0,2) cluster; with one
    near pair in ten it lay on the steep edge between the near pairs
    and the cheap ops, and moved by 18% from seed to seed.  The types
    of the unrelated pairs and chains cycle through every combination
    from a seeded start, so each run holds them in the same
    proportions; the seed draws the bases.  Chains at n = 4, near
    pairs at n = 3 and pairs of two full-rank groups of R^3 with
    lattice parts take up to seconds each, or fail on the evaluation
    budget; they are in the frontier record instead (see README.md).
    """

    name = "dist"
    pool_rounds = 16
    trace_rounds_per_s = 2.2

    def build(self, ch, rng, workdir):
        pairs = {n: _cycle(rng, [(s, t) for s in all_types(n)
                                 for t in all_types(n)
                                 if not _full_rank_pair(n, s, t)])
                 for n in (1, 2, 3)}
        chains = _cycle(rng, [(n, (p, n - p)) for n in (1, 2, 3)
                              for p in range(n + 1)])

        def draw(n, group_type):
            return ch.random_subgroup(n, group_type,
                                      seed=int(rng.integers(2 ** 32)))

        rounds = []
        for r in range(self.pool_rounds):
            ops = []
            for slot in range(16):
                n = 1 + slot % 3
                pair = tuple(draw(n, t) for t in next(pairs[n]))
                ops.append(Op("unrelated", pair, (r, slot)))
            for _ in range(2):
                n, group_type = next(chains)
                g, full = draw(n, group_type), ch.standard_subgroup(n, n, 0)
                for k in range(8):
                    ops.append(Op("chain", (ch.scale(g, 2.0 ** -k), full),
                                  (r, len(ops))))
            for j in range(8):
                p = int(j >= 4 and (j + r) % 2 == 0)
                ops.append(Op("near", _near_pair(ch, rng, p, j % 4),
                              (r, len(ops))))
            rounds.append(ops)
        return rounds

    def prepare(self, ch, op):
        return tuple(fresh(ch, g) for g in op.args)

    def call(self, ch, op, args):
        return ch.chabauty_distance(*args)

    def check(self, ch, records, seed):
        """Indices of wrong outputs: values outside [0, sum of weights],
        an asymmetric value on a seeded subset, a contraction chain that
        increases in k, or a repeated input that gave another value."""
        total = sum(ch.MetricParams().weights)
        first = _first_passes(records)
        pick = np.random.default_rng([seed, 1])
        bad = set()
        chains = {}
        for i, rec in enumerate(records):
            if rec.error is not None:
                continue
            if not 0.0 <= rec.output <= total:
                bad.add(i)
            if rec.output != records[first[rec.op.key]].output:
                bad.add(i)
            if rec.op.kind == "chain":  # one R^n object per chain
                chains.setdefault((rec.rnd, id(rec.op.args[1])),
                                  []).append(i)
        for i in first.values():
            rec = records[i]
            if rec.error is None and pick.random() < 0.125:
                a, b = self.prepare(ch, rec.op)
                if ch.chabauty_distance(b, a) != rec.output:
                    bad.add(i)
        for idx in chains.values():
            vals = [records[i].output for i in idx]
            for i, x, y in zip(idx[1:], vals, vals[1:]):
                if y > x + 1e-12:
                    bad.add(i)
        return bad


def _full_rank_pair(n, s, t):
    """Two full-rank groups of R^3 with lattice parts, such as two
    lattices: 0.3-5 s and up to 550 MB per pair, depending on the draw.
    They are in the frontier record instead."""
    return n == 3 and sum(s) == 3 and sum(t) == 3 and s[1] and t[1]


def _near_pair(ch, rng, p, band):
    """A rotated standard subgroup of R^2 of type (p, 2 - p) and its
    image under I + eps M, with log10(eps) uniform in the quarter
    ``band`` of [-3, -1]: a round's four bands cover [1e-3, 1e-1]."""
    rot, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    a = ch.apply_linear(rot, ch.standard_subgroup(2, p, 2 - p))
    eps = 10.0 ** (-3.0 + 0.5 * (band + rng.uniform()))
    b = ch.apply_linear(np.eye(2) + eps * rng.normal(size=(2, 2)), a)
    return a, b


# ---------------------------------------------------------------------------
# decompose: scale decompositions


class Decompose:
    """An op is ``in_scale_neighborhood(g, base, delta)``; when it
    returns true the op goes on with ``local_decomposition`` and
    ``reconstruct``, as acceptance criterion 3 and real callers do.

    Candidates come from criterion 3's perturbed generator, with the
    shape of each of the 13 slots of a round fixed: n, the base type
    (p, q), the number of coarse generators (size ~3/delta), how many
    fine directions are discrete, and delta.  The seed draws the sizes,
    offsets and tilts.  Left random, the shape alone moves the cost of
    one candidate from 3 ms to 4 s (it picks the generation-radii path
    and the size of its ball), and no 30 s run holds steady.  The slots
    cover n = 1..6, both generation-radii paths and both values of
    delta.  Three slots tilt by 3 delta instead of 0.2 delta, which puts
    them outside the neighborhood, so about one candidate in five is
    rejected; a rejection is a correct answer.  The tilted slot at
    n = 4 has base type (1, 2): near (2, 1), one draw in ten spends
    seconds before it is rejected (see README.md).
    """

    name = "decompose"
    pool_rounds = 8
    trace_rounds_per_s = 1.1
    # (n, p, q, coarse generators, discrete fine directions, delta, tilt)
    slots = ((1, 0, 1, 0, 0, 0.1, 0.2),
             (2, 1, 1, 0, 1, 0.05, 0.2),
             (3, 1, 1, 1, 0, 0.1, 3.0),
             (3, 0, 2, 1, 0, 0.1, 0.2),  # sorted radii, a box of ~1e4
             (4, 1, 2, 1, 1, 0.05, 0.2),
             (6, 2, 2, 2, 1, 0.1, 0.2),
             (4, 1, 2, 1, 1, 0.1, 3.0),
             (5, 1, 2, 1, 1, 0.05, 0.2),
             (5, 2, 2, 1, 1, 0.1, 0.2),
             (5, 2, 2, 1, 1, 0.1, 3.0),
             (5, 1, 2, 2, 1, 0.05, 0.2),
             (6, 2, 2, 2, 1, 0.05, 0.2),
             (6, 1, 3, 2, 1, 0.1, 0.2))  # projected radii

    def build(self, ch, rng, workdir):
        rounds = []
        for r in range(self.pool_rounds):
            ops = []
            for slot, (n, p, q, coarse, fine, delta, tilt) in \
                    enumerate(self.slots):
                g = perturbed_case(ch, rng, n, p, q, coarse, fine, delta,
                                   tilt)
                ops.append(Op("candidate",
                              (g, ch.standard_subgroup(n, p, q), delta),
                              (r, slot)))
            rounds.append(ops)
        return rounds

    def prepare(self, ch, op):
        g, base, delta = op.args
        return fresh(ch, g), base, delta

    def call(self, ch, op, args):
        g, base, delta = args
        if not ch.in_scale_neighborhood(g, base, delta):
            return None
        lin, loc = ch.local_decomposition(g, base, delta)
        return ch.reconstruct(lin, loc)

    def check(self, ch, records, seed):
        """Indices of wrong outputs: a rejection that
        ``local_decomposition`` does not confirm by raising, a
        reconstruction that is not the input group (each must contain
        the other's generators), or, on a seeded quarter at n <= 5, a
        reconstruction at Chabauty distance >= 1e-6 from the input (at
        n = 6 that distance can take seconds), or a repeated input that
        gave another answer."""
        rejections = (ch.NotInNeighborhood, ch.NotDecomposable,
                      ch.InconsistentData)
        first = _first_passes(records)
        pick = np.random.default_rng([seed, 2])
        bad = set()
        wrong = set()
        for i in first.values():
            rec = records[i]
            if rec.error is not None:
                continue
            g, base, delta = self.prepare(ch, rec.op)
            if rec.output is None:
                try:
                    ch.local_decomposition(g, base, delta)
                    wrong.add(rec.op.key)
                except rejections:
                    pass
            elif not same_group(rec.output, g, 1e-6):
                wrong.add(rec.op.key)
            elif g.ambient_dim <= 5 and pick.random() < 0.25 \
                    and not ch.chabauty_distance(rec.output, g) < 1e-6:
                wrong.add(rec.op.key)
        for i, rec in enumerate(records):
            if rec.error is not None:
                continue
            ref = records[first[rec.op.key]].output
            if rec.op.key in wrong or not _same_output(rec.output, ref):
                bad.add(i)
        return bad


def _same_output(a, b):
    if a is None or b is None:
        return a is b
    return (np.array_equal(a.continuous_basis, b.continuous_basis)
            and np.array_equal(a.discrete_basis, b.discrete_basis))


def same_group(a, b, tol):
    """Equal types, and every generator of each group is a member of
    the other: the two closed subgroups contain each other."""
    if a.ambient_dim != b.ambient_dim or a.group_type != b.group_type:
        return False
    return _members(a, b, tol) and _members(b, a, tol)


def _members(x, y, tol):
    """Do the generators of ``x`` lie in ``y``?  Off the continuous part
    of ``y``, each must be an integer combination of its lattice basis."""
    gens = np.vstack([x.continuous_basis, x.discrete_basis])
    cont, disc = y.continuous_basis, y.discrete_basis
    resid = gens - (gens @ cont.T) @ cont
    if disc.shape[0]:
        coeffs = np.linalg.lstsq(disc.T, resid.T, rcond=None)[0].T
        resid = resid - np.round(coeffs) @ disc
    size = np.maximum(1.0, np.linalg.norm(gens, axis=1))
    return bool(np.all(np.linalg.norm(resid, axis=1) <= tol * size))


def perturbed_case(ch, rng, n, p, q, coarse, fine, delta, tilt):
    """Criterion 3's generator: a subgroup near the aligned base point
    of type (p, q) at scale delta.  Of the p fine directions the first
    ``fine`` carry short lattice vectors and the rest are continuous;
    q medium vectors near the axes; ``coarse`` huge vectors of size
    ~3/delta; then a tilt by I + tilt * delta * U(-1, 1).  Criterion 3
    draws the coarse size from (3/delta) * U(1, 2); the narrower band
    (3/delta) * U(1, 1.1) keeps the ball of the sorted radii path, which
    grows with the square of that size, within about 20% from draw to
    draw."""
    eye = np.eye(n)
    cont, disc = [], []
    for i in range(p):
        if i < fine:
            disc.append(eye[i] * delta * rng.uniform(0.15, 0.3))
        else:
            cont.append(eye[i])
    for i in range(q):
        w = np.zeros(n)
        if p and rng.random() < 0.7:
            w[:p] = rng.uniform(-2.0, 2.0, size=p)
        disc.append(eye[p + i] + w)
    for j in range(coarse):
        big = (3.0 / delta) * rng.uniform(1.0, 1.1)
        w = np.zeros(n)
        w[:p + q] = rng.uniform(-0.4, 0.4, size=p + q)
        disc.append(big * eye[p + q + j] + w)
    g = ch.make_subgroup(n, cont, disc)
    shear = np.eye(n) + tilt * delta * rng.uniform(-1, 1, size=(n, n))
    return ch.apply_linear(shear, g)


# ---------------------------------------------------------------------------
# cli_batch: the command line front end, in process


class CliBatch:
    """An op is one in-process ``cli.run(argv)`` writing to ``--out``.

    A round holds 12 invocations: info, dual, reduce2 and stab on one
    file each, decompose on one file, a 5 x 5 atlas, and 8-file batches
    of info, dual, reduce2, stab, info and dual, so half the
    invocations run the CLI's thread pool.  The invocations share a
    pool of input files: one random subgroup of every type at
    n = 1..6, which info and dual cycle through per n from a seeded
    start, and 16 rotated unit-systole plane lattices (one square, one
    hexagonal) for reduce2 and stab.  Every batch spans n = 1..6 and
    holds the square and the hexagonal lattice, so batches cost about
    the same.  Sharing the files keeps the set-up's file writes, whose
    time drifts with the machine's file system, to about a hundred.
    """

    name = "cli_batch"
    pool_rounds = 8
    trace_rounds_per_s = 7.0
    plane_files = 16
    slots = (("info", 1), ("info", 8), ("dual", 1), ("dual", 8),
             ("reduce2", 1), ("reduce2", 8), ("stab", 1), ("stab", 8),
             ("decompose", 1), ("atlas", 0), ("info", 8), ("dual", 8))

    def build(self, ch, rng, workdir):
        importlib.import_module("chabauty.cli")
        workdir = Path(workdir)
        (workdir / "in").mkdir(parents=True)
        (workdir / "out").mkdir()
        self.out_dir = workdir / "out"
        self.runs = 0
        count = 0

        def write(group):
            nonlocal count
            path = workdir / "in" / f"{count}.json"
            count += 1
            path.write_text(ch.dumps(ch.subgroup_to_dict(group)) + "\n",
                            encoding="utf-8")
            return str(path)

        groups = {n: _cycle(rng, [write(ch.random_subgroup(
                      n, t, seed=int(rng.integers(2 ** 32))))
                      for t in all_types(n)])
                  for n in range(1, 7)}
        square, hexagonal, *others = [
            write(_rotated_lattice(ch, rng, _plane_point(rng, i)))
            for i in range(self.plane_files)]
        others = _cycle(rng, others)

        rounds = []
        for r in range(self.pool_rounds):
            ops = []
            for slot, (cmd, files) in enumerate(self.slots):
                argv = [cmd]
                if cmd in ("info", "dual"):
                    argv += [next(groups[1 + (i + r) % 6])
                             for i in range(files)]
                elif cmd in ("reduce2", "stab") and files == 1:
                    argv.append((square, hexagonal)[r % 3] if r % 3 < 2
                                else next(others))
                elif cmd in ("reduce2", "stab"):
                    argv += [square, hexagonal]
                    argv += [next(others) for _ in range(files - 2)]
                elif cmd == "decompose":
                    g, (p, q), delta = _decomposable(ch, rng)
                    argv += [write(g), "--base-type", str(p), str(q),
                             "--delta", repr(delta)]
                else:
                    argv += ["--re-steps", "5", "--im-steps", "5",
                             "--format", "csv"]
                ops.append(Op(cmd, argv, (r, slot)))
            rounds.append(ops)
        return rounds

    def prepare(self, ch, op):
        out = self.out_dir / f"{self.runs}.out"
        self.runs += 1
        return op.args + ["--out", str(out)]

    def call(self, ch, op, argv):
        code = ch.cli.run(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {argv[-1]}")
        return argv[-1]

    def check(self, ch, records, seed):
        """Indices of wrong outputs: an output that does not parse; info
        whose type or norms differ from the library's for the same file;
        dual not of type (n - (p + q), q); stab outside {1, 2, 3} or not
        ``stabilizer_order``; reduce2 outside the fundamental domain; an
        atlas row with an order outside {1, 2, 3}; a repeated input whose
        output differs from its first run's."""
        first = _first_passes(records)
        texts, bad = {}, set()
        for i, rec in enumerate(records):
            if rec.error is not None:
                continue
            text = Path(rec.output).read_text(encoding="utf-8")
            if first[rec.op.key] != i:
                if text != texts.get(rec.op.key):
                    bad.add(i)
                continue
            texts[rec.op.key] = text
            try:
                ok = self._check_one(ch, rec.op, text)
            except (ValueError, KeyError, TypeError, IndexError):
                ok = False
            if not ok:
                bad.add(i)
        return bad

    def _check_one(self, ch, op, text):
        if op.kind == "atlas":
            rows = list(csv.reader(text.splitlines()))
            return (rows[0] == ["re", "im", "stabilizer_order"]
                    and len(rows) > 1
                    and all(int(r[2]) in (1, 2, 3) for r in rows[1:]))
        data = json.loads(text)
        if op.kind == "decompose":
            return {"flag", "fine_part", "medium_basis"} <= set(data)
        paths = [a for a in op.args[1:] if a.endswith(".json")]
        outs = data if len(paths) > 1 else [data]
        if len(outs) != len(paths):
            return False
        for path, out in zip(paths, outs):
            g = ch.load_subgroup(path)
            n = g.ambient_dim
            p, q = ch.type_of(g)
            if op.kind == "info":
                norms = [float(x) for x in out["norms"]]
                if out["type"] != [p, q] or norms != list(ch.norms(g)):
                    return False
            elif op.kind == "dual":
                if out["type"] != [n - (p + q), q]:
                    return False
            elif op.kind == "stab":
                if out["order"] not in (1, 2, 3) \
                        or out["order"] != ch.stabilizer_order(g):
                    return False
            elif op.kind == "reduce2":
                z = complex(*out["z"])
                if not (0.0 <= out["theta"] < math.pi and z.imag > 0
                        and abs(z.real) <= 0.5 + 1e-9
                        and abs(z) >= 1.0 - 1e-9):
                    return False
        return True


_HEX = complex(0.5, math.sqrt(3) / 2)


def _plane_point(rng, i):
    """Square lattice for i = 0, hexagonal for i = 1, else a random
    point of the fundamental domain away from its boundary arc."""
    if i == 0:
        return 1j
    if i == 1:
        return _HEX
    x = rng.uniform(-0.45, 0.45)
    return complex(x, rng.uniform(math.sqrt(1 - x * x) + 0.05, 2.5))


def _rotated_lattice(ch, rng, z):
    rot = complex(math.cos(t := rng.uniform(0, 2 * math.pi)), math.sin(t))
    rows = [[rot.real, rot.imag], [(rot * z).real, (rot * z).imag]]
    return ch.make_subgroup(2, None, rows)


def _decomposable(ch, rng):
    """A perturbed case in R^2 near the base point of type (0, 1) with
    one coarse generator at delta = 0.1, drawn until it lies in the
    neighborhood.  The shape is fixed because others cost up to
    seconds, which one invocation per round would repeat."""
    base = ch.standard_subgroup(2, 0, 1)
    while True:
        g = perturbed_case(ch, rng, 2, 0, 1, 1, 0, 0.1, 0.2)
        if ch.in_scale_neighborhood(g, base, 0.1):
            return g, (0, 1), 0.1


WORKLOADS = {w.name: w for w in (Dist(), Decompose(), CliBatch())}
