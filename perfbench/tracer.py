"""Call-boundary tracing of the chabauty package, from outside it.

``Tracer.install`` wraps a fixed list of package functions and methods.
Modules such as ``metric`` and ``cli`` bind names like ``norms`` at
import time, so every reference to a wrapped function in any
``chabauty.*`` module is replaced, not only the defining one.  Each call
through a wrapper records a span (name, layer, start, end, thread, op id
and parent span) and, for a few functions, counters taken from its
arguments and result.  ``Tracer.report`` turns the spans into per-layer
self times and the per-layer metrics listed in ``PER_LAYER``.

A function listed here that the package no longer has is reported as
absent; its metrics read 0 and the run goes on.
"""
from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Layers in dependency order.  The package module ``_lattice`` is the
# layer ``lattice``: metric names must start with a letter or a digit.
LAYERS = ("lattice", "subgroup", "invariants", "duality", "metric", "local",
          "plane", "serialize", "cli")
_MODULE_LAYER = {"_lattice": "lattice"}

# (module, attribute path) of every wrapped callable, by layer.
WRAPPED = (
    ("_lattice", "lll_reduce"),
    ("_lattice", "basis_from_generators"),
    ("_lattice", "enumerate_ball"),
    ("_lattice", "LatticeSolver.__init__"),
    ("_lattice", "LatticeSolver.closest"),
    ("subgroup", "make_subgroup"),
    ("subgroup", "apply_linear"),
    ("subgroup", "nearest_point"),
    ("subgroup", "distance_to_subgroup"),
    ("subgroup", "points_in_ball"),
    ("subgroup", "points_in_ball_with_coefficients"),
    ("invariants", "generation_data"),
    ("invariants", "norms"),
    ("invariants", "systole"),
    ("invariants", "delta_type"),
    ("invariants", "covolume"),
    ("invariants", "discrete_covolume"),
    ("duality", "dual"),
    ("metric", "chabauty_distance"),
    ("metric", "hausdorff_gap"),
    ("local", "in_scale_neighborhood"),
    ("local", "local_decomposition"),
    ("local", "linear_decomposition"),
    ("local", "trivialisation"),
    ("local", "reconstruct"),
    ("plane", "reduce_lattice"),
    ("plane", "stabilizer_order"),
    ("plane", "atlas_rows"),
    ("serialize", "load_subgroup"),
    ("serialize", "subgroup_to_dict"),
    ("serialize", "dumps"),
    ("cli", "run"),
    ("cli", "build_parser"),
    ("cli", "_run_command"),
    ("cli", "_map_inputs"),
    ("cli", "_info_one"),
    ("cli", "_dual_one"),
    ("cli", "_reduce_one"),
    ("cli", "_stab_one"),
)

# Per-layer metrics: name -> (unit, better).  The table in README.md
# says which end-to-end metric and workload each one should move.
PER_LAYER = {
    "lattice.self_s": ("s", "lower"),
    "lattice.enumerate_ball.calls": ("count", "lower"),
    "lattice.enumerate_ball.box": ("count", "lower"),
    "lattice.enumerate_ball.points": ("count", "lower"),
    "lattice.enumerate_ball.kept_ratio": ("ratio", "higher"),
    "lattice.enumerate_ball.self_s": ("s", "lower"),
    "lattice.solver.builds": ("count", "lower"),
    "lattice.solver.offsets": ("rows", "lower"),
    "lattice.closest.calls": ("count", "lower"),
    "lattice.closest.targets": ("count", "lower"),
    "lattice.closest.self_s": ("s", "lower"),
    "lattice.lll_reduce.calls": ("count", "lower"),
    "lattice.lll_reduce.self_s": ("s", "lower"),
    "lattice.basis_from_generators.calls": ("count", "lower"),
    "lattice.basis_from_generators.self_s": ("s", "lower"),
    "lattice.budget_exceeded": ("count", "lower"),
    "subgroup.self_s": ("s", "lower"),
    "subgroup.make_subgroup.calls": ("count", "lower"),
    "subgroup.nearest_point.calls": ("count", "lower"),
    "invariants.self_s": ("s", "lower"),
    "invariants.generation_data.calls": ("count", "lower"),
    "invariants.generation_data.repeat_share": ("ratio", "lower"),
    "duality.self_s": ("s", "lower"),
    "duality.dual.calls": ("count", "lower"),
    "metric.self_s": ("s", "lower"),
    "metric.chabauty_distance.calls": ("count", "lower"),
    "metric.hausdorff_gap.calls": ("count", "lower"),
    "metric.hausdorff_gap.self_s": ("s", "lower"),
    "metric.budget_exceeded": ("count", "lower"),
    "local.self_s": ("s", "lower"),
    "local.local_decomposition.calls": ("count", "lower"),
    "local.reconstruct.calls": ("count", "lower"),
    "local.rejected": ("count", "lower"),
    "plane.self_s": ("s", "lower"),
    "plane.reduce_lattice.calls": ("count", "lower"),
    "plane.stabilizer_order.calls": ("count", "lower"),
    "serialize.self_s": ("s", "lower"),
    "serialize.load_subgroup.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.run.calls": ("count", "lower"),
    "cli.pool_overlap": ("ratio", "higher"),
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.ops": ("count", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.absent": ("count", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

# Span names of the solver methods, as the per-layer metrics name them.
_SPAN_NAMES = {"LatticeSolver.__init__": "solver",
               "LatticeSolver.closest": "closest"}

_WORKERS = ("cli._info_one", "cli._dual_one", "cli._reduce_one",
            "cli._stab_one")


class Span:
    __slots__ = ("name", "layer", "start", "end", "thread", "op", "parent")

    def __init__(self, name, layer, thread, op, parent):
        self.name = name
        self.layer = layer
        self.thread = thread
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Records spans while installed; one op runs at a time.

    Spans opened on a thread with no open span of its own (the CLI's
    pool workers) take the innermost open span of the op's thread as
    their parent, which is the enclosing ``cli`` call.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.counts = defaultdict(float)
        self._enum_args = []  # (basis, radius) of each completed call
        self._budget_errors = {}  # id -> exception, raised where first seen
        self._local = threading.local()
        self._op_stack: list[Span] | None = None
        self._op_groups: dict = {}
        self._op = None
        self._patches = []
        self._budget_type = None
        self._lock = threading.Lock()  # pool workers update the counts

    def add(self, key, amount=1.0):
        with self._lock:
            self.counts[key] += amount

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, layer):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._op_stack:
            parent = self._op_stack[-1]
        else:
            parent = None
        span = Span(name, layer, threading.get_ident(), self._op, parent)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span, exc=None):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)
        if exc is not None and isinstance(exc, self._budget_type):
            with self._lock:
                if id(exc) in self._budget_errors:
                    return
                self._budget_errors[id(exc)] = exc
            self.add(f"{span.layer}.budget_exceeded")

    def begin_op(self, op_id):
        """Open the benchmark's own span around one op."""
        self._op = op_id
        self._op_groups = {}
        span = self._open("bench.op", "bench")
        self._op_stack = self._stack()
        return span

    def end_op(self, span):
        self._close(span)
        self._op_stack = None
        self._op = None

    def _wrap(self, name, layer, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].name == name:  # recursion: one span
                return fn(*args, **kwargs)
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span, exc)
                raise
            tracer._close(span)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ----------------------------------------------------
    def install(self, wrapped=WRAPPED):
        """Wrap every listed callable of the imported package; the
        spans and counts recorded so far are kept."""
        self.absent = []
        errors = importlib.import_module("chabauty.errors")
        self._budget_type = errors.EnumerationBudgetExceeded
        found = {}
        for mod_name in dict.fromkeys(mod for mod, _ in wrapped):
            try:
                found[mod_name] = importlib.import_module(
                    f"chabauty.{mod_name}")
            except ImportError:
                pass
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "chabauty"
                                         or key.startswith("chabauty."))]
        for mod_name, path in wrapped:
            layer = _MODULE_LAYER.get(mod_name, mod_name)
            metric_name = layer + "." + _SPAN_NAMES.get(path, path)
            module = found.get(mod_name)
            if module is None:
                self.absent.append(metric_name)
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner else None
            if not callable(original):
                self.absent.append(metric_name)
                continue
            wrapper = self._wrap(metric_name, layer, original,
                                 _OBSERVERS.get(metric_name))
            if owner is not module:  # a method: patch the class once
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------
    def report(self, untraced_wall=None) -> dict:
        """Per-layer metrics over every span recorded so far."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append((span.start, span.end))
        self_by_layer = defaultdict(float)
        self_by_name = defaultdict(float)
        calls = defaultdict(int)
        op_spans = {}
        cli_run = defaultdict(float)
        workers = defaultdict(float)
        for span in self.spans:
            dur = span.end - span.start
            own = dur - _covered(children.get(id(span), ()), span.start,
                                 span.end)
            self_by_layer[span.layer] += own
            self_by_name[span.name] += own
            calls[span.name] += 1
            if span.name == "bench.op":
                op_spans[span.op] = dur
            elif span.name == "cli.run":
                cli_run[span.op] += dur
            elif span.name in _WORKERS and span.parent is not None \
                    and span.parent.thread != span.thread:
                workers[span.op] += dur
        out = {name: 0.0 for name in PER_LAYER}
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = self_by_layer[layer]
        for name in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = float(calls[base])
            elif kind == "self_s" and base not in LAYERS + ("bench",):
                out[name] = self_by_name[base]
        out["lattice.solver.builds"] = float(calls["lattice.solver"])
        if self.counts["solver_offset_builds"]:
            out["lattice.solver.offsets"] = (
                self.counts["solver_offsets"]
                / self.counts["solver_offset_builds"])
        box = float(sum(_box(basis, radius)
                        for basis, radius in self._enum_args))
        points = self.counts["enum_points"]
        out["lattice.enumerate_ball.box"] = box
        out["lattice.enumerate_ball.points"] = points
        out["lattice.enumerate_ball.kept_ratio"] = points / box if box else 0.0
        out["lattice.closest.targets"] = self.counts["closest_targets"]
        for layer in ("lattice", "metric"):
            out[f"{layer}.budget_exceeded"] = \
                self.counts[f"{layer}.budget_exceeded"]
        gen_calls = self.counts["gen_calls"]
        if gen_calls:
            out["invariants.generation_data.repeat_share"] = \
                self.counts["gen_repeats"] / gen_calls
        out["local.rejected"] = self.counts["local_rejected"]
        batch_wall = sum(cli_run[op] for op in workers)
        if batch_wall:
            out["cli.pool_overlap"] = sum(workers.values()) / batch_wall
        wall = sum(op_spans.values())
        out["trace.wall_s"] = wall
        out["trace.ops"] = float(len(op_spans))
        out["trace.spans"] = float(len(self.spans))
        out["trace.absent"] = float(len(self.absent))
        if untraced_wall:
            out["trace.overhead"] = wall / untraced_wall - 1.0
        return out


def _box(basis, radius) -> float:
    """Candidates of the coefficient box of one ball enumeration,
    prod(2 * floor(r * nu_i) + 1) with nu the dual-basis norms."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] == 0:
        return 1.0
    nu = np.sqrt(np.diag(np.linalg.inv(basis @ basis.T)))
    return float(np.prod(2 * np.floor(radius * nu + 1e-9) + 1))


def _observe_enum(tracer, args, kwargs, result):
    basis = args[0] if args else kwargs["basis"]
    radius = args[1] if len(args) > 1 else kwargs["radius"]
    tracer._enum_args.append((basis, float(radius)))
    tracer.add("enum_points", len(result[0]))


def _observe_solver(tracer, args, kwargs, result):
    offsets = getattr(args[0], "_offsets", None)
    if offsets is not None:
        tracer.add("solver_offset_builds")
        tracer.add("solver_offsets", len(offsets))


def _observe_closest(tracer, args, kwargs, result):
    targets = args[1] if len(args) > 1 else kwargs["targets"]
    tracer.add("closest_targets", np.atleast_2d(targets).shape[0])


def _observe_generation(tracer, args, kwargs, result):
    group = args[0] if args else kwargs["group"]
    with tracer._lock:
        repeat = id(group) in tracer._op_groups
        # keep the group alive so that its id is not reused within the op
        tracer._op_groups[id(group)] = group
    tracer.add("gen_calls")
    tracer.add("gen_repeats", float(repeat))


def _observe_membership(tracer, args, kwargs, result):
    if not result:
        tracer.add("local_rejected")


_OBSERVERS = {
    "lattice.enumerate_ball": _observe_enum,
    "lattice.solver": _observe_solver,
    "lattice.closest": _observe_closest,
    "invariants.generation_data": _observe_generation,
    "local.in_scale_neighborhood": _observe_membership,
}
