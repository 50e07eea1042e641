"""Command line front end: JSON in, JSON (or CSV for the atlas) out.

Exit codes: 0 on success, 1 on domain errors (a machine-readable error
object is printed), 2 on usage errors.  An argument outside its range,
such as a scale delta outside (0, 1), is a domain error: the library
raises ValueError for it, and the error object names that kind.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor

from . import local, metric, plane
from .duality import dual
from .errors import ChabautyError, OutOfRange
from .invariants import covolume, discrete_covolume, norms, systole
from .metric import MetricParams, chabauty_distance, classify_limit, \
    degeneration_family
from .serialize import dumps, format_float, load_subgroup, subgroup_to_dict
from .subgroup import random_subgroup, standard_subgroup, type_of


def _parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--out", metavar="PATH")
    return parent


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The shared parser, built on the first call and returned by every
    later one.  Parsing reads it without changing it, so ``run`` may be
    called repeatedly and from threads; callers must not mutate it."""
    ap = argparse.ArgumentParser(
        prog="chabauty",
        description="invariants, duality, metric and decompositions for "
                    "closed subgroups of R^n")
    parent = _parent()
    sub = ap.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("info", parents=[parent],
                         help="type, norms and covolumes of subgroups")
    cmd.add_argument("inputs", nargs="+")

    cmd = sub.add_parser("dual", parents=[parent], help="dual subgroup")
    cmd.add_argument("inputs", nargs="+")

    cmd = sub.add_parser("dist", parents=[parent],
                         help="distance between two subgroups")
    cmd.add_argument("inputs", nargs=2)
    cmd.add_argument("--params", metavar="FILE",
                     help="metric parameter overrides (JSON)")

    cmd = sub.add_parser("decompose", parents=[parent],
                         help="scale decomposition at an aligned base point")
    cmd.add_argument("inputs", nargs=1)
    cmd.add_argument("--base-type", type=int, nargs=2, required=True,
                     metavar=("P", "Q"))
    cmd.add_argument("--delta", type=float, required=True)

    cmd = sub.add_parser("limit", parents=[parent],
                         help="classify the limit of a parametric family")
    cmd.add_argument("--template", required=True,
                     choices=["shrink", "grow", "constant"])
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--source", type=int, nargs=2, required=True,
                     metavar=("P", "Q"))
    cmd.add_argument("--delta", type=float, required=True)
    cmd.add_argument("--t", type=float, nargs="+", required=True)

    cmd = sub.add_parser("reduce2", parents=[parent],
                         help="fundamental-domain form of a plane lattice")
    cmd.add_argument("inputs", nargs="+")

    cmd = sub.add_parser("suspend", parents=[parent],
                         help="suspension of a unit-covolume plane subgroup")
    cmd.add_argument("inputs", nargs=1)
    cmd.add_argument("--t", type=float, required=True)

    cmd = sub.add_parser("stab", parents=[parent],
                         help="rotation stabilizer order")
    cmd.add_argument("inputs", nargs="+")

    cmd = sub.add_parser("poset", parents=[parent],
                         help="strata, dimensions and covering arrows")
    cmd.add_argument("--n", type=int, required=True)

    cmd = sub.add_parser("fiber-dim", parents=[parent],
                         help="torus fiber dimension of a link bundle")
    cmd.add_argument("values", type=int, nargs=5, metavar="V")

    cmd = sub.add_parser("sample", parents=[parent],
                         help="deterministic random subgroup")
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--type", type=int, nargs=2, required=True,
                     metavar=("P", "Q"))
    cmd.add_argument("--seed", type=int, default=0)

    cmd = sub.add_parser("atlas", parents=[parent],
                         help="stabilizer orders over a base-point grid")
    cmd.add_argument("--re-steps", type=int, default=41)
    cmd.add_argument("--im-steps", type=int, default=41)
    cmd.add_argument("--im-max", type=float, default=3.0)
    cmd.add_argument("--format", choices=["json", "csv"], default="csv")
    return ap


def _load_params(path) -> MetricParams:
    """Metric parameters from a JSON object with some of the keys
    radii, weights, grid and cap; raises OutOfRange on any other key or
    an invalid value, such as a boolean or a cap that is not an
    integer."""
    if not path:
        return metric.DEFAULT_PARAMS
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise OutOfRange("metric parameters must be a JSON object")
    unknown = sorted(set(raw) - {"radii", "weights", "grid", "cap"})
    if unknown:
        raise OutOfRange(f"unknown metric parameters {unknown}; the keys "
                         "are radii, weights, grid and cap")
    try:
        return MetricParams(**raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise OutOfRange(f"invalid metric parameters: {exc}") from exc


def _map_inputs(fn, paths):
    paths = list(paths)
    if len(paths) <= 1:
        return [fn(p) for p in paths]
    with ThreadPoolExecutor(max_workers=min(8, len(paths))) as pool:
        return list(pool.map(fn, paths))


def _info_one(path):
    g = load_subgroup(path)
    out = {
        "ambient_dim": g.ambient_dim,
        "type": list(type_of(g)),
        "rank": g.rank,
        "norms": [float(x) for x in norms(g)],
        "systole": systole(g),
        "discrete_covolume": discrete_covolume(g),
    }
    if g.ambient_dim == 2:
        out["covolume"] = covolume(g)
    return out


def _dual_one(path):
    g = dual(load_subgroup(path))
    out = subgroup_to_dict(g)
    out["type"] = list(type_of(g))
    return out


def _reduce_one(path):
    form = plane.reduce_lattice(load_subgroup(path))
    return {"theta": form.theta, "z": [form.z.real, form.z.imag]}


def _stab_one(path):
    return {"order": plane.stabilizer_order(load_subgroup(path))}


def _run_command(ns) -> str:
    cmd = ns.command
    if cmd == "info":
        results = _map_inputs(_info_one, ns.inputs)
    elif cmd == "dual":
        results = _map_inputs(_dual_one, ns.inputs)
    elif cmd == "dist":
        params = _load_params(ns.params)
        a = load_subgroup(ns.inputs[0])
        b = load_subgroup(ns.inputs[1])
        results = [{"distance": chabauty_distance(a, b, params)}]
    elif cmd == "decompose":
        g = load_subgroup(ns.inputs[0])
        base = standard_subgroup(g.ambient_dim, *ns.base_type)
        lin, loc = local.local_decomposition(g, base, ns.delta)
        results = [{
            "delta": ns.delta,
            "flag": {"fine": lin.fine, "medium": lin.medium,
                     "coarse": lin.coarse},
            "trivialisation": local.trivialisation(
                lin, local.standard_flag(g.ambient_dim,
                                         *lin.block_type)).matrix,
            "fine_part": subgroup_to_dict(loc.fine_part),
            "medium_basis": loc.medium_basis,
            "coarse_basis": loc.coarse_basis,
            "medium_offset": loc.medium_offset,
            "coarse_offset_fine": loc.coarse_offset_fine,
            "coarse_offset_medium": loc.coarse_offset_medium,
        }]
    elif cmd == "limit":
        p, q = ns.source
        if ns.template == "constant":
            def family(t):
                return standard_subgroup(ns.n, p, q)
        elif ns.template == "shrink":
            family = degeneration_family(ns.n, (p, q), (p + 1, q - 1))
        else:
            family = degeneration_family(ns.n, (p, q), (p, q - 1))
        report = classify_limit(family, ns.t, ns.delta)
        results = [{
            "type": list(report.group_type),
            "to_zero": list(report.to_zero),
            "to_infinity": list(report.to_infinity),
            "parameters": list(ns.t),
            "norm_trace": report.norm_trace,
        }]
    elif cmd == "reduce2":
        results = _map_inputs(_reduce_one, ns.inputs)
    elif cmd == "suspend":
        g = plane.suspension_map(load_subgroup(ns.inputs[0]), ns.t)
        results = [subgroup_to_dict(g)]
    elif cmd == "stab":
        results = _map_inputs(_stab_one, ns.inputs)
    elif cmd == "poset":
        types = local.all_types(ns.n)
        results = [{
            "n": ns.n,
            "types": [list(t) for t in types],
            "dimensions": [local.stratum_dimension(ns.n, t) for t in types],
            "covers": [[list(a), list(b)]
                       for a, b in local.hasse_diagram(ns.n)],
        }]
    elif cmd == "fiber-dim":
        n, p, q, r, s = ns.values
        return str(local.fiber_dimension(n, (p, q), (r, s))) + "\n"
    elif cmd == "sample":
        g = random_subgroup(ns.n, tuple(ns.type), ns.seed)
        results = [subgroup_to_dict(g)]
    elif cmd == "atlas":
        rows = plane.atlas_rows(ns.re_steps, ns.im_steps, ns.im_max)
        if ns.format == "json":
            return dumps([list(r) for r in rows]) + "\n"
        lines = ["re,im,stabilizer_order"]
        lines += [f"{format_float(x)},{format_float(y)},{order}"
                  for x, y, order in rows]
        return "\n".join(lines) + "\n"
    payload = results[0] if len(results) == 1 else results
    return dumps(payload) + "\n"


def _write(out_path, text: str):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def run(argv) -> int:
    """Parse and execute one command, returning the process exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        text = _run_command(ns)
    except (ChabautyError, OSError, ValueError) as exc:
        error = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
        _write(ns.out, dumps(error) + "\n")
        return 1
    _write(ns.out, text)
    return 0


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


def cli_entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover: run in a child process
    cli_entry()
