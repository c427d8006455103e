"""Batch command-line front end.

Every output JSON embeds the run manifest (command, inputs, parameters,
seed, outputs, tool version).  Exit codes: 0 success, 1 invariant or
verification failure, 2 input error, 3 resource cap.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import ManifoldData, compute_report
from .complexes import Complex, find_isomorphism
from .geometry import (
    Geometry,
    GeometryError,
    centroid,
    geometric_barycentric,
    kappa,
    median_ratio,
    random_simplex,
    scaling_levels,
)
from .intersect import IntersectionError, barycentric_polytopal, commonsub_count_check, intersect_linear, torus_intersect
from .pachner import (
    MoveError,
    SearchCapExceeded,
    apply,
    bfs_equivalence,
    enumerate_moves,
    replay_verified,
)
from .reduction import ReductionError, alpha_to_beta, beta2_bridge, relate
from .serialize import (
    FormatError,
    common_subdivision_to_dict,
    complex_from_dict,
    complex_to_dict,
    dumps,
    geom_complex_from_dict,
    geom_complex_to_dict,
    json_int,
    json_number,
    loads,
    move_from_dict,
    polytopal_to_dict,
    sequence_from_dict,
    sequence_to_dict,
    subdivided_from_dict,
    subdivided_to_dict,
)
from .shelling import ShellingError, find_shelling, star_via_shelling, verify_shelling
from .subdivision import (
    MAX_SIMPLEXES,
    ResourceCapExceeded,
    barycentric,
    identity_subdivision,
    iterated_barycentric,
    partial_relative,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# the file options each action reads; argparse can only require an option
# for a whole subcommand, so _action_inputs checks them per action
ACTION_FILES = {
    "enumerate": ("input",), "apply": ("input", "move"), "bfs": ("start", "goal"),
    "find": ("input",), "star": ("ambient", "ball"),
    "alpha2beta": ("complex", "alpha"), "bridge": ("complex", "kprime"), "relate": ("k1", "k2"),
}


def _action_inputs(args) -> dict:
    """The action's input files by option name; a missing one is an input
    error that names it."""
    names = ACTION_FILES[args.action]
    missing = [f"--{o}" for o in names if getattr(args, o) is None]
    if missing:
        raise CliError(EXIT_INPUT, f"{args.command} {args.action} needs {', '.join(missing)}")
    return {o: getattr(args, o) for o in names}


def _read_json(path: str) -> dict:
    try:
        return loads(Path(path).read_text())
    except OSError as e:
        raise CliError(EXIT_INPUT, f"cannot read {path}: {e}") from e
    except FormatError as e:
        raise CliError(EXIT_INPUT, f"{path}: {e}") from e


def _load_complex(path: str) -> Complex:
    try:
        return complex_from_dict(_read_json(path))
    except FormatError as e:
        raise CliError(EXIT_INPUT, f"{path}: {e}") from e


def _load_geom(path: str):
    try:
        gk = geom_complex_from_dict(_read_json(path))
        gk.validate()
        return gk
    except (FormatError, GeometryError) as e:
        raise CliError(EXIT_INPUT, f"{path}: {e}") from e


def _write_output(args, command: str, inputs: dict, parameters: dict, payload: dict) -> None:
    """Write ``payload`` with its run manifest to ``args.output``, or print
    it when no output file is given."""
    manifest = {
        "command": command,
        "inputs": inputs,
        "parameters": parameters,
        "seed": args.seed,
        "outputs": [args.output] if args.output else [],
        "tool_version": __version__,
    }
    text = dumps({"manifest": manifest, **payload})
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)


# -- subcommand handlers ------------------------------------------------------


def cmd_subdivide(args) -> int:
    mode = args.mode
    write = partial(_write_output, args, "subdivide", {"input": args.input}, {"mode": mode})
    kind, _, count = mode.partition(":")
    if kind in ("geometric", "partial", "iterated"):
        try:
            n = int(count)
        except ValueError:
            n = -1
        if n < 0:
            raise CliError(EXIT_INPUT, f"mode {mode!r} needs a non-negative integer after '{kind}:'")
    if kind == "geometric":
        gk = _load_geom(args.input)
        out = geometric_barycentric(gk, n, max_simplexes=args.max_simplexes)
        write({"geometric_complex": geom_complex_to_dict(out)})
        return EXIT_OK
    k = _load_complex(args.input)
    if mode == "bary":
        sub = barycentric(k)
    elif kind == "partial":
        sub = partial_relative(k, identity_subdivision(k), n)
    elif kind == "iterated":
        sub = iterated_barycentric(k, n, max_simplexes=args.max_simplexes)
    else:
        raise CliError(EXIT_INPUT, f"unknown mode {mode!r}")
    write({"subdivision": subdivided_to_dict(sub)})
    return EXIT_OK


def cmd_pachner(args) -> int:
    write = partial(
        _write_output,
        args,
        f"pachner {args.action}",
        _action_inputs(args),
        {"max_depth": getattr(args, "max_depth", None)},
    )
    if args.action == "enumerate":
        k = _load_complex(args.input)
        moves = enumerate_moves(k)
        write({"moves": [{"A": list(m.a), "B": list(m.b)} for m in moves]})
        return EXIT_OK
    if args.action == "apply":
        k = _load_complex(args.input)
        move = move_from_dict(_read_json(args.move))
        out = apply(k, move)
        write({"complex": complex_to_dict(out)})
        return EXIT_OK
    # bfs
    k = _load_complex(args.start)
    l = _load_complex(args.goal)
    seq = bfs_equivalence(k, l, args.max_depth)
    if seq is None:
        raise CliError(EXIT_INVARIANT, "no sequence found within the depth bound")
    write({"sequence": sequence_to_dict(seq)})
    return EXIT_OK


def cmd_shell(args) -> int:
    write = partial(
        _write_output,
        args,
        f"shell {args.action}",
        _action_inputs(args),
        {"apex": getattr(args, "apex", None)},
    )
    if args.action == "find":
        ball = _load_complex(args.input)
        shelling = find_shelling(ball)
        if shelling is None:
            raise CliError(EXIT_INVARIANT, "no shelling exists")
        if not verify_shelling(ball, shelling):
            raise CliError(EXIT_INVARIANT, "independent replay rejected the certificate")
        write(
            {
                "shelling": {
                    "steps": [[list(s.a), list(s.b)] for s in shelling.steps],
                    "final": list(shelling.final),
                }
            }
        )
        return EXIT_OK
    ambient = _load_complex(args.ambient)
    ball = _load_complex(args.ball)
    seq, result = star_via_shelling(ambient, ball, args.apex)
    write({"sequence": sequence_to_dict(seq), "result": complex_to_dict(result)})
    return EXIT_OK


def _trace_dict(trace) -> dict:
    return {
        "per_level_moves": {str(k): v for k, v in trace.per_level_moves.items()},
        "per_level_bounds": {str(k): v for k, v in trace.per_level_bounds.items()},
        "total_moves": trace.total_moves,
        "reduction_bound": trace.reduction_bound,
        "level_checks": {str(k): v for k, v in trace.level_checks.items()},
        "notes": trace.notes,
    }


def cmd_reduce(args) -> int:
    write = partial(
        _write_output,
        args,
        f"reduce {args.action}",
        _action_inputs(args),
        {},
    )
    if args.action == "alpha2beta":
        k = _load_complex(args.complex)
        alpha = subdivided_from_dict(_read_json(args.alpha))
        seq, trace = alpha_to_beta(k, alpha)
        write({"sequence": sequence_to_dict(seq), "trace": _trace_dict(trace)})
        return EXIT_OK
    if args.action == "bridge":
        k = _load_complex(args.complex)
        kprime = subdivided_from_dict(_read_json(args.kprime))
        seq, trace = beta2_bridge(k, kprime)
        write({"sequence": sequence_to_dict(seq), "trace": _trace_dict(trace)})
        return EXIT_OK
    k1 = _load_geom(args.k1)
    k2 = _load_geom(args.k2)
    res = relate(k1, k2)
    write(
        {
            "sequence": sequence_to_dict(res.sequence),
            "start": complex_to_dict(res.start),
            "end": complex_to_dict(res.end),
            "trace1": _trace_dict(res.trace1),
            "trace2": _trace_dict(res.trace2),
            "common_vertices": sorted(res.common_vertices),
            "pre_subdivision_depth": res.pre_subdivision_depth,
            "escalation_layers": res.escalation_layers,
            "bound_m": res.bound_m,
            "bound_value": str(res.bound_value),
            "notes": res.notes,
        }
    )
    return EXIT_OK


def cmd_intersect(args) -> int:
    k1 = _load_geom(args.k1)
    k2 = _load_geom(args.k2)
    poly = torus_intersect(k1, k2) if args.action == "torus" else intersect_linear(k1, k2)
    common = barycentric_polytopal(poly, k1, k2)
    report = commonsub_count_check(k1, k2, common)
    if report["violation"]:
        raise CliError(EXIT_INVARIANT, report["violation"])
    if not report["measure_ok"]:
        raise CliError(EXIT_INVARIANT, "common subdivision does not conserve the region measure")
    payload = {
        "polytopal": polytopal_to_dict(poly),
        "common_subdivision": common_subdivision_to_dict(common),
        "counts": report["skeleton"],
        "measure": report["measure"],
    }
    if args.action == "torus":
        payload["note"] = (
            "torus cells computed by fundamental-domain translate enumeration"
        )
    _write_output(args, f"intersect {args.action}", {"k1": args.k1, "k2": args.k2}, {}, payload)
    return EXIT_OK


def cmd_bound(args) -> int:
    data = _read_json(args.input)
    try:
        given = [key for key in ("inj", "vol", "diam", "lam_min") if data.get(key) is not None]
        optional = {key: json_number(data[key], key) for key in given}
        orientable = data.get("orientable", True)
        if type(orientable) is not bool:
            raise TypeError(f"orientable {orientable!r} is not true or false")
        md = ManifoldData(
            tag=Geometry(data["geometry"]),
            n=json_int(data["n"], "n"),
            lam=float(json_number(data["lam"], "lam")),
            p=json_int(data["p"], "p"),
            q=json_int(data["q"], "q"),
            orientable=orientable,
            **optional,
        )
    except (KeyError, ValueError, TypeError) as e:
        raise CliError(EXIT_INPUT, f"bad manifold data: {e}") from e
    report = compute_report(md)
    report_dict = json.loads(report.to_json())
    _write_output(args, "bound compute", {"input": args.input}, {}, {"report": report_dict})
    if args.table:
        lines = [
            f"{'quantity':24} value",
            f"{'mu':24} {report.mu}",
            f"{'kappa':24} {report.kappa}",
            f"{'m':24} {report.m}",
            f"{'mprime':24} {report.mprime}",
        ]
        for k, v in sorted(report_dict["values"].items()):
            lines.append(f"{k:24} {v}")
        Path(args.table).write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_geom(args) -> int:
    rng = np.random.default_rng(args.seed)
    tag = Geometry(args.geometry)
    try:
        value = kappa(tag, args.n, args.lam)  # checks the dimension and edge bound
    except GeometryError as e:
        raise CliError(EXIT_INPUT, str(e)) from e
    if args.action == "kappa":
        parameters = {"geometry": tag.value, "n": args.n, "lam": args.lam}
        _write_output(args, "geom kappa", {}, parameters, {"kappa": value})
        return EXIT_OK
    if args.action == "scaling-table":
        rows = []
        for trial in range(args.count):
            s = random_simplex(tag, args.n, args.lam, rng)
            lam0 = s.max_edge()
            contraction = kappa(tag, args.n, lam0)
            for level, count, max_edge in scaling_levels(s, args.levels):
                rows.append(
                    [trial, level, count, f"{max_edge:.12f}", f"{contraction**level * lam0:.12f}"]
                )
        _write_csv(args.csv, ["trial", "level", "simplexes", "max_edge", "bound"], rows)
        return EXIT_OK
    # centroid-check
    rows = []
    for trial in range(args.count):
        s = random_simplex(tag, args.n, args.lam, rng)
        centroid(s)
        for i in range(args.n + 1):
            rows.append([trial, i, f"{median_ratio(s, i):.12f}"])
    _write_csv(args.csv, ["trial", "vertex", "median_ratio"], rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    start = _load_complex(args.start)
    seq = sequence_from_dict(_read_json(args.sequence))
    expect = _load_complex(args.expect) if args.expect else None
    out = replay_verified(start, seq, expect=None, check_pseudomanifold=args.pseudomanifold)
    if expect is not None and find_isomorphism(out, expect) is None:
        raise CliError(EXIT_INVARIANT, "replayed endpoint is not isomorphic to the expected complex")
    _write_output(
        args,
        "verify replay",
        {"sequence": args.sequence, "start": args.start, "expect": args.expect},
        {"pseudomanifold": args.pseudomanifold},
        {"end_digest": out.digest(), "verified": True},
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trimoves",
        description="subdivisions, shellings and bistellar moves for geometric triangulations",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subdivide", help="barycentric / partial / iterated / geometric")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", required=True, help="bary | partial:r | iterated:m | geometric:m")
    p.add_argument("--max-simplexes", type=int, default=MAX_SIMPLEXES,
                   help="abort with exit code 3 past this simplex count")
    p.add_argument("--output")
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("pachner", help="enumerate, apply or search moves")
    p.add_argument("action", choices=["enumerate", "apply", "bfs"])
    p.add_argument("--input")
    p.add_argument("--move")
    p.add_argument("--start")
    p.add_argument("--goal")
    p.add_argument("--max-depth", type=int, default=4)
    p.add_argument("--output")
    p.set_defaults(func=cmd_pachner)

    p = sub.add_parser("shell", help="find shellings, star balls")
    p.add_argument("action", choices=["find", "star"])
    p.add_argument("--input")
    p.add_argument("--ambient")
    p.add_argument("--ball")
    p.add_argument("--apex", type=int)
    p.add_argument("--output")
    p.set_defaults(func=cmd_shell)

    p = sub.add_parser("reduce", help="subdivision-to-barycentric reductions")
    p.add_argument("action", choices=["alpha2beta", "bridge", "relate"])
    p.add_argument("--complex")
    p.add_argument("--alpha")
    p.add_argument("--kprime")
    p.add_argument("--k1")
    p.add_argument("--k2")
    p.add_argument("--output")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("intersect", help="common geometric subdivision")
    p.add_argument("action", choices=["linear", "torus"])
    p.add_argument("--k1", required=True)
    p.add_argument("--k2", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("bound", help="evaluate the move-count bounds")
    p.add_argument("action", choices=["compute"])
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--table", help="also write a human-readable table")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("geom", help="geometry tables (CSV)")
    p.add_argument("action", choices=["kappa", "scaling-table", "centroid-check"])
    p.add_argument("--geometry", required=True, choices=[g.value for g in Geometry])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--csv")
    p.add_argument("--output")
    p.set_defaults(func=cmd_geom)

    p = sub.add_parser("verify", help="replay and verify a move sequence")
    p.add_argument("action", choices=["replay"])
    p.add_argument("--sequence", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--expect")
    p.add_argument("--pseudomanifold", action="store_true",
                   help="also check that the start and end are closed pseudomanifolds")
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except FormatError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (ResourceCapExceeded, SearchCapExceeded) as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MoveError, ShellingError, ReductionError, IntersectionError, GeometryError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, KeyError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
