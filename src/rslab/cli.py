"""Command-line front end.

Subcommands: `construct` (emit a named construction), `verify` (run a
saturation check on a graph file), `oracle` (brute-force census), and
`reproduce` (pass/fail table for a claim suite).

Exit codes: 0 success / property holds / Established, 1 property fails /
Refuted, 2 bad parameters or unparseable input, 3 Unknown or an inexact
census.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import reproduce as repro
from .colouring import EdgeColouring
from .constructions import (
    GadgetBundle,
    broom_gadget,
    broom_saturated,
    caterpillar_bundle,
    double_star_construction,
    folded_cube,
    star_forest,
)
from .engine import (
    DEFAULT_BUDGET,
    Status,
    is_properly_rainbow_saturated,
    is_saturated,
    is_semi_saturated,
)
from .errors import RslabError
from .graphs import Graph
from .oracle import DEFAULT_CENSUS_BUDGET, census
from .patterns import load_graph_file, parse_pattern

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_BAD_INPUT = 2
EXIT_UNKNOWN = 3


def _emit(obj, fmt: str) -> str:
    if fmt == "json":
        if hasattr(obj, "to_json_dict"):
            return json.dumps(obj.to_json_dict(), sort_keys=True)
        return json.dumps(obj, sort_keys=True)
    if fmt == "graph6":
        g = obj.graph if isinstance(obj, (GadgetBundle, EdgeColouring)) else obj
        return g.to_graph6()
    if fmt == "dot":
        if isinstance(obj, GadgetBundle) and obj.colouring is not None:
            return obj.colouring.to_dot()
        if isinstance(obj, EdgeColouring):
            return obj.to_dot()
        g = obj.graph if isinstance(obj, GadgetBundle) else obj
        return g.to_dot()
    # text
    if isinstance(obj, GadgetBundle):
        g = obj.graph
        head = f"{obj.provenance}: {g.n} vertices, {len(g.edges)} edges"
        if obj.colouring is not None:
            head += f", {obj.colouring.colour_count} colours"
        return head + "\n" + g.to_graph6()
    if isinstance(obj, Graph):
        return f"{obj.n} vertices, {len(obj.edges)} edges\n{obj.to_graph6()}"
    return str(obj)


# The construction parameters each family needs (--variant has a default).
_FAMILY_PARAMETERS = {
    "folded-cube": ("ell",),
    "broom-gadget": ("m",),
    "broom-saturated": ("n", "m"),
    "caterpillar": ("n", "k", "ell"),
    "star-forest": ("n", "k"),
    "double-star": ("n", "t", "s"),
}


def cmd_construct(args) -> int:
    family = args.family
    missing = [f"--{p}" for p in _FAMILY_PARAMETERS.get(family, ()) if getattr(args, p) is None]
    if missing:
        raise RslabError(f"{family} needs {', '.join(missing)}")
    if family == "folded-cube":
        obj: object = folded_cube(args.ell)
    elif family == "broom-gadget":
        obj = broom_gadget(args.m)
    elif family == "broom-saturated":
        obj = broom_saturated(args.n, args.m, cache_dir=args.cache_dir)
    elif family == "caterpillar":
        obj = caterpillar_bundle(args.n, args.k, args.ell)
    elif family == "star-forest":
        obj = star_forest(args.n, args.k)
    elif family == "double-star":
        obj = double_star_construction(args.n, args.t, args.s, args.variant)
    else:
        raise RslabError(f"unknown family {family!r}")
    print(_emit(obj, args.output_format))
    return EXIT_OK


def cmd_verify(args) -> int:
    g = load_graph_file(args.graph)
    spec = parse_pattern(args.pattern)
    if args.mode in ("sat", "ssat"):
        res = (is_saturated if args.mode == "sat" else is_semi_saturated)(g, spec)
        payload = res.to_json_dict()
        code = EXIT_OK if res.holds else EXIT_FALSE
    else:
        verdict = is_properly_rainbow_saturated(g, spec, args.budget)
        payload = verdict.to_json_dict()
        code = {
            Status.ESTABLISHED: EXIT_OK,
            Status.REFUTED: EXIT_FALSE,
            Status.UNKNOWN: EXIT_UNKNOWN,
        }[verdict.status]
    if args.output_format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
    return code


def cmd_oracle(args) -> int:
    rec = census(args.quantity, args.n, parse_pattern(args.pattern), budget=args.budget,
                 edge_cap=args.edge_cap, cache_dir=args.cache_dir, force=args.force)
    if args.output_format == "json":
        print(json.dumps(rec.to_json_dict(), sort_keys=True))
    else:
        print(f"{rec.quantity}({rec.n},{rec.pattern}) = {rec.value}")
        print(f"witnesses: {len(rec.witnesses)}  examined: {rec.total_graphs_examined}"
              f"  exact: {rec.exact}")
        for w in rec.witnesses:
            print(f"  {w}")
    if not rec.exact:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_reproduce(args) -> int:
    rc = repro.ReproConfig(budget=args.budget, cache_dir=args.cache_dir, ell=args.ell)
    rows = repro.run_suite(args.suite, rc)
    if args.output_format == "json":
        print(json.dumps([r.to_json_dict() for r in rows], sort_keys=True))
    else:
        print(repro.format_rows(rows))
    return EXIT_OK if repro.all_pass(rows, args.allow_unknown) else EXIT_FALSE


def _at_least(least: int, what: str):
    """argparse type for an integer >= least (0 or 1); other values exit 2
    naming `what`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}")
        if value < least:
            sign = "positive" if least else "non-negative"
            raise argparse.ArgumentTypeError(f"{what} must be {sign}")
        return value
    return parse


# Options read by more than one subcommand; each subcommand lists its own.
_SHARED_OPTIONS = {
    "--cache-dir": dict(default=None, help="census cache directory (or set RSLAB_CACHE)"),
    "--force": dict(action="store_true", help="overwrite mismatched cached census records"),
    "--allow-unknown": dict(action="store_true",
                            help="treat Unknown reproduce rows as non-fatal"),
}


def _subcommand(sub, name, fn, help, options=(), formats=("text", "json")):
    p = sub.add_parser(name, help=help)
    p.add_argument("--format", dest="output_format", default="text", choices=formats)
    for option in options:
        p.add_argument(option, **_SHARED_OPTIONS[option])
    p.set_defaults(fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rslab",
        description="Exhaustive-search lab for proper rainbow saturation of small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = _subcommand(sub, "construct", cmd_construct, "emit a named construction",
                    options=("--cache-dir",), formats=("text", "json", "graph6", "dot"))
    c.add_argument("family", choices=[
        "folded-cube", "broom-gadget", "broom-saturated",
        "caterpillar", "star-forest", "double-star",
    ])
    c.add_argument("--n", type=int)
    c.add_argument("--k", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--t", type=int)
    c.add_argument("--s", type=int)
    c.add_argument("--ell", type=int)
    c.add_argument("--variant", choices=["sat", "prsat"], default="sat")

    v = _subcommand(sub, "verify", cmd_verify, "check a graph file against a pattern")
    v.add_argument("graph", help="graph6 or JSON graph file, or - for stdin")
    v.add_argument("--pattern", required=True,
                   help="P5, K1,4, B4,2, T5star, S3,2, cat:ell=4;leaves=1,0,0,1, g6:..., @file")
    v.add_argument("--mode", choices=["sat", "ssat", "prsat"], default="prsat")
    v.add_argument("--budget", type=_at_least(1, "budget"), default=DEFAULT_BUDGET)

    o = _subcommand(sub, "oracle", cmd_oracle, "brute-force census of a saturation number",
                    options=("--cache-dir", "--force"))
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--pattern", required=True)
    o.add_argument("--quantity", choices=["sat", "ssat", "prsat"], required=True)
    o.add_argument("--budget", type=_at_least(1, "budget"), default=DEFAULT_CENSUS_BUDGET)
    o.add_argument("--edge-cap", type=_at_least(0, "edge cap"), default=None)

    r = _subcommand(sub, "reproduce", cmd_reproduce, "pass/fail table for a claim suite",
                    options=("--cache-dir", "--allow-unknown"))
    r.add_argument("suite", choices=list(repro.SUITES))
    r.add_argument("--ell", type=int, default=4)
    r.add_argument("--budget", type=_at_least(1, "budget"), default=DEFAULT_CENSUS_BUDGET)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except RslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
