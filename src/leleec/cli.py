"""Command-line interface.

Subcommands: decompose, baseline-lelele, gen, verify.
Exit codes: 0 success, 1 usage error, 2 validation/verification failure,
3 time limit hit (decompose and baseline-lelele still write an incumbent
result; a search with no incumbent in time falls back to one mask with every
conflict charged).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .decomposer import build_graphs, decompose_graphs
from .decomposer import validate_result  # noqa: F401 - perfbench/spans.py traces this name here
from .ilp_model import ProblemGraph, baseline_colors, build_lelele_baseline, build_model_from_problem
from .layout_graph import Config, LayoutError, build_conflict_edges
from .layout_io import (
    ParseError,
    ValidationError,
    baseline_result_to_obj,
    dump_json,
    frac_str,
    parse_frac,
    parse_layout,
    parse_result,
    result_to_obj,
    verify_result,
)
from .solver import TimeLimit, one_mask_incumbent, solve
from .svg import emit_svg
from .synth import KINDS, gen_synthetic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_TIME_LIMIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _time_limit(text: str) -> float:
    """argparse type for --time-limit: a finite number of seconds, >= 0."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = float("nan")
    if not 0.0 <= seconds < float("inf"):  # false for nan
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return seconds


def _build_parser() -> _Parser:
    parser = _Parser(prog="leleec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="two masks + trim-cut decomposition")
    p_dec.add_argument("layout", help="layout file (JSON, format 1)")
    p_dec.add_argument("--no-stitch", action="store_true", help="disable stitch insertion")
    p_dec.add_argument("--alpha", type=str, default=None, help="stitch weight (exact decimal)")
    p_dec.add_argument("--svg", type=str, default=None, help="write an SVG rendering")
    p_dec.add_argument("--lp-dump", type=str, default=None, help="write the whole-layout model as LP text")
    p_dec.add_argument("--time-limit", type=_time_limit, default=None, help="seconds")
    p_dec.add_argument("--out", type=str, default=None, help="result file (default stdout)")
    p_dec.add_argument("--report", choices=("json", "text"), default="json")

    p_base = sub.add_parser("baseline-lelele", help="three-mask coloring baseline")
    p_base.add_argument("layout")
    p_base.add_argument("--svg", type=str, default=None)
    p_base.add_argument("--time-limit", type=_time_limit, default=None)
    p_base.add_argument("--out", type=str, default=None)
    p_base.add_argument("--report", choices=("json", "text"), default="json")

    p_gen = sub.add_parser("gen", help="generate a synthetic layout")
    p_gen.add_argument("kind", choices=KINDS)
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", type=str, default=None, help="layout file (default stdout)")
    p_gen.add_argument("--w-min", type=int, default=10)
    p_gen.add_argument("--s-min", type=int, default=10)

    p_ver = sub.add_parser("verify", help="re-check a result file against its layout")
    p_ver.add_argument("layout")
    p_ver.add_argument("result")
    return parser


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_decompose(args) -> int:
    features, cfg = parse_layout(args.layout)
    alpha = parse_frac(args.alpha, "--alpha") if args.alpha is not None else cfg.alpha
    cfg = replace(cfg, alpha=alpha, enable_stitch=not args.no_stitch)
    lg, eg = build_graphs(features, cfg)
    result = decompose_graphs(lg, eg, cfg, time_limit=args.time_limit)

    if args.lp_dump:
        model = build_model_from_problem(
            ProblemGraph.from_layout(lg, eg),
            eg,
            with_stitch=cfg.enable_stitch,
            alpha=cfg.alpha,
        )
        Path(args.lp_dump).write_text(model.lp_dump(), encoding="utf-8")
    if args.svg:
        emit_svg(
            lg,
            {v: c + 1 for v, c in result.colors.items()},
            result.trim_rects,
            result.conflicts,
            args.svg,
        )

    obj = result_to_obj(result, lg, eg, cfg)
    if args.report == "json":
        _write_out(dump_json(obj), args.out)
    else:
        lines = [
            f"cost: {frac_str(result.cost)}",
            f"conflicts: {len(result.conflicts)}",
            f"stitches: {len(result.stitches)}",
            f"trim cuts: {len(result.selected_cuts)} selected, {len(result.trim_rects)} shapes",
            f"sub-problems: {obj['stats'].get('sub_problems')}",
            f"nodes explored: {obj['stats'].get('nodes_explored')}",
            f"proven optimal: {obj['stats'].get('proven_optimal')}",
        ]
        _write_out("\n".join(lines) + "\n", args.out)
    if not obj["stats"].get("proven_optimal", True):
        print("time limit reached: result is an incumbent, not proven optimal", file=sys.stderr)
        return EXIT_TIME_LIMIT
    return EXIT_OK


def _cmd_baseline(args) -> int:
    features, cfg = parse_layout(args.layout)
    cfg = replace(cfg, enable_stitch=False)
    lg = build_conflict_edges(features, cfg)
    model = build_lelele_baseline(lg)
    try:
        assignment, stats = solve(model, args.time_limit)
    except TimeLimit as exc:
        assignment, stats = one_mask_incumbent(model, exc)
    colors = baseline_colors(model, assignment)
    conflicts = sorted(
        var.key for vid, var in enumerate(model.variables) if var.kind == "conflict" and assignment[vid]
    )
    obj = baseline_result_to_obj(
        colors,
        conflicts,
        stats.best_cost,
        {"nodes_explored": stats.nodes_explored, "proven_optimal": stats.proven_optimal},
        cfg,
    )
    if args.svg:
        emit_svg(lg, {v: c + 1 for v, c in colors.items()}, [], conflicts, args.svg)
    if args.report == "json":
        _write_out(dump_json(obj), args.out)
    else:
        _write_out(
            f"cost: {frac_str(stats.best_cost)}\nconflicts: {len(conflicts)}\n", args.out
        )
    return EXIT_OK if stats.proven_optimal else EXIT_TIME_LIMIT


def _cmd_gen(args) -> int:
    base = Config.from_rules(args.w_min, args.s_min)
    features, cfg = gen_synthetic(args.kind, args.n, args.seed, base)
    from .layout_io import layout_to_obj

    text = dump_json(layout_to_obj(features, cfg))
    _write_out(text, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    features, layout_cfg = parse_layout(args.layout)
    result = parse_result(args.result)
    problems = verify_result(features, layout_cfg, result)
    if problems:
        for p in problems:
            print(f"violation: {p}", file=sys.stderr)
        return EXIT_VALIDATION
    print("ok", file=sys.stderr)
    return EXIT_OK


def run_cli(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command == "baseline-lelele":
            return _cmd_baseline(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (ParseError, ValidationError, LayoutError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    raise AssertionError("unreachable")


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
