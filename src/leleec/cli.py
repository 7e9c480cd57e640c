"""Command-line interface.

Subcommands: decompose, baseline-lelele, gen, verify. Both solving
subcommands run `decomposer`: decompose one model per piece, baseline-lelele
one three-mask model per conflict component.
Exit codes: 0 success, 1 usage error, 2 validation/verification failure,
3 time limit hit (decompose and baseline-lelele still write a verifiable
result: each searched piece keeps its search's best leaf; the first is
found before the deadline is read).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .decomposer import build_graphs, decompose_graphs, lelele_baseline
from .decomposer import validate_result  # noqa: F401 - perfbench/spans.py traces this name here
from .ilp_model import ProblemGraph, build_model_from_problem
from .layout_graph import Config, OverlappingInput, build_conflict_edges, feature_index
from .layout_io import (
    baseline_result_to_obj,
    dump_json,
    frac_str,
    layout_to_obj,
    parse_frac,
    parse_layout,
    parse_result,
    result_to_obj,
    verify_result,
)
from .svg import render_svg
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
    """Write text to the file out, or to stdout; an unwritable path exits 2."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from exc


def _exit_code(stats: dict) -> int:
    """0 for a proven optimum; 3, with a notice, for a time-limited incumbent."""
    if stats["proven_optimal"]:
        return EXIT_OK
    print("time limit reached: result is an incumbent, not proven optimal", file=sys.stderr)
    return EXIT_TIME_LIMIT


def _cmd_decompose(args) -> int:
    features, cfg = parse_layout(args.layout)
    alpha = parse_frac(args.alpha, "--alpha") if args.alpha is not None else cfg.alpha
    cfg = cfg.replace(alpha=alpha, enable_stitch=not args.no_stitch)
    lg, eg = build_graphs(features, cfg)
    result = decompose_graphs(lg, eg, cfg, time_limit=args.time_limit)

    if args.lp_dump:
        model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg, alpha=cfg.alpha)
        _write_out(model.lp_dump(), args.lp_dump)
    if args.svg:
        colors = {v: c + 1 for v, c in result.colors.items()}
        _write_out(render_svg(lg, colors, result.trim_rects, result.conflicts), args.svg)

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
    return _exit_code(result.stats)


def _cmd_baseline(args) -> int:
    features, cfg = parse_layout(args.layout)
    cfg = cfg.replace(enable_stitch=False)
    lg = build_conflict_edges(features, cfg, feature_index(features, cfg))
    result = lelele_baseline(lg, args.time_limit)

    if args.svg:
        colors = {v: c + 1 for v, c in result.colors.items()}
        _write_out(render_svg(lg, colors, [], result.conflicts), args.svg)
    if args.report == "json":
        _write_out(dump_json(baseline_result_to_obj(result, cfg)), args.out)
    else:
        _write_out(f"cost: {frac_str(result.cost)}\nconflicts: {len(result.conflicts)}\n", args.out)
    return _exit_code(result.stats)


def _cmd_gen(args) -> int:
    base = Config.from_rules(args.w_min, args.s_min)
    features, cfg = gen_synthetic(args.kind, args.n, args.seed, base)
    _write_out(dump_json(layout_to_obj(features, cfg)), args.out)
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
    except OverlappingInput as exc:  # raised by the graph build, after parsing
        print(f"error: {args.layout}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:  # ParseError, ValidationError, LayoutError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    raise AssertionError("unreachable")


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
