"""Layout and result file IO (versioned JSON schemas) and result verification.

Rational values (alpha, cost) are written as exact decimal strings and read
back through Fraction, so files round-trip bit-exactly and cost checks never
touch binary floats.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Any

from .decomposer import build_graphs, result_problems
from .endcut import EndCutGraph
from .geometry import GeometryError, Polygon
from .ilp_model import DecompResult, frac_str, merged_trim_rects
from .layout_graph import (
    Config,
    EdgeKey,
    Feature,
    LayoutGraph,
    OverlappingInput,
    build_conflict_edges,  # noqa: F401 - a layer entry point that perfbench/spans.py traces by this name
    reject_overlaps,
    stitch_coordinate,
)

FORMAT_VERSION = 1

OVERRIDE_KEYS = ("dis_m", "dis_c", "w_th", "alpha", "merge_gap")


class ParseError(ValueError):
    """Unreadable or syntactically invalid input file."""


class ValidationError(ValueError):
    """Schema-valid file with semantically invalid content."""


def parse_frac(value: Any, where: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{where}: not a rational number: {value!r}") from exc
    raise ValidationError(f"{where}: expected a rational number, got {type(value).__name__}")


def _load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        # floats parse through Fraction('0.1') so decimals stay exact
        return json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _is_int(value: Any) -> bool:
    """A JSON integer; booleans are ints to Python but not to the file format."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect_int(value: Any, where: str) -> int:
    if not _is_int(value):
        raise ValidationError(f"{where}: expected an integer, got {value!r}")
    return value


def parse_layout(path: str | Path) -> tuple[list[Feature], Config]:
    """Validated features and resolved config from a layout file."""
    data = _load_json(path)
    return layout_from_obj(data, str(path))


def layout_from_obj(data: Any, where: str = "layout") -> tuple[list[Feature], Config]:
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: top level must be an object")
    if data.get("format") != FORMAT_VERSION:
        raise ValidationError(f"{where}: format must be {FORMAT_VERSION}")
    if data.get("units", "nm") != "nm":
        raise ValidationError(f"{where}: units must be 'nm'")
    w_min = _expect_int(data.get("w_min"), f"{where}: w_min")
    s_min = _expect_int(data.get("s_min"), f"{where}: s_min")
    overrides: dict[str, Any] = {}
    for key in OVERRIDE_KEYS:
        if key in data:
            if key == "alpha":
                overrides[key] = parse_frac(data[key], f"{where}: alpha")
            else:
                overrides[key] = _expect_int(data[key], f"{where}: {key}")
    try:
        cfg = Config.from_rules(w_min, s_min, **overrides)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc

    raw = data.get("features")
    if not isinstance(raw, list):
        raise ValidationError(f"{where}: features must be a list")
    features: list[Feature] = []
    seen = set()
    for k, item in enumerate(raw):
        wherek = f"{where}: features[{k}]"
        if not isinstance(item, dict):
            raise ValidationError(f"{wherek}: must be an object")
        fid = _expect_int(item.get("id"), f"{wherek}: id")
        if fid in seen:
            raise ValidationError(f"{wherek}: duplicate feature id {fid}")
        seen.add(fid)
        rects = item.get("rects")
        if not isinstance(rects, list) or not rects:
            raise ValidationError(f"{wherek}: rects must be a non-empty list")
        parsed = []
        for r in rects:
            if not (isinstance(r, list) and len(r) == 4):
                raise ValidationError(f"{wherek}: each rect must be [x_lo, y_lo, x_hi, y_hi]")
            coords = [_expect_int(c, f"{wherek}: rect coordinate") for c in r]
            if not (coords[0] < coords[2] and coords[1] < coords[3]):
                raise ValidationError(f"{wherek}: degenerate rect {r}")
            parsed.append(tuple(coords))
        try:
            shape = Polygon.of(*parsed)
        except GeometryError as exc:
            raise ValidationError(f"{wherek}: {exc}") from exc
        features.append(Feature(id=fid, shape=shape))
    features.sort(key=lambda f: f.id)
    if [f.id for f in features] != list(range(len(features))):
        raise ValidationError(f"{where}: feature ids must be dense from 0")
    try:
        reject_overlaps(features, cfg)
    except OverlappingInput as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    return features, cfg


def layout_to_obj(features: list[Feature], cfg: Config) -> dict:
    return {
        "format": FORMAT_VERSION,
        "units": "nm",
        "w_min": cfg.w_min,
        "s_min": cfg.s_min,
        "dis_m": cfg.dis_m,
        "dis_c": cfg.dis_c,
        "w_th": cfg.w_th,
        "alpha": frac_str(cfg.alpha),
        "merge_gap": cfg.merge_gap,
        "features": [
            {"id": f.id, "rects": [list(r.as_tuple()) for r in f.shape.rects]}
            for f in features
        ],
    }


def dump_json(obj: Any) -> str:
    """Pretty JSON with innermost numeric arrays kept on one line."""
    text = json.dumps(obj, indent=2)
    text = re.sub(
        r"\[[\s\-\d,]+\]",
        lambda m: re.sub(r"\s+", "", m.group(0)).replace(",", ", "),
        text,
    )
    return text + "\n"


def emit_layout(features: list[Feature], cfg: Config, path: str | Path) -> None:
    Path(path).write_text(dump_json(layout_to_obj(features, cfg)), encoding="utf-8")


def config_to_obj(cfg: Config) -> dict:
    return {
        "w_min": cfg.w_min,
        "s_min": cfg.s_min,
        "dis_m": cfg.dis_m,
        "dis_c": cfg.dis_c,
        "w_th": cfg.w_th,
        "alpha": frac_str(cfg.alpha),
        "merge_gap": cfg.merge_gap,
        "enable_stitch": cfg.enable_stitch,
        # constant echoes of removed options, kept so result files stay
        # byte-identical; config_from_obj ignores them
        "enable_preselect": False,
        "enable_bridges": True,
    }


def config_from_obj(obj: Any, where: str = "config") -> Config:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: must be an object")
    try:
        return Config(
            w_min=_expect_int(obj.get("w_min"), f"{where}: w_min"),
            s_min=_expect_int(obj.get("s_min"), f"{where}: s_min"),
            dis_m=_expect_int(obj.get("dis_m"), f"{where}: dis_m"),
            dis_c=_expect_int(obj.get("dis_c"), f"{where}: dis_c"),
            w_th=_expect_int(obj.get("w_th"), f"{where}: w_th"),
            alpha=parse_frac(obj.get("alpha"), f"{where}: alpha"),
            merge_gap=_expect_int(obj.get("merge_gap"), f"{where}: merge_gap"),
            enable_stitch=bool(obj.get("enable_stitch", True)),
        )
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def result_to_obj(
    result: DecompResult, lg: LayoutGraph, eg: EndCutGraph, cfg: Config
) -> dict:
    """Deterministic result-file object (mask ids are 1-based)."""
    stitches = []
    for u, v in result.stitches:
        axis, coord = stitch_coordinate(lg, u, v)
        stitches.append({"feature": lg.vertices[u].feature, "axis": axis, "coord": coord})
    stitches.sort(key=lambda s: (s["feature"], s["coord"]))
    stats = dict(result.stats or {})
    return {
        "format": FORMAT_VERSION,
        "mode": "leleec",
        "config": config_to_obj(cfg),
        "colors": {str(v): result.colors[v] + 1 for v in sorted(result.colors)},
        "selected_cuts": [
            {
                "id": cid,
                "features": list(eg.nodes[cid].features()),
                "rect": list(eg.nodes[cid].cut_rect.as_tuple()),
            }
            for cid in sorted(result.selected_cuts)
        ],
        "trim_cuts": [list(r.as_tuple()) for r in result.trim_rects],
        "conflicts": [list(e) for e in result.conflicts],
        "stitches": stitches,
        "cost": frac_str(result.cost),
        "stats": stats,
    }


def baseline_result_to_obj(
    colors: dict[int, int], conflicts: list[tuple[int, int]], cost: Fraction, stats: dict, cfg: Config
) -> dict:
    return {
        "format": FORMAT_VERSION,
        "mode": "lelele",
        "config": {**config_to_obj(cfg), "enable_bridges": False},
        "colors": {str(v): colors[v] + 1 for v in sorted(colors)},
        "conflicts": [list(e) for e in sorted(conflicts)],
        "cost": frac_str(cost),
        "stats": stats,
    }


def parse_result(path: str | Path) -> dict:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top level must be an object")
    if data.get("format") != FORMAT_VERSION:
        raise ValidationError(f"{path}: format must be {FORMAT_VERSION}")
    if data.get("mode") not in ("leleec", "lelele"):
        raise ValidationError(f"{path}: mode must be 'leleec' or 'lelele'")
    return data


def verify_result(features: list[Feature], layout_cfg: Config, result: dict) -> list[str]:
    """Re-derive the pipeline and check every invariant; returns violations.

    The cut and conflict rules are `decomposer.result_problems`, as in decompose.
    """
    if result.get("mode") != "leleec":
        return ["mode: only 'leleec' results can be verified"]
    problems: list[str] = []
    try:
        cfg = config_from_obj(result.get("config"))
    except ValidationError as exc:
        return [str(exc)]
    for key in ("w_min", "s_min", "dis_m", "dis_c", "w_th", "merge_gap"):
        if getattr(cfg, key) != getattr(layout_cfg, key):
            problems.append(
                f"config: {key} = {getattr(cfg, key)} does not match layout ({getattr(layout_cfg, key)})"
            )
    if problems:
        return problems

    lg, eg = build_graphs(features, cfg)

    raw_colors = result.get("colors")
    if not isinstance(raw_colors, dict):
        return ["colors: must be an object"]
    colors: dict[int, int] = {}
    for k, val in raw_colors.items():
        # only the canonical decimal form: "01" or " 1" would name vertex 1
        # a second time
        try:
            vid = int(k)
        except ValueError:
            vid = -1
        if vid < 0 or k != str(vid):
            return [f"colors: bad vertex id {k!r}"]
        if not _is_int(val) or val not in (1, 2):
            return [f"colors: vertex {k} has mask {val!r}, expected 1 or 2"]
        colors[vid] = val - 1
    expected_ids = {s.id for s in lg.vertices}
    if set(colors) != expected_ids:
        problems.append(
            f"colors: vertex ids do not match the layout graph "
            f"(missing {sorted(expected_ids - set(colors))[:5]}, "
            f"extra {sorted(set(colors) - expected_ids)[:5]})"
        )
        return problems

    cuts = result.get("selected_cuts", [])
    raw_conflicts = result.get("conflicts", [])
    got_stitches = result.get("stitches", [])
    sections = {"selected_cuts": cuts, "conflicts": raw_conflicts, "stitches": got_stitches}
    for key, section in sections.items():
        if not isinstance(section, list):
            return [f"{key}: must be a list"]
    selected: set[int] = set()
    for item in cuts:
        if not isinstance(item, dict):
            return [f"selected_cuts: entry {item!r} is not an object"]
        cid = item.get("id")
        if not _is_int(cid):
            return [f"selected_cuts: candidate id {cid!r} is not an integer"]
        if not 0 <= cid < len(eg.nodes):
            problems.append(f"selected_cuts: unknown candidate id {cid!r}")
            continue
        node = eg.nodes[cid]
        if list(node.features()) != item.get("features") or list(
            node.cut_rect.as_tuple()
        ) != item.get("rect"):
            problems.append(f"selected_cuts: candidate {cid} does not match regenerated geometry")
        selected.add(cid)

    conflicts: list[EdgeKey] = []
    for e in raw_conflicts:
        if not (isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e)):
            return [f"conflicts: bad entry {e!r}"]
        conflicts.append((min(e), max(e)))
    problems += result_problems(lg, eg, colors, selected, conflicts)

    expected_trim = [list(r.as_tuple()) for r in merged_trim_rects(selected, eg)]
    if result.get("trim_cuts") != expected_trim:
        problems.append("trim_cuts: do not equal the dash-merged union rects of selected cuts")

    expected_stitches = []
    for u, v in sorted(lg.stitch_edges):
        if colors[u] != colors[v]:
            axis, coord = stitch_coordinate(lg, u, v)
            expected_stitches.append(
                {"feature": lg.vertices[u].feature, "axis": axis, "coord": coord}
            )
    expected_stitches.sort(key=lambda s: (s["feature"], s["coord"]))
    if got_stitches != expected_stitches:
        problems.append("stitches: do not match the stitch edges whose endpoints differ in mask")

    try:
        cost = parse_frac(result.get("cost"), "cost")
    except ValidationError as exc:
        problems.append(str(exc))
        return problems
    expected_cost = Fraction(len(raw_conflicts))
    if cfg.enable_stitch:
        expected_cost += cfg.alpha * len(got_stitches)
    if cost != expected_cost:
        problems.append(
            f"cost: reported {frac_str(cost)} != |conflicts| + alpha*|stitches| = {frac_str(expected_cost)}"
        )
    return problems
