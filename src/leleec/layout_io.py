"""Layout and result file IO (versioned JSON schemas) and result verification.

Rational values (alpha, cost) are written as exact decimal strings and read
back through Fraction, so files round-trip bit-exactly and cost checks never
touch binary floats.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

from .decomposer import build_graphs, merged_trim_rects, result_problems
from .endcut import EndCutGraph
from .geometry import GeometryError, Polygon
from .ilp_model import DecompResult, frac_str
from .layout_graph import (
    Config,
    EdgeKey,
    Feature,
    LayoutError,
    LayoutGraph,
    build_conflict_edges,
    feature_index,
)

FORMAT_VERSION = 1

OVERRIDE_KEYS = ("dis_m", "dis_c", "w_th", "alpha", "merge_gap")


class ParseError(ValueError):
    """Unreadable or syntactically invalid input file."""


class ValidationError(ValueError):
    """Schema-valid file with semantically invalid content."""


# Python's own limit on int-string digits; Fraction("1e999999999") would
# build a 10**999999999 integer and never return
MAX_EXPONENT = 4300


def _exponent_in_range(text: str) -> bool:
    """False for a decimal whose exponent is beyond +-MAX_EXPONENT; text
    that is no decimal passes, for Fraction to reject."""
    digits = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
    return not digits.isdigit() or (len(digits) <= 4 and int(digits) <= MAX_EXPONENT)


def _json_decimal(text: str) -> Fraction | str:
    """A JSON float as an exact Fraction; out-of-range exponents stay text,
    which the field that reads them rejects by name."""
    return Fraction(text) if _exponent_in_range(text) else text


def parse_frac(value: Any, where: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        if not _exponent_in_range(value):
            raise ValidationError(f"{where}: exponent beyond +-{MAX_EXPONENT} in {value!r}")
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
        return json.loads(text, parse_float=_json_decimal)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    # an integer literal beyond Python's int-string digit limit, or arrays
    # and objects nested past the decoder's recursion limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _is_int(value: Any) -> bool:
    """A JSON integer; booleans are ints to Python but not to the file format."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect_int(value: Any, where: str) -> int:
    if not _is_int(value):
        raise ValidationError(f"{where}: expected an integer, got {value!r}")
    return value


def parse_layout(path: str | Path) -> tuple[list[Feature], Config]:
    """Validated features and resolved config from a layout file.

    Geometry is not checked here: the conflict build of `build_graphs` (or
    `build_conflict_edges`) raises OverlappingInput for features that touch
    or overlap.
    """
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
        try:
            features.append(_read_feature(item, seen))
        except (ValidationError, GeometryError) as exc:
            raise ValidationError(f"{where}: features[{k}]: {exc}") from exc
    features.sort(key=lambda f: f.id)
    if [f.id for f in features] != list(range(len(features))):
        raise ValidationError(f"{where}: feature ids must be dense from 0")
    return features, cfg


def _read_feature(item: Any, seen: set[int]) -> Feature:
    """One feature, its id added to `seen`; errors name only the field, and
    every coordinate is read before `Polygon.of` checks the shape.

    A JSON integer is tested as `type(v) is int`, which a bool fails; any
    other value takes `_expect_int`, which names it.
    """
    if not isinstance(item, dict):
        raise ValidationError("must be an object")
    fid = item.get("id")
    if type(fid) is not int:
        fid = _expect_int(fid, "id")
    if fid in seen:
        raise ValidationError(f"duplicate feature id {fid}")
    seen.add(fid)
    rects = item.get("rects")
    if not isinstance(rects, list) or not rects:
        raise ValidationError("rects must be a non-empty list")
    for r in rects:
        if not (isinstance(r, list) and len(r) == 4):
            raise ValidationError("each rect must be [x_lo, y_lo, x_hi, y_hi]")
        if not (type(r[0]) is type(r[1]) is type(r[2]) is type(r[3]) is int):
            for c in r:
                _expect_int(c, "rect coordinate")
    return Feature(fid, Polygon.of(*rects))


def _rules_to_obj(cfg: Config) -> dict:
    """The design rules and alpha of a config, as both file formats order them."""
    return {
        "w_min": cfg.w_min,
        "s_min": cfg.s_min,
        "dis_m": cfg.dis_m,
        "dis_c": cfg.dis_c,
        "w_th": cfg.w_th,
        "alpha": frac_str(cfg.alpha),
        "merge_gap": cfg.merge_gap,
    }


def layout_to_obj(features: list[Feature], cfg: Config) -> dict:
    return {
        "format": FORMAT_VERSION,
        "units": "nm",
        **_rules_to_obj(cfg),
        "features": [{"id": f.id, "rects": [list(r) for r in f.shape.rects]} for f in features],
    }


def dump_json(obj: Any) -> str:
    """JSON text, one item per line at two spaces an indent, and a final newline.

    The one exception is an array that is not empty and holds only integers
    (booleans are not integers here), such as a rect, an edge or a
    candidate's features: it is written on one line as `[1, 2]`. Every other
    array and object, an array of such arrays too, is written over several
    lines, and an empty one as `[]` or `{}`. Text is quoted and escaped to
    ASCII as `json.dumps` does; tuples are arrays, and other values and
    non-string keys are written as `json.dumps` writes them.
    """
    out: list[str] = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


# the text of a str, int or bool value, by exact type: written inline, with
# no call of _write_json for it
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__}


def _write_json(value: Any, newline: str, out: list[str]) -> None:
    """Append the text of value to out; newline starts a line at value's indent."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"keys must be text, numbers or null, not {type(key).__name__}")
                key = json.dumps(key)
            head = lead + encode_basestring_ascii(key) + ": "
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                out.append(head + scalar(item))
            else:
                out.append(head)
                _write_json(item, inner, out)
            lead = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if all(isinstance(x, int) and type(x) is not bool for x in value):
            out.append("[" + ", ".join(map(int.__repr__, value)) + "]")
        else:
            inner = newline + "  "
            lead = "[" + inner
            for item in value:
                scalar = _SCALARS.get(type(item))
                if scalar is not None:
                    out.append(lead + scalar(item))
                else:
                    out.append(lead)
                    _write_json(item, inner, out)
                lead = "," + inner
            out.append(newline + "]")
    else:  # null, a float, a subclass of int or str, or a TypeError
        out.append(json.dumps(value))


def emit_layout(features: list[Feature], cfg: Config, path: str | Path) -> None:
    Path(path).write_text(dump_json(layout_to_obj(features, cfg)), encoding="utf-8")


def config_to_obj(cfg: Config) -> dict:
    return {
        **_rules_to_obj(cfg),
        "enable_stitch": cfg.enable_stitch,
        # constant echoes of removed options, kept so result files stay
        # byte-identical; config_from_obj ignores them
        "enable_preselect": False,
        "enable_bridges": True,
    }


def config_from_obj(obj: Any, where: str = "config") -> Config:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: must be an object")
    stitch = obj.get("enable_stitch", True)
    if not isinstance(stitch, bool):  # bool("false") is True
        raise ValidationError(f"{where}: enable_stitch: expected a boolean, got {stitch!r}")
    try:
        return Config(
            w_min=_expect_int(obj.get("w_min"), f"{where}: w_min"),
            s_min=_expect_int(obj.get("s_min"), f"{where}: s_min"),
            dis_m=_expect_int(obj.get("dis_m"), f"{where}: dis_m"),
            dis_c=_expect_int(obj.get("dis_c"), f"{where}: dis_c"),
            w_th=_expect_int(obj.get("w_th"), f"{where}: w_th"),
            alpha=parse_frac(obj.get("alpha"), f"{where}: alpha"),
            merge_gap=_expect_int(obj.get("merge_gap"), f"{where}: merge_gap"),
            enable_stitch=stitch,
        )
    except LayoutError as exc:  # a rule Config itself rejects
        raise ValidationError(f"{where}: {exc}") from exc


def _stitch_entries(lg: LayoutGraph, edges: list[EdgeKey]) -> list[dict]:
    """Result-file entries of stitch edges, sorted by (feature, coord): the
    feature's spine, named as the file names it, and the cut's position."""
    entries = []
    for u, v in edges:
        k, coord = lg.stitch_edges[u, v]
        axis = "vertical" if k else "horizontal"
        entries.append({"feature": lg.vertices[u].feature, "axis": axis, "coord": coord})
    entries.sort(key=lambda s: (s["feature"], s["coord"]))
    return entries


def result_to_obj(
    result: DecompResult, lg: LayoutGraph, eg: EndCutGraph, cfg: Config
) -> dict:
    """Deterministic result-file object (mask ids are 1-based)."""
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
                "rect": list(eg.nodes[cid].cut_rect),
            }
            for cid in sorted(result.selected_cuts)
        ],
        "trim_cuts": [list(r) for r in result.trim_rects],
        "conflicts": [list(e) for e in result.conflicts],
        "stitches": _stitch_entries(lg, result.stitches),
        "cost": frac_str(result.cost),
        "stats": stats,
    }


def baseline_result_to_obj(result: DecompResult, cfg: Config) -> dict:
    """Three-mask baseline result-file object (mask ids are 1-based)."""
    stats = result.stats or {}
    return {
        "format": FORMAT_VERSION,
        "mode": "lelele",
        "config": {**config_to_obj(cfg), "enable_bridges": False},
        "colors": {str(v): result.colors[v] + 1 for v in sorted(result.colors)},
        "conflicts": [list(e) for e in result.conflicts],
        "cost": frac_str(result.cost),
        "stats": {key: stats[key] for key in ("nodes_explored", "proven_optimal")},
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
    A `lelele` (three-mask baseline) result is checked as a result with masks
    1-3 over the conflict graph, no cuts and no stitches: its conflicts must
    be exactly the monochromatic conflict edges, and its cost their number.
    The config is checked against the layout's before any graph is built.
    Every candidate is regenerated, so ids and geometry are checked against
    all of them, but only the pairs of the ids the result lists are
    classified: every check reads only edges between two selected cuts,
    and a pair's class does not depend on the other candidates.
    Raises OverlappingInput, from the graph build, when layout features
    touch or overlap.
    """
    if result.get("mode") not in ("leleec", "lelele"):
        return ["mode: must be 'leleec' or 'lelele'"]
    lelele = result["mode"] == "lelele"
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

    cuts = result.get("selected_cuts", [])
    if lelele:
        lg = build_conflict_edges(features, cfg, feature_index(features, cfg))
        eg = EndCutGraph(nodes=[], solid_edges=set(), dash_edges=set())
    else:
        # only the listed ids' pairs are classified; malformed entries are
        # reported below, in order
        entries = cuts if isinstance(cuts, list) else []
        ids = {c["id"] for c in entries if isinstance(c, dict) and _is_int(c.get("id"))}
        lg, eg = build_graphs(features, cfg, ids)

    raw_colors = result.get("colors")
    if not isinstance(raw_colors, dict):
        return ["colors: must be an object"]
    masks = (1, 2, 3) if lelele else (1, 2)
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
        if not _is_int(val) or val not in masks:
            expected = "1, 2 or 3" if lelele else "1 or 2"
            return [f"colors: vertex {k} has mask {val!r}, expected {expected}"]
        colors[vid] = val - 1
    expected_ids = {s.id for s in lg.vertices}
    if set(colors) != expected_ids:
        problems.append(
            f"colors: vertex ids do not match the layout graph "
            f"(missing {sorted(expected_ids - set(colors))[:5]}, "
            f"extra {sorted(set(colors) - expected_ids)[:5]})"
        )
        return problems

    raw_conflicts = result.get("conflicts", [])
    got_stitches = result.get("stitches", [])
    sections = {"selected_cuts": cuts, "conflicts": raw_conflicts, "stitches": got_stitches}
    for key, section in sections.items():
        if not isinstance(section, list):
            return [f"{key}: must be a list"]
    selected: set[int] = set()
    listed: set[int] = set()  # every listed id, unknown ones too
    for item in cuts:
        if not isinstance(item, dict):
            return [f"selected_cuts: entry {item!r} is not an object"]
        cid = item.get("id")
        if not _is_int(cid):
            return [f"selected_cuts: candidate id {cid!r} is not an integer"]
        if cid in listed:
            return [f"selected_cuts: candidate {cid} is listed twice"]
        listed.add(cid)
        if not 0 <= cid < len(eg.nodes):
            problems.append(f"selected_cuts: unknown candidate id {cid!r}")
            continue
        node = eg.nodes[cid]
        if list(node.features()) != item.get("features") or list(node.cut_rect) != item.get("rect"):
            problems.append(f"selected_cuts: candidate {cid} does not match regenerated geometry")
        selected.add(cid)

    conflicts: dict[EdgeKey, None] = {}  # an ordered set
    for e in raw_conflicts:
        if not (isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e)):
            return [f"conflicts: bad entry {e!r}"]
        edge = (min(e), max(e))
        if edge in conflicts:
            return [f"conflicts: {list(edge)} is listed twice"]
        conflicts[edge] = None
    problems += result_problems(lg, eg, colors, selected, list(conflicts))

    expected_trim = [list(r) for r in merged_trim_rects(selected, eg)]
    if not lelele and result.get("trim_cuts") != expected_trim:
        problems.append("trim_cuts: do not equal the dash-merged union rects of selected cuts")

    active = [(u, v) for u, v in lg.stitch_edges if colors[u] != colors[v]]
    if got_stitches != _stitch_entries(lg, active):
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
