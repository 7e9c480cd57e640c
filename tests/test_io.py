from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from leleec.decomposer import build_graphs, decompose, decompose_graphs, lelele_baseline
from leleec.cli import run_cli
from leleec.layout_graph import Config, OverlappingInput, build_conflict_edges, feature_index
from leleec.layout_io import (
    ParseError,
    ValidationError,
    baseline_result_to_obj,
    config_from_obj,
    dump_json,
    emit_layout,
    frac_str,
    layout_to_obj,
    parse_layout,
    result_to_obj,
    verify_result,
)
from leleec.svg import render_svg
from leleec.synth import KINDS, gen_synthetic

from conftest import (
    clique4_motif,
    gamma_quad,
    preselect_ring,
    random_config,
    random_layout,
    random_shapes,
    stitch_ring,
    via_block,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dump_json(obj), encoding="utf-8")
    return path


CONFIG_INTS = ("w_min", "s_min", "dis_m", "dis_c", "w_th", "merge_gap")

MINIMAL = {
    "format": 1,
    "units": "nm",
    "w_min": 10,
    "s_min": 10,
    "features": [{"id": 0, "rects": [[0, 0, 10, 40]]}],
}


def test_parse_minimal_applies_defaults(tmp_path):
    path = _write(tmp_path, "min.json", MINIMAL)
    features, cfg = parse_layout(path)
    assert len(features) == 1
    assert cfg.dis_m == 2 * 10 + 3 * 10 == 50
    assert cfg.w_th == 50 and cfg.dis_c == 50
    assert cfg.alpha == Fraction(1, 10)
    assert cfg.merge_gap == 10


def test_parse_alpha_decimal_is_exact(tmp_path):
    obj = dict(MINIMAL, alpha=0.1)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    _, cfg = parse_layout(path)
    assert cfg.alpha == Fraction(1, 10)


def test_parse_rejects_bad_rect(tmp_path):
    obj = dict(MINIMAL, features=[{"id": 0, "rects": [[10, 0, 0, 40]]}])
    with pytest.raises(ValidationError):
        parse_layout(_write(tmp_path, "bad.json", obj))


def test_parse_rejects_duplicate_ids(tmp_path):
    obj = dict(
        MINIMAL,
        features=[
            {"id": 0, "rects": [[0, 0, 10, 40]]},
            {"id": 0, "rects": [[30, 0, 40, 40]]},
        ],
    )
    with pytest.raises(ValidationError):
        parse_layout(_write(tmp_path, "dup.json", obj))


def test_parse_rejects_non_integer_coordinates(tmp_path):
    obj = dict(MINIMAL, features=[{"id": 0, "rects": [[0, 0, 10.5, 40]]}])
    path = tmp_path / "f.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ValidationError):
        parse_layout(path)


@pytest.mark.parametrize(
    "feature, message",
    [
        (5, "must be an object"),
        ({"id": "1", "rects": [[30, 0, 40, 40]]}, "id: expected an integer, got '1'"),
        ({"id": True, "rects": [[30, 0, 40, 40]]}, "id: expected an integer, got True"),
        ({"id": 0, "rects": [[30, 0, 40, 40]]}, "duplicate feature id 0"),
        ({"id": 1, "rects": []}, "rects must be a non-empty list"),
        ({"id": 1, "rects": [[30, 0, 40]]}, "each rect must be [x_lo, y_lo, x_hi, y_hi]"),
        ({"id": 1, "rects": [[30, 0, True, 40]]}, "rect coordinate: expected an integer, got True"),
        (
            {"id": 1, "rects": [[30, 0, 40.5, 40]]},
            "rect coordinate: expected an integer, got Fraction(81, 2)",
        ),
        ({"id": 1, "rects": [[40, 0, 30, 40]]}, "degenerate rect [40, 0, 30, 40]"),
        (
            {"id": 1, "rects": [[30, 0, 40, 40], [35, 0, 45, 40]]},
            "polygon rects overlap: (30, 0, 40, 40) and (35, 0, 45, 40)",
        ),
        (
            {"id": 1, "rects": [[30, 0, 40, 40], [50, 0, 60, 40]]},
            "polygon rects are not edge-connected",
        ),
        # the duplicate id is found before the rects are read
        ({"id": 0, "rects": [[30, 0, 40]]}, "duplicate feature id 0"),
        # every coordinate is read before any shape is checked
        (
            {"id": 1, "rects": [[40, 0, 30, 40], [30, 0, "x", 40]]},
            "rect coordinate: expected an integer, got 'x'",
        ),
        # ... in a one-rect feature too
        ({"id": 1, "rects": [[40, 0, 30, True]]}, "rect coordinate: expected an integer, got True"),
        ({"id": 1, "rects": [[40, 40, 30, 0.5]]}, "rect coordinate: expected an integer, got Fraction(1, 2)"),
        # the one-rect checks: zero width, zero height, the wrong length, a float id
        ({"id": 1, "rects": [[30, 0, 30, 40]]}, "degenerate rect [30, 0, 30, 40]"),
        ({"id": 1, "rects": [[30, 0, 40, 0]]}, "degenerate rect [30, 0, 40, 0]"),
        ({"id": 1, "rects": [[30, 0, 40, 40, 50]]}, "each rect must be [x_lo, y_lo, x_hi, y_hi]"),
        ({"id": 1.0, "rects": [[30, 0, 40, 40]]}, "id: expected an integer, got Fraction(1, 1)"),
    ]
    # a bool or a float in each slot of a one-rect feature
    + [
        (
            {"id": 1, "rects": [[bad if k == slot else c for k, c in enumerate((30, 0, 40, 40))]]},
            f"rect coordinate: expected an integer, got {shown}",
        )
        for slot in range(4)
        for bad, shown in ((False, "False"), (True, "True"), (2.5, "Fraction(5, 2)"), (30.0, "Fraction(30, 1)"))
    ],
)
def test_parse_feature_errors_name_path_feature_and_field(tmp_path, feature, message):
    obj = dict(MINIMAL, features=[MINIMAL["features"][0], feature])
    path = tmp_path / "f.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        parse_layout(path)
    assert str(err.value) == f"{path}: features[1]: {message}"


@pytest.mark.parametrize(
    "name, value, message",
    [(name, v, f"config {name} must be a positive integer, got {v}") for name in CONFIG_INTS for v in (0, -10)]
    + [(name, "10", f"{name}: expected an integer, got '10'") for name in CONFIG_INTS]
    + [(name, 2.5, f"{name}: expected an integer, got Fraction(5, 2)") for name in CONFIG_INTS]
    + [
        ("alpha", "-1", "config alpha must be non-negative, got -1"),
        ("alpha", -0.5, "config alpha must be non-negative, got -1/2"),
    ],
)
def test_parse_layout_rejects_bad_rules(tmp_path, name, value, message):
    path = _write(tmp_path, "rules.json", {**MINIMAL, name: value})
    with pytest.raises(ValidationError) as err:
        parse_layout(path)
    assert str(err.value) == f"{path}: {message}"


def test_parse_error_on_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        parse_layout(path)
    assert "line" in str(err.value)


def test_overlapping_features_rejected_at_parse(tmp_path, capsys):
    """A parsed layout with overlapping features is rejected before any result.

    `parse_layout` reads the geometry without checking it; the conflict build
    that every command runs next raises, and the CLI names the layout path.
    """
    obj = dict(
        MINIMAL,
        features=[
            {"id": 0, "rects": [[0, 0, 10, 40]]},
            {"id": 1, "rects": [[5, 5, 30, 30]]},
        ],
    )
    path = _write(tmp_path, "olap.json", obj)
    features, cfg = parse_layout(path)
    with pytest.raises(OverlappingInput, match="^features 0 and 1 overlap or touch$"):
        build_graphs(features, cfg)
    with pytest.raises(OverlappingInput, match="^features 0 and 1 overlap or touch$"):
        decompose(features, cfg)
    out = tmp_path / "out.json"
    assert run_cli(["decompose", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: features 0 and 1 overlap or touch\n"
    assert not out.exists()


def test_layout_round_trip(tmp_path):
    feats, cfg = clique4_motif()
    path = tmp_path / "x.json"
    emit_layout(feats, cfg, path)
    feats2, cfg2 = parse_layout(path)
    assert [f.shape for f in feats2] == [f.shape for f in feats]
    for key in ("w_min", "s_min", "dis_m", "dis_c", "w_th", "alpha", "merge_gap"):
        assert getattr(cfg2, key) == getattr(cfg, key)
    emit_layout(feats2, cfg2, tmp_path / "y.json")
    assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()


def test_result_verifies_and_round_trips(tmp_path):
    feats, cfg = stitch_ring()
    lg, eg = build_graphs(feats, cfg)
    res = decompose_graphs(lg, eg, cfg)
    obj = result_to_obj(res, lg, eg, cfg)
    text = dump_json(obj)
    back = json.loads(text, parse_float=Fraction)
    assert verify_result(feats, cfg, back) == []
    assert dump_json(back) == text


def test_config_echo_keeps_removed_option_keys():
    feats, cfg = clique4_motif()
    lg, eg = build_graphs(feats, cfg)
    res = decompose_graphs(lg, eg, cfg)
    echoes = {
        "decompose": result_to_obj(res, lg, eg, cfg)["config"],
        "baseline": baseline_result_to_obj(res, cfg)["config"],
    }
    keys = ["w_min", "s_min", "dis_m", "dis_c", "w_th", "alpha", "merge_gap",
            "enable_stitch", "enable_preselect", "enable_bridges"]
    for name, bridges in (("decompose", True), ("baseline", False)):
        echo = echoes[name]
        assert list(echo) == keys, name
        assert echo["enable_preselect"] is False and echo["enable_bridges"] is bridges, name
    # older files with other values of the removed keys still read
    assert config_from_obj({**echoes["decompose"], "enable_preselect": True}) == cfg


def test_verify_names_flipped_color(tmp_path):
    feats, cfg = clique4_motif()
    lg, eg = build_graphs(feats, cfg)
    res = decompose_graphs(lg, eg, cfg)
    obj = result_to_obj(res, lg, eg, cfg)
    tampered = json.loads(dump_json(obj), parse_float=Fraction)
    vid = next(iter(tampered["colors"]))
    tampered["colors"][vid] = 3 - tampered["colors"][vid]
    problems = verify_result(feats, cfg, tampered)
    assert problems
    assert any("1d" in p or "accounting" in p or "stitches" in p for p in problems)


def test_verify_rejects_wrong_cost(tmp_path):
    feats, cfg = clique4_motif()
    lg, eg = build_graphs(feats, cfg)
    res = decompose_graphs(lg, eg, cfg)
    obj = result_to_obj(res, lg, eg, cfg)
    obj["cost"] = "7"
    problems = verify_result(feats, cfg, json.loads(dump_json(obj), parse_float=Fraction))
    assert any(p.startswith("cost:") for p in problems)


def test_frac_str_exactness():
    assert frac_str(Fraction(1, 10)) == "0.1"
    assert frac_str(Fraction(21, 10)) == "2.1"
    assert frac_str(Fraction(0)) == "0"
    assert frac_str(Fraction(-3, 4)) == "-0.75"
    assert frac_str(Fraction(1, 3)) == "1/3"
    assert Fraction(frac_str(Fraction(21, 10))) == Fraction(21, 10)


# ---- synthetic generators


def test_per_sub_costs_use_the_one_decimal_formatter():
    feats, cfg = stitch_ring()
    lg, eg = build_graphs(feats, cfg)
    obj = result_to_obj(decompose_graphs(lg, eg, cfg), lg, eg, cfg)
    assert obj["cost"] == "0.1"
    assert [sub["cost"] for sub in obj["stats"]["per_sub"]] == ["0.1"]


def test_grid_rows_are_independent_paths():
    cfg = Config.from_rules(10, 10)
    feats, out_cfg = gen_synthetic("grid", 4, 0, cfg)
    assert len(feats) == 16
    res = decompose(feats, out_cfg)
    assert res.cost == 0
    assert res.stats["sub_problems"] >= 4


def test_comb_is_bipartite_pair():
    cfg = Config.from_rules(10, 10)
    feats, out_cfg = gen_synthetic("comb", 5, 1, cfg)
    assert len(feats) == 2
    assert all(len(f.shape.rects) == 6 for f in feats)
    res = decompose(feats, out_cfg)
    assert res.cost == 0


def test_clique4_array_contrast():
    from leleec.ilp_model import ProblemGraph, build_lelele_baseline
    from leleec.solver import solve

    cfg = Config.from_rules(10, 10)
    feats, out_cfg = gen_synthetic("clique4_array", 1, 0, cfg)
    assert out_cfg.w_th == out_cfg.w_min
    res = decompose(feats, out_cfg)
    assert res.cost == 0 and len(res.selected_cuts) >= 2
    lg, eg = build_graphs(feats, out_cfg)
    _, stats = solve(build_lelele_baseline(ProblemGraph.from_layout(lg, eg)))
    assert stats.best_cost == 1


def test_clique4_array_tiles_are_independent():
    cfg = Config.from_rules(10, 10)
    feats, out_cfg = gen_synthetic("clique4_array", 3, 2, cfg)
    assert len(feats) == 12
    res = decompose(feats, out_cfg)
    assert res.cost == 0
    assert res.stats["sub_problems"] == 3


def test_via_array_conflicts_match_coloring_oracle():
    cfg = Config.from_rules(10, 10)
    feats, out_cfg = gen_synthetic("via_array", 2, 0, cfg)
    assert len(feats) == 4
    lg, eg = build_graphs(feats, out_cfg)
    assert len(eg.nodes) == 0  # no room for cuts at minimum pitch
    edges = sorted(lg.conflict_edges)
    best = min(
        sum(1 for u, v in edges if colors[u] == colors[v])
        for colors in itertools.product((0, 1), repeat=len(feats))
    )
    res = decompose(feats, out_cfg)
    assert res.cost == best == 2


def test_gen_deterministic_per_seed():
    cfg = Config.from_rules(10, 10)
    a, _ = gen_synthetic("grid", 3, 7, cfg)
    b, _ = gen_synthetic("grid", 3, 7, cfg)
    c, _ = gen_synthetic("grid", 3, 8, cfg)
    assert [f.shape for f in a] == [f.shape for f in b]
    assert [f.shape for f in a] != [f.shape for f in c]


def test_gen_unknown_kind():
    with pytest.raises(ValueError):
        gen_synthetic("spiral", 3, 0, Config.from_rules(10, 10))


# ---- SVG


def test_svg_deterministic_and_structured():
    feats, cfg = clique4_motif()
    lg, eg = build_graphs(feats, cfg)
    res = decompose_graphs(lg, eg, cfg)
    colors = {v: c + 1 for v, c in res.colors.items()}
    doc1 = render_svg(lg, colors, res.trim_rects, res.conflicts)
    doc2 = render_svg(lg, colors, res.trim_rects, res.conflicts)
    assert doc1 == doc2
    assert doc1.startswith("<svg ") and doc1.rstrip().endswith("</svg>")
    assert doc1.count("<rect ") >= len(feats) + len(res.trim_rects)
    assert 'fill="url(#trim)"' in doc1


def test_svg_empty_layout():
    from leleec.layout_graph import LayoutGraph

    lg = LayoutGraph(vertices=[], conflict_edges={}, stitch_edges={})
    doc = render_svg(lg, {}, [], [])
    assert doc.startswith("<svg ") and "</svg>" in doc


def test_svg_marks_conflicts():
    cfg = Config.from_rules(10, 10, enable_stitch=False)
    feats, out_cfg = gen_synthetic("via_array", 2, 0, cfg)
    lg, eg = build_graphs(feats, out_cfg)
    res = decompose_graphs(lg, eg, out_cfg)
    assert res.conflicts
    doc = render_svg(lg, {v: c + 1 for v, c in res.colors.items()}, res.trim_rects, res.conflicts)
    assert doc.count('stroke="#cc0000"') == len(res.conflicts)


def _dump_json_by_regex(obj) -> str:
    """The writer as it was: indented `json.dumps`, then a regex that joins
    each bracketed run of digits, minus signs, commas and blanks onto one
    line. The regex also rewrote such runs inside strings."""
    text = json.dumps(obj, indent=2)
    text = re.sub(
        r"\[[\s\-\d,]+\]",
        lambda m: re.sub(r"\s+", "", m.group(0)).replace(",", ", "),
        text,
    )
    return text + "\n"


@pytest.mark.parametrize(
    "obj",
    [
        {"k": "[1,2]"},
        {"[3,4]": "[ -1 , 2 ]", "x": [3, 4]},
        {"quote\"": "back\\slash\n\ttab\u0001\u007f"},
        {"naïve": "µm – ✓ 𝄞", "中": ["é", 1]},
        {"empty": [], "none": {}, "both": [[], {}, [[]]]},
        [],
        {},
        [-1, 0, 10**30, -(10**30), -12345678901234567890123456789],
        [[1, 2], [3, [4, -5]], [[6]]],
        ["a", 1, True, False, None, [2, 3], {"x": [-3]}, [1, True], [0.5, 2]],
        {"nested": {"deeper": {"deepest": [[-1, 1], "[]", "]["]}}},
        "[7,8]",
        -3,
    ],
)
def test_dump_json_round_trips_brackets_escapes_and_numbers(obj):
    text = dump_json(obj)
    assert json.loads(text) == obj
    assert text.endswith("\n") and text.isascii()


def test_dump_json_leaves_bracketed_text_alone():
    assert dump_json({"k": "[1,2]"}) == '{\n  "k": "[1,2]"\n}\n'
    assert dump_json({"[3,4]": [3, 4]}) == '{\n  "[3,4]": [3, 4]\n}\n'
    # the regex rewrote both; its output read back as other text
    old = _dump_json_by_regex({"k": "[1,2]", "[3,4]": 0})
    assert json.loads(old) == {"k": "[1, 2]", "[3, 4]": 0}


def _random_text(rng: random.Random) -> str:
    # everything but brackets: quotes, escapes, digits, signs, commas, blanks, non-ASCII
    alphabet = 'ab yz09-,:{}"\\/\n\t\r\x00\x1fé€𝄞'
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))


def _random_json(rng: random.Random, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(
            [
                rng.randint(-5, 5),
                rng.randint(-(10**30), 10**30),
                rng.choice([True, False, None]),
                rng.choice([0.5, -2.25, 1e20]),
                _random_text(rng),
            ]
        )
    if roll < 0.5:  # an integer array, written inline
        return [rng.randint(-(10**6), 10**6) for _ in range(rng.randrange(5))]
    if roll < 0.75:
        return [_random_json(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {_random_text(rng): _random_json(rng, depth - 1) for _ in range(rng.randrange(4))}


def test_dump_json_matches_the_regex_writer_on_seeded_objects():
    inline = 0
    for seed in range(300):
        obj = _random_json(random.Random(seed), 4)
        text = dump_json(obj)
        assert text == _dump_json_by_regex(obj), seed
        inline += text.count("[") - text.count("[\n") - text.count("[]")
    assert inline > 100, inline


def _suite_layouts():
    """The layouts the suite builds: the conftest fixtures, seeded random
    wires and shapes, the gen kinds and the recorded golden layouts."""
    layouts = [clique4_motif(), gamma_quad(), stitch_ring(), preselect_ring(), via_block(3, 3)]
    for seed in range(20):
        rng = random.Random(seed)
        layouts.append((random_layout(rng, rng.randrange(2, 10), box=220), random_config(rng)))
        layouts.append((random_shapes(rng, 6, 10, 200), random_config(rng)))
    for kind in KINDS:
        for n in (1, 2, 3):
            layouts.append(gen_synthetic(kind, n, 0, Config.from_rules(10, 10)))
    layouts += [parse_layout(path) for path in sorted(GOLDEN.glob("*.layout.json"))]
    return layouts


def test_dump_json_matches_the_regex_writer_on_suite_layouts_and_results():
    objects = 0
    for feats, cfg in _suite_layouts():
        objs = [layout_to_obj(feats, cfg)]
        for c in (cfg, cfg.replace(enable_stitch=False)):
            lg, eg = build_graphs(feats, c)
            objs.append(result_to_obj(decompose_graphs(lg, eg, c), lg, eg, c))
        base = cfg.replace(enable_stitch=False)
        lg = build_conflict_edges(feats, base, feature_index(feats, base))
        objs.append(baseline_result_to_obj(lelele_baseline(lg), base))
        for obj in objs:
            assert dump_json(obj) == _dump_json_by_regex(obj)
            objects += 1
    assert objects > 200, objects
