from __future__ import annotations

import itertools
import json
from fractions import Fraction

import pytest

from leleec.decomposer import build_graphs, decompose, decompose_graphs
from leleec.layout_graph import Config
from leleec.layout_io import (
    ParseError,
    ValidationError,
    baseline_result_to_obj,
    config_from_obj,
    dump_json,
    emit_layout,
    frac_str,
    parse_layout,
    result_to_obj,
    verify_result,
)
from leleec.svg import render_svg
from leleec.synth import gen_synthetic

from conftest import clique4_motif, stitch_ring


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dump_json(obj), encoding="utf-8")
    return path


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


def test_parse_error_on_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        parse_layout(path)
    assert "line" in str(err.value)


def test_overlapping_features_rejected_at_parse(tmp_path):
    obj = dict(
        MINIMAL,
        features=[
            {"id": 0, "rects": [[0, 0, 10, 40]]},
            {"id": 1, "rects": [[5, 5, 30, 30]]},
        ],
    )
    with pytest.raises(ValidationError) as err:
        parse_layout(_write(tmp_path, "olap.json", obj))
    assert "overlap" in str(err.value)


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
        "baseline": baseline_result_to_obj(res.colors, [], Fraction(0), {}, cfg)["config"],
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
    from leleec.ilp_model import build_lelele_baseline
    from leleec.solver import solve

    cfg = Config.from_rules(10, 10)
    feats, out_cfg = gen_synthetic("clique4_array", 1, 0, cfg)
    assert out_cfg.w_th == out_cfg.w_min
    res = decompose(feats, out_cfg)
    assert res.cost == 0 and len(res.selected_cuts) >= 2
    lg, _ = build_graphs(feats, out_cfg)
    _, stats = solve(build_lelele_baseline(lg))
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

    lg = LayoutGraph(vertices=[], conflict_edges={}, stitch_edges=set())
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
