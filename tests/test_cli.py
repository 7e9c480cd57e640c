from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import leleec.cli
from leleec.cli import run_cli
from leleec.decomposer import build_graphs
from leleec.layout_io import dump_json, emit_layout
from leleec.layout_graph import Config
from leleec.synth import gen_synthetic

from conftest import stitch_ring, via_block


def _motif_file(tmp_path):
    feats, cfg = gen_synthetic("clique4_array", 1, 0, Config.from_rules(10, 10))
    path = tmp_path / "fig2.json"
    emit_layout(feats, cfg, path)
    return path


def test_decompose_motif_exits_zero(tmp_path, capsys):
    layout = _motif_file(tmp_path)
    out = tmp_path / "res.json"
    svg = tmp_path / "out.svg"
    code = run_cli(["decompose", str(layout), "--svg", str(svg), "--out", str(out)])
    assert code == 0
    res = json.loads(out.read_text())
    assert res["cost"] == "0" and res["conflicts"] == []
    assert len(res["selected_cuts"]) >= 2
    assert svg.read_text().startswith("<svg ")


def test_verify_accepts_own_result(tmp_path):
    layout = _motif_file(tmp_path)
    out = tmp_path / "res.json"
    assert run_cli(["decompose", str(layout), "--out", str(out)]) == 0
    assert run_cli(["verify", str(layout), str(out)]) == 0


def test_verify_rejects_tampered_result(tmp_path, capsys):
    layout = _motif_file(tmp_path)
    out = tmp_path / "res.json"
    run_cli(["decompose", str(layout), "--out", str(out)])
    res = json.loads(out.read_text())
    vid = next(iter(res["colors"]))
    res["colors"][vid] = 3 - res["colors"][vid]
    out.write_text(dump_json(res))
    code = run_cli(["verify", str(layout), str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "violation:" in captured.err


def _set(key, value):
    def edit(res):
        res[key] = value

    return edit


def _add_cut(cid):
    def edit(res):
        res["selected_cuts"].append({**res["selected_cuts"][-1], "id": cid})

    return edit


def _set_mask(value):
    def edit(res):
        res["colors"][next(iter(res["colors"]))] = value

    return edit


def _respell_vertex_1(*spellings):
    """Replace key "1" by other spellings of vertex 1, the last with its mask."""

    def edit(res):
        mask = res["colors"].pop("1")
        for key in spellings[:-1]:
            res["colors"][key] = 3 - mask
        res["colors"][spellings[-1]] = mask

    return edit


@pytest.mark.parametrize(
    "edit, expected",
    [
        (_set("selected_cuts", [5]), "selected_cuts: entry 5 is not an object"),
        (_set("selected_cuts", 3), "selected_cuts: must be a list"),
        (_set("conflicts", 3), "conflicts: must be a list"),
        (_set("stitches", 3), "stitches: must be a list"),
        (_set("conflicts", [[1, "a"]]), "conflicts: bad entry [1, 'a']"),
        (_add_cut(-1), "selected_cuts: unknown candidate id -1"),
        (_add_cut(True), "selected_cuts: candidate id True is not an integer"),
        (_set_mask(True), "has mask True, expected 1 or 2"),
        # vertex 1 on both masks; int() alone reads both keys as 1
        (_respell_vertex_1("01", " 1"), "colors: bad vertex id '01'"),
        (_respell_vertex_1("1", "-1"), "colors: bad vertex id '-1'"),
    ],
)
def test_verify_reports_malformed_result_input(tmp_path, capsys, edit, expected):
    layout = _motif_file(tmp_path)
    out = tmp_path / "res.json"
    run_cli(["decompose", str(layout), "--out", str(out)])
    res = json.loads(out.read_text())
    edit(res)
    out.write_text(dump_json(res))
    capsys.readouterr()
    assert run_cli(["verify", str(layout), str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("violation: ") and expected in lines[0], lines


def test_baseline_reports_one_conflict(tmp_path):
    layout = _motif_file(tmp_path)
    out = tmp_path / "base.json"
    code = run_cli(["baseline-lelele", str(layout), "--out", str(out)])
    assert code == 0
    res = json.loads(out.read_text())
    assert res["mode"] == "lelele" and res["cost"] == "1"
    assert len(res["conflicts"]) == 1
    assert set(res["colors"].values()) <= {1, 2, 3}


def test_stitch_flag_changes_cost(tmp_path):
    feats, cfg = stitch_ring()
    layout = tmp_path / "ring.json"
    emit_layout(feats, cfg, layout)
    out_s = tmp_path / "s.json"
    out_n = tmp_path / "n.json"
    assert run_cli(["decompose", str(layout), "--out", str(out_s)]) == 0
    assert run_cli(["decompose", str(layout), "--no-stitch", "--out", str(out_n)]) == 0
    with_stitch = json.loads(out_s.read_text())
    without = json.loads(out_n.read_text())
    assert Fraction(with_stitch["cost"]) == Fraction(1, 10)
    assert Fraction(without["cost"]) == 1


def test_gen_then_decompose_round_trip(tmp_path):
    layout = tmp_path / "grid.json"
    assert run_cli(["gen", "grid", "3", "--seed", "5", "--out", str(layout)]) == 0
    out = tmp_path / "res.json"
    assert run_cli(["decompose", str(layout), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["cost"] == "0"
    assert run_cli(["verify", str(layout), str(out)]) == 0


def test_time_limit_writes_verifiable_incumbent(tmp_path, capsys):
    feats, cfg = via_block(4, 4)
    layout = tmp_path / "vias.json"
    emit_layout(feats, cfg, layout)
    out = tmp_path / "r.json"
    assert run_cli(["decompose", str(layout), "--time-limit", "0", "--out", str(out)]) == 3
    res = json.loads(out.read_text())
    assert res["stats"]["proven_optimal"] is False
    # the fallback incumbent: one mask, every conflict charged
    assert len(set(res["colors"].values())) == 1
    assert res["cost"] == str(len(res["conflicts"])) and res["conflicts"]
    capsys.readouterr()
    assert run_cli(["verify", str(layout), str(out)]) == 0
    assert capsys.readouterr().err.strip() == "ok"


def test_baseline_time_limit_writes_one_mask_incumbent(tmp_path, capsys):
    feats, cfg = via_block(4, 4)
    layout = tmp_path / "vias.json"
    emit_layout(feats, cfg, layout)
    out = tmp_path / "r.json"
    assert run_cli(["baseline-lelele", str(layout), "--time-limit", "0", "--out", str(out)]) == 3
    res = json.loads(out.read_text())
    lg, _ = build_graphs(feats, replace(cfg, enable_stitch=False))
    assert set(res["colors"].values()) == {1}
    assert res["conflicts"] == [list(e) for e in sorted(lg.conflict_edges)]
    assert res["cost"] == str(len(lg.conflict_edges))
    assert res["stats"]["proven_optimal"] is False


@pytest.mark.parametrize("flag", ["--no-preselect", "--preselect", "--no-bridges"])
def test_no_preselect_flag_is_gone(tmp_path, capsys, flag):
    layout = _motif_file(tmp_path)
    assert run_cli(["decompose", str(layout), flag]) == 1


@pytest.mark.parametrize("command", ["decompose", "baseline-lelele"])
@pytest.mark.parametrize("limit", ["nan", "inf", "-1", "-0.5"])
def test_time_limit_must_be_finite_and_non_negative(tmp_path, capsys, command, limit):
    layout = _motif_file(tmp_path)
    out = tmp_path / "r.json"
    assert run_cli([command, str(layout), "--time-limit", limit, "--out", str(out)]) == 1
    assert "--time-limit" in capsys.readouterr().err and not out.exists()


def test_usage_error_exit_code(capsys):
    assert run_cli(["decompose"]) == 1
    assert run_cli(["gen", "spiral", "3"]) == 1


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run_cli(["decompose", str(bad)]) == 2


def test_lp_dump_written(tmp_path):
    layout = _motif_file(tmp_path)
    lp = tmp_path / "model.lp"
    assert run_cli(["decompose", str(layout), "--lp-dump", str(lp), "--out", str(tmp_path / "r.json")]) == 0
    text = lp.read_text()
    assert text.startswith("Minimize") and text.rstrip().endswith("End")


def test_report_text(tmp_path, capsys):
    layout = _motif_file(tmp_path)
    assert run_cli(["decompose", str(layout), "--report", "text"]) == 0
    outp = capsys.readouterr().out
    assert "cost: 0" in outp and "sub-problems" in outp


def test_alpha_override(tmp_path):
    feats, cfg = stitch_ring()
    layout = tmp_path / "ring.json"
    emit_layout(feats, cfg, layout)
    out = tmp_path / "r.json"
    assert run_cli(["decompose", str(layout), "--alpha", "0.25", "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert Fraction(res["cost"]) == Fraction(1, 4)
    assert run_cli(["verify", str(layout), str(out)]) == 0


def test_cli_import_does_not_load_numpy():
    # numpy serves only the brute-force oracle; every CLI call pays for its import
    src = str(Path(leleec.cli.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import leleec.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
