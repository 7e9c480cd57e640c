from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import leleec.cli
from leleec.cli import run_cli
from leleec.decomposer import build_graphs
from leleec.geometry import Polygon, near_pairs, polygon_distance, rects_overlap
from leleec.layout_io import config_to_obj, dump_json, emit_layout
from leleec.layout_graph import Config, Feature
from leleec.synth import KINDS, gen_synthetic

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


def _set_config(key, value):
    def edit(res):
        res["config"][key] = value

    return edit


def _charge_twice(res):
    # (0, 1) is a same-mask conflict edge of the motif, so charging it once is legal
    res["conflicts"] = [[0, 1], [1, 0]]
    res["cost"] = "2"


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
        # the cost counts the raw list, the rules a set of its entries
        (_charge_twice, "conflicts: [0, 1] is listed twice"),
        (_add_cut(5), "selected_cuts: candidate 5 is listed twice"),
        (_set_config("enable_stitch", "false"), "enable_stitch: expected a boolean, got 'false'"),
        (_set_config("w_min", "10"), "violation: config: w_min: expected an integer"),
        # the motif costs 0: read as a number, false would verify
        (_set("cost", False), "cost: expected a rational number, got bool"),
        (_set("cost", True), "cost: expected a rational number, got bool"),
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


def _flip_stitch_axis(res):
    entry = res["stitches"][0]
    entry["axis"] = "vertical" if entry["axis"] == "horizontal" else "horizontal"


def _shift_stitch(delta):
    def edit(res):
        res["stitches"][0]["coord"] += delta

    return edit


# a dropped or repeated entry changes the charged stitches, so the cost
# follows it and the stitch rule alone is broken
def _drop_stitch(res):
    res["stitches"].pop()
    res["cost"] = "0"


def _repeat_stitch(res):
    res["stitches"].append(dict(res["stitches"][0]))
    res["cost"] = "0.2"


@pytest.mark.parametrize(
    "edit",
    [_flip_stitch_axis, _shift_stitch(1), _shift_stitch(-1), _drop_stitch, _repeat_stitch],
    ids=["other-axis", "coord+1", "coord-1", "dropped", "repeated"],
)
def test_verify_reports_a_tampered_stitch_entry(tmp_path, capsys, edit):
    layout = tmp_path / "ring.json"
    emit_layout(*stitch_ring(), layout)
    out = tmp_path / "res.json"
    assert run_cli(["decompose", str(layout), "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    # the odd ring is settled by one stitch, charged at alpha = 1/10
    assert len(res["stitches"]) == 1 and res["cost"] == "0.1"
    edit(res)
    out.write_text(dump_json(res))
    capsys.readouterr()
    assert run_cli(["verify", str(layout), str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "violation: stitches: do not match the stitch edges whose endpoints differ in mask"
    ]


def test_baseline_reports_one_conflict(tmp_path):
    layout = _motif_file(tmp_path)
    out = tmp_path / "base.json"
    code = run_cli(["baseline-lelele", str(layout), "--out", str(out)])
    assert code == 0
    res = json.loads(out.read_text())
    assert res["mode"] == "lelele" and res["cost"] == "1"
    assert len(res["conflicts"]) == 1
    assert set(res["colors"].values()) <= {1, 2, 3}


@pytest.mark.parametrize("kind", KINDS)
def test_verify_accepts_baseline_results(tmp_path, capsys, kind):
    for n in (1, 2, 3):
        for seed in (0, 1, 2):
            layout = tmp_path / f"{kind}_{n}_{seed}.json"
            emit_layout(*gen_synthetic(kind, n, seed, Config.from_rules(10, 10)), layout)
            out = tmp_path / "base.json"
            assert run_cli(["baseline-lelele", str(layout), "--out", str(out)]) == 0
            capsys.readouterr()
            assert run_cli(["verify", str(layout), str(out)]) == 0
            assert capsys.readouterr().err.strip() == "ok"


def _uncharge(res):
    res["conflicts"] = []
    res["cost"] = "0"


@pytest.mark.parametrize(
    "edit, expected",
    [
        (_set_mask(4), "colors: vertex 0 has mask 4, expected 1, 2 or 3"),
        (_uncharge, "accounting: conflict edge"),
        (_set("cost", "2"), "cost: reported 2 != |conflicts| + alpha*|stitches| = 1"),
    ],
)
def test_verify_rejects_tampered_baseline_result(tmp_path, capsys, edit, expected):
    layout = _motif_file(tmp_path)
    out = tmp_path / "base.json"
    run_cli(["baseline-lelele", str(layout), "--out", str(out)])
    res = json.loads(out.read_text())
    assert res["cost"] == "1" and len(res["conflicts"]) == 1
    edit(res)
    out.write_text(dump_json(res))
    capsys.readouterr()
    assert run_cli(["verify", str(layout), str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("violation: ") and expected in lines[0], lines


def test_stitch_flag_changes_cost(tmp_path):
    feats, cfg = stitch_ring()
    layout = tmp_path / "ring.json"
    emit_layout(feats, cfg, layout)
    out_s = tmp_path / "s.json"
    out_n = tmp_path / "n.json"
    assert run_cli(["decompose", str(layout), "--out", str(out_s)]) == 0
    assert run_cli(["decompose", str(layout), "--no-stitch", "--out", str(out_n)]) == 0
    stitched = json.loads(out_s.read_text())
    without = json.loads(out_n.read_text())
    assert Fraction(stitched["cost"]) == Fraction(1, 10)
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
    # each searched piece keeps its search's best leaf; the first is found
    # before the deadline is read: one mask, every conflict charged
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
    lg, _ = build_graphs(feats, cfg.replace(enable_stitch=False))
    assert set(res["colors"].values()) == {1}
    assert res["conflicts"] == [list(e) for e in sorted(lg.conflict_edges)]
    assert res["cost"] == str(len(lg.conflict_edges))
    assert res["stats"]["proven_optimal"] is False


def test_both_solvers_print_the_time_limit_notice(tmp_path, capsys):
    feats, cfg = via_block(4, 4)
    layout = tmp_path / "vias.json"
    emit_layout(feats, cfg, layout)
    for command in ("decompose", "baseline-lelele"):
        capsys.readouterr()
        argv = [command, str(layout), "--time-limit", "0", "--out", str(tmp_path / "r.json")]
        assert run_cli(argv) == 3
        notice = "time limit reached: result is an incumbent, not proven optimal\n"
        assert capsys.readouterr().err == notice, command


def test_baseline_solves_each_motif_on_its_own(tmp_path, capsys):
    # one three-colour model over 64 independent motifs would need billions
    # of nodes; one model per component searches the first motif, and the
    # other 63 are repeats of it that reuse its outcome with no search
    stats = {}
    for n in (1, 64):
        layout = tmp_path / f"c{n}.json"
        assert run_cli(["gen", "clique4_array", str(n), "--out", str(layout)]) == 0
        out = tmp_path / f"b{n}.json"
        assert run_cli(["baseline-lelele", str(layout), "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["cost"] == str(n) and res["stats"]["proven_optimal"] is True
        stats[n] = res["stats"]["nodes_explored"]
    assert stats[64] == stats[1] > 0
    dec = tmp_path / "d64.json"
    assert run_cli(["decompose", str(tmp_path / "c64.json"), "--out", str(dec)]) == 0
    assert json.loads(dec.read_text())["cost"] == "0"


def test_repeated_pieces_are_reused_within_one_call_only(tmp_path, capsys):
    layout = tmp_path / "c8.json"
    assert run_cli(["gen", "clique4_array", "8", "--out", str(layout)]) == 0
    texts = []
    for run in (1, 2):
        out = tmp_path / f"r{run}.json"
        assert run_cli(["decompose", str(layout), "--out", str(out)]) == 0
        texts.append(out.read_text())
        per_sub = json.loads(texts[-1])["stats"]["per_sub"]
        assert len(per_sub) == 8
        assert [entry["nodes_explored"] > 0 for entry in per_sub] == [True] + [False] * 7
    assert texts[0] == texts[1]


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


def test_no_stitch_lp_dump_has_no_stitch_bits(tmp_path):
    feats, cfg = stitch_ring()
    layout = tmp_path / "ring.json"
    emit_layout(feats, cfg, layout)

    def binaries(*flags):
        lp = tmp_path / "model.lp"
        out = tmp_path / "r.json"
        assert run_cli(["decompose", str(layout), *flags, "--lp-dump", str(lp), "--out", str(out)]) == 0
        text = lp.read_text()
        return text[text.index("Binary\n") :].split()

    assert any(name.startswith("s_") for name in binaries())
    assert not any(name.startswith("s_") for name in binaries("--no-stitch"))


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


def test_negative_alpha_exits_2_from_the_flag_and_from_the_file(tmp_path, capsys):
    layout = _motif_file(tmp_path)
    out = tmp_path / "r.json"
    assert run_cli(["decompose", str(layout), "--alpha", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: config alpha must be non-negative, got -1\n"
    # baseline-lelele has no --alpha: a negative one reaches it through the file
    obj = json.loads(layout.read_text())
    obj["alpha"] = "-1"
    layout.write_text(json.dumps(obj))
    for command in ("decompose", "baseline-lelele"):
        assert run_cli([command, str(layout), "--out", str(out)]) == 2, command
        assert capsys.readouterr().err == f"error: {layout}: config alpha must be non-negative, got -1\n"
    assert not out.exists()


def test_boolean_alpha_is_a_validation_error(tmp_path, capsys):
    layout = _motif_file(tmp_path)
    obj = json.loads(layout.read_text())
    obj["alpha"] = True
    layout.write_text(json.dumps(obj))
    out = tmp_path / "r.json"
    assert run_cli(["decompose", str(layout), "--out", str(out)]) == 2
    assert "alpha: expected a rational number, got bool" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "{layout}", "--out", "{bad}"],
        ["decompose", "{layout}", "--out", "{ok}", "--svg", "{bad}"],
        ["decompose", "{layout}", "--out", "{ok}", "--lp-dump", "{bad}"],
        ["decompose", "{layout}", "--report", "text", "--out", "{bad}"],
        ["baseline-lelele", "{layout}", "--out", "{bad}"],
        ["baseline-lelele", "{layout}", "--out", "{ok}", "--svg", "{bad}"],
        ["gen", "grid", "2", "--out", "{bad}"],
    ],
)
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    layout, bad = _motif_file(tmp_path), tmp_path / "missing" / "out"
    paths = {"layout": layout, "bad": bad, "ok": tmp_path / "ok.json"}
    assert run_cli([a.format(**paths) for a in argv]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {bad}: "), lines


def _bare_numbers(text):
    """JSON text with each string "@N@" written as the bare number N."""
    return re.sub(r'"@([^"@]*)@"', r"\1", text)


def _huge_exponent_cases(layout, result):
    """(argv, edited file, edit, expected message) for each place a decimal is read."""

    def set_alpha(obj):
        obj["alpha"] = "@1e999999999@"

    def set_coordinate(obj):
        obj["features"][0]["rects"][0][2] = "@1e999999999@"

    def set_cost(obj):
        obj["cost"] = "@1e-999999999@"

    def set_cost_text(obj):
        obj["cost"] = "1e-999999999"

    def set_config_alpha(obj):
        obj["config"]["alpha"] = "@1E+00999999999@"

    decompose = ["decompose", str(layout)]
    verify = ["verify", str(layout), str(result)]
    return [
        (decompose, layout, set_alpha, "alpha: exponent beyond +-4300"),
        (verify, layout, set_alpha, "alpha: exponent beyond +-4300"),
        (decompose, layout, set_coordinate, "rect coordinate: expected an integer"),
        (verify, result, set_cost, "cost: exponent beyond +-4300"),
        (verify, result, set_cost_text, "cost: exponent beyond +-4300"),
        (verify, result, set_config_alpha, "config: alpha: exponent beyond +-4300"),
        (decompose + ["--alpha", "1e999999999"], None, None, "--alpha: exponent beyond +-4300"),
        (decompose + ["--alpha", "1e-1_000_000_000"], None, None, "--alpha: exponent beyond +-4300"),
    ]


def test_huge_exponents_exit_2_at_once(tmp_path, capsys):
    """Fraction("1e999999999") never returns; each reader rejects it first, by name."""
    layout, result = _motif_file(tmp_path), tmp_path / "res.json"
    assert run_cli(["decompose", str(layout), "--out", str(result)]) == 0
    originals = {layout: layout.read_text(), result: result.read_text()}
    for argv, path, edit, expected in _huge_exponent_cases(layout, result):
        for p, text in originals.items():
            p.write_text(text)
        if path is not None:
            obj = json.loads(originals[path])
            edit(obj)
            path.write_text(_bare_numbers(json.dumps(obj)))
        capsys.readouterr()
        assert run_cli(argv) == 2, argv
        assert expected in capsys.readouterr().err, (argv, expected)


def test_decimal_exponents_within_the_bound_still_parse(tmp_path):
    layout = _motif_file(tmp_path)
    obj = json.loads(layout.read_text())
    obj["alpha"] = "@25e-4300@"
    layout.write_text(_bare_numbers(json.dumps(obj)))
    out = tmp_path / "r.json"
    assert run_cli(["decompose", str(layout), "--out", str(out)]) == 0
    assert run_cli(["decompose", str(layout), "--alpha", "0.5e+0004300", "--out", str(out)]) == 0


def test_long_integer_literals_exit_2_naming_the_file(tmp_path, capsys):
    """json.loads refuses an integer literal of more than 4,300 digits; the
    error names the file, and no result is written."""
    layout = _motif_file(tmp_path)
    result, out = tmp_path / "res.json", tmp_path / "out.json"
    assert run_cli(["decompose", str(layout), "--out", str(result)]) == 0
    long_int = "1" + "0" * 5000
    long_layout, long_result = tmp_path / "long-layout.json", tmp_path / "long-res.json"
    long_layout.write_text(re.sub(r'"w_min": \d+', f'"w_min": {long_int}', layout.read_text()))
    long_result.write_text(
        re.sub(r'"nodes_explored": \d+', f'"nodes_explored": {long_int}', result.read_text(), count=1)
    )
    cases = (
        (["decompose", str(long_layout), "--out", str(out)], long_layout),
        (["baseline-lelele", str(long_layout), "--out", str(out)], long_layout),
        (["verify", str(long_layout), str(result)], long_layout),
        (["verify", str(layout), str(long_result)], long_result),
    )
    for argv, named in cases:
        capsys.readouterr()
        assert run_cli(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: {named}: "), argv
        assert not out.exists()


def test_deeply_nested_json_exits_2_naming_the_file(tmp_path, capsys):
    """Arrays nested past json.loads' recursion limit are a parse error that
    names the file, in a layout and in a result, and no result is written."""
    layout = _motif_file(tmp_path)
    result, out = tmp_path / "res.json", tmp_path / "out.json"
    assert run_cli(["decompose", str(layout), "--out", str(result)]) == 0
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000 + "]" * 100000)
    cases = (
        ["decompose", str(nested), "--out", str(out)],
        ["baseline-lelele", str(nested), "--out", str(out)],
        ["verify", str(nested), str(result)],
        ["verify", str(layout), str(nested)],
    )
    for argv in cases:
        capsys.readouterr()
        assert run_cli(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: {nested}: "), argv
        assert not out.exists()


@pytest.mark.parametrize("module", ["numpy", "dataclasses", "inspect"])
def test_cli_import_does_not_load(module):
    # every CLI call pays for its imports: numpy serves only the brute-force
    # oracle, and the records are plain classes, so neither dataclasses nor
    # the inspect module it loads is needed
    src = str(Path(leleec.cli.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import leleec.cli; print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


# ---- the overlap check and the work of one front end per call


def _first_touching_pair(feats):
    """First id-ordered pair at squared distance 0, by an all-pairs scan."""
    for i in range(len(feats)):
        for j in range(i + 1, len(feats)):
            if polygon_distance(feats[i].shape, feats[j].shape) == 0:
                return i, j
    return None


def _overlapping_layouts(tmp_path):
    """Seeded layouts of random boxes, each with features that touch or overlap."""
    for seed in range(40):
        rng = random.Random(700 + seed)
        feats = []
        for i in range(rng.randrange(2, 30)):
            x, y = rng.randrange(0, 300), rng.randrange(0, 300)
            feats.append(Feature(i, Polygon.of((x, y, x + rng.randrange(5, 60), y + rng.randrange(5, 60)))))
        pair = _first_touching_pair(feats)
        if pair is None:
            continue
        cfg = Config.from_rules(10, 10)
        layout = tmp_path / f"overlap_{seed}.json"
        emit_layout(feats, cfg, layout)
        yield layout, cfg, feats, pair


def test_overlapping_features_exit_2_naming_the_first_pair(tmp_path, capsys):
    touching = overlapping = 0
    for layout, cfg, feats, (i, j) in _overlapping_layouts(tmp_path):
        if rects_overlap(feats[i].shape.bbox, feats[j].shape.bbox):
            overlapping += 1
        else:
            touching += 1
        expected = f"error: {layout}: features {i} and {j} overlap or touch\n"
        out = tmp_path / "out.json"
        for mode in ("leleec", "lelele"):
            # a well-formed result whose config matches, so verify reaches the geometry
            result = {"format": 1, "mode": mode, "config": config_to_obj(cfg), "colors": {}}
            out.write_text(dump_json(result))
            assert run_cli(["verify", str(layout), str(out)]) == 2
            assert capsys.readouterr().err == expected
        out.unlink()
        for command in ("decompose", "baseline-lelele"):
            assert run_cli([command, str(layout), "--out", str(out)]) == 2
            assert capsys.readouterr().err == expected
            assert not out.exists()
    assert touching > 0 and overlapping > 0


def test_one_feature_index_and_one_near_pair_walk_per_call(tmp_path, monkeypatch):
    layout, result, base = tmp_path / "motif.json", tmp_path / "res.json", tmp_path / "base.json"
    assert run_cli(["gen", "clique4_array", "4", "--out", str(layout)]) == 0
    feats, cfg = gen_synthetic("clique4_array", 4, 0, Config.from_rules(10, 10))
    over_features = ([f.shape.bbox for f in feats], max(cfg.dis_m, cfg.w_th))
    cuts = [c.cut_rect for c in build_graphs(feats, cfg)[1].nodes]
    over_cuts = (cuts, max(cfg.dis_c, cfg.merge_gap))
    swept = []

    def counted(boxes, gap):
        swept.append((list(boxes), gap))
        return near_pairs(boxes, gap)

    # every module that imported the sweep by name, so no other sweep goes uncounted
    for name, module in list(sys.modules.items()):
        if name == "leleec" or name.startswith("leleec."):
            for attr, value in list(vars(module).items()):
                if value is near_pairs:
                    monkeypatch.setattr(module, attr, counted)
    def over_listed_cuts():
        listed = [c["id"] for c in json.loads(result.read_text())["selected_cuts"]]
        assert 0 < len(listed) < len(cuts)
        return ([cuts[cid] for cid in listed], max(cfg.dis_c, cfg.merge_gap))

    calls = (
        (["decompose", str(layout), "--out", str(result)], lambda: [over_features, over_cuts]),
        (["verify", str(layout), str(result)], lambda: [over_features, over_listed_cuts()]),
        (["baseline-lelele", str(layout), "--out", str(base)], lambda: [over_features]),
        (["verify", str(layout), str(base)], lambda: [over_features]),
    )
    assert cuts
    for argv, sweeps in calls:
        swept.clear()
        assert run_cli(argv) == 0
        # one sweep over the feature boxes; decompose sweeps every cut rect
        # once, and a leleec verify the rects of the cuts its result lists
        assert swept == sweeps(), argv
