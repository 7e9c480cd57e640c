"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the summary lines.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

from leleec.cli import run_cli
from leleec.decomposer import build_graphs, decompose, decompose_graphs, solve_monolithic
from leleec.ilp_model import ProblemGraph, build_model_from_problem
from leleec.layout_graph import Config
from leleec.layout_io import dump_json, emit_layout, result_to_obj, verify_result
from leleec.solver import BRUTE_FORCE_CAP, brute_force, solve
from leleec.svg import render_svg
from leleec.synth import gen_synthetic

from conftest import (
    gamma_quad,
    preselect_ring,
    random_config,
    random_layout,
    stitch_ring,
    var,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _corpus() -> list[tuple[str, list, Config]]:
    base = Config.from_rules(10, 10)
    instances = []
    for kind, n, seed in (
        ("clique4_array", 1, 0),
        ("clique4_array", 3, 1),
        ("grid", 3, 2),
        ("grid", 4, 3),
        ("comb", 4, 4),
        ("via_array", 2, 5),
        ("via_array", 3, 6),
    ):
        feats, cfg = gen_synthetic(kind, n, seed, base)
        instances.append((f"{kind}_{n}", feats, cfg))
    feats, cfg = stitch_ring()
    instances.append(("stitch_ring", feats, cfg))
    feats, cfg = gamma_quad()
    instances.append(("gamma_quad", feats, cfg))
    for seed in range(6):
        rng = random.Random(5000 + seed)
        feats = random_layout(rng, rng.randrange(3, 9), box=220)
        if feats:
            instances.append((f"random_{seed}", feats, Config.from_rules(10, 10, w_th=10)))
    return instances


def test_criterion_1_motif_contrast(tmp_path):
    start = time.monotonic()
    feats, cfg = gen_synthetic("clique4_array", 1, 0, Config.from_rules(10, 10))
    layout = tmp_path / "motif.json"
    emit_layout(feats, cfg, layout)
    base_out = tmp_path / "base.json"
    dec_out = tmp_path / "dec.json"
    assert run_cli(["baseline-lelele", str(layout), "--out", str(base_out)]) == 0
    assert run_cli(["decompose", str(layout), "--out", str(dec_out)]) == 0
    base = json.loads(base_out.read_text())
    dec = json.loads(dec_out.read_text())
    elapsed = time.monotonic() - start
    ok = (
        len(base["conflicts"]) == 1
        and base["cost"] == "1"
        and len(dec["conflicts"]) == 0
        and dec["cost"] == "0"
        and len(dec["selected_cuts"]) >= 2
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"three-mask baseline 1 conflict vs trim-cut flow 0 conflicts with "
        f"{len(dec['selected_cuts'])} cuts in {elapsed:.2f}s",
    )


def _pinned_triangle(corrected: bool):
    from leleec.endcut import EDGE_EDGE, EndCutCandidate, EndCutGraph
    from leleec.geometry import Polygon, Rect
    from leleec.layout_graph import LayoutGraph, Segment
    from leleec.ilp_model import ProblemGraph, build_model_from_problem

    vertices = [
        Segment(id=i, feature=i, shape=Polygon.of((200 * i, 0, 200 * i + 10, 40)))
        for i in range(3)
    ]
    lg = LayoutGraph(
        vertices=vertices,
        conflict_edges={(0, 1): 0, (0, 2): 1, (1, 2): 2},
        stitch_edges={},
    )
    cands = [
        EndCutCandidate(0, 0, 1, Rect(0, 0, 10, 10), EDGE_EDGE),
        EndCutCandidate(1, 0, 2, Rect(20, 0, 30, 10), EDGE_EDGE),
        EndCutCandidate(2, 1, 2, Rect(40, 0, 50, 10), EDGE_EDGE),
    ]
    eg = EndCutGraph(nodes=cands, solid_edges={(0, 1), (0, 2)}, dash_edges={(1, 2)})
    model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg, corrected=corrected)
    x = [var(model, "color", (i,)) for i in range(3)]
    for a, b in ((x[0], x[1]), (x[1], x[2])):
        model.add_constraint(f"pin_lo_{a}_{b}", [(a, 1), (b, -1)], 0)
        model.add_constraint(f"pin_hi_{a}_{b}", [(b, 1), (a, -1)], 0)
    return model


def test_criterion_2_merge_correction():
    start = time.monotonic()
    _, cor = solve(_pinned_triangle(corrected=True))
    _, unc = solve(_pinned_triangle(corrected=False))
    # the same contrast realized geometrically: a rail forces the two tall
    # wires onto one mask
    feats, cfg = gamma_quad()
    lg, eg = build_graphs(feats, cfg)
    pg = ProblemGraph.from_layout(lg, eg)
    _, geo_cor = solve(build_model_from_problem(pg, eg, corrected=True))
    _, geo_unc = solve(build_model_from_problem(pg, eg, corrected=False))
    elapsed = time.monotonic() - start
    ok = (
        cor.best_cost == 0
        and unc.best_cost == 1
        and geo_cor.best_cost == 0
        and geo_unc.best_cost == 1
        and elapsed < 1.0
    )
    _report(
        2,
        ok,
        f"merge-corrected model 0 vs uncorrected 1 (graph and geometric forms) "
        f"in {elapsed:.2f}s",
    )


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    mismatches = 0
    seed = 0
    while checked < 500:
        seed += 1
        rng = random.Random(seed)
        feats = random_layout(rng, rng.randrange(2, 6))
        if len(feats) < 2:
            continue
        cfg = random_config(rng)
        lg, eg = build_graphs(feats, cfg)
        model = build_model_from_problem(ProblemGraph.from_layout(lg, eg), eg, alpha=cfg.alpha)
        if not (0 < model.num_vars <= BRUTE_FORCE_CAP):
            continue
        _, stats = solve(model)
        _, expected = brute_force(model)
        if stats.best_cost != expected:
            mismatches += 1
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked >= 500 and mismatches == 0 and elapsed < 60.0
    _report(
        3,
        ok,
        f"branch-and-bound equals exhaustive enumeration on {checked} models "
        f"({mismatches} mismatches) in {elapsed:.1f}s",
    )


def test_criterion_4_speedup_optimality():
    start = time.monotonic()
    checked = 0
    mismatches = 0
    seed = 0
    while checked < 200:
        seed += 1
        rng = random.Random(20_000 + seed)
        feats = random_layout(rng, rng.randrange(2, 13), box=260)
        if not feats:
            continue
        cfg = random_config(rng)
        fast = decompose(feats, cfg)
        mono, _ = solve_monolithic(feats, cfg)
        if fast.cost != mono.cost:
            mismatches += 1
        checked += 1
    # the even ring that the removed end-cut pre-selection turned odd
    feats, cfg = preselect_ring()
    ring = decompose(feats, cfg).cost
    elapsed = time.monotonic() - start
    ok = checked >= 200 and mismatches == 0 and ring == 0 and elapsed < 120.0
    _report(
        4,
        ok,
        f"components+bridges preserved optimality on {checked - mismatches}/{checked} "
        f"instances and the 8-ring costs {ring}, in {elapsed:.1f}s",
    )


def test_criterion_5_stitch_benefit():
    start = time.monotonic()
    strict = False
    for name, feats, cfg in _corpus():
        cfg_s = Config.from_rules(
            cfg.w_min, cfg.s_min, dis_m=cfg.dis_m, dis_c=cfg.dis_c, w_th=cfg.w_th,
            alpha=Fraction(1, 10), merge_gap=cfg.merge_gap, enable_stitch=True,
        )
        cfg_n = Config.from_rules(
            cfg.w_min, cfg.s_min, dis_m=cfg.dis_m, dis_c=cfg.dis_c, w_th=cfg.w_th,
            alpha=Fraction(1, 10), merge_gap=cfg.merge_gap, enable_stitch=False,
        )
        stitched = decompose(feats, cfg_s).cost
        without = decompose(feats, cfg_n).cost
        assert stitched <= without, f"{name}: {stitched} > {without}"
        if (without, stitched) == (1, Fraction(1, 10)):
            strict = True
    elapsed = time.monotonic() - start
    ok = strict and elapsed < 30.0
    _report(
        5,
        ok,
        f"stitching never increased cost on the corpus and the 5-ring drops "
        f"1 -> 0.1 exactly, in {elapsed:.1f}s",
    )


def test_criterion_6_solution_validity():
    start = time.monotonic()
    count = 0
    for name, feats, cfg in _corpus():
        lg, eg = build_graphs(feats, cfg)
        res = decompose_graphs(lg, eg, cfg)
        obj = result_to_obj(res, lg, eg, cfg)
        round_tripped = json.loads(dump_json(obj), parse_float=Fraction)
        problems = verify_result(feats, cfg, round_tripped)
        assert problems == [], f"{name}: {problems}"
        count += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    _report(6, ok, f"verify confirmed all {count} corpus results in {elapsed:.1f}s")


def test_criterion_7_determinism():
    start = time.monotonic()
    for name, feats, cfg in _corpus():
        snapshots = []
        for _ in range(2):
            lg, eg = build_graphs(feats, cfg)
            res = decompose_graphs(lg, eg, cfg)
            obj = result_to_obj(res, lg, eg, cfg)
            colors = {v: c + 1 for v, c in res.colors.items()}
            snapshots.append(
                (dump_json(obj), render_svg(lg, colors, res.trim_rects, res.conflicts))
            )
        assert snapshots[0] == snapshots[1], f"{name}: outputs differ between runs"
    elapsed = time.monotonic() - start
    _report(7, True, f"two corpus runs produced byte-identical files in {elapsed:.1f}s")


def test_criterion_8_scalability():
    start = time.monotonic()
    feats, cfg = gen_synthetic("grid", 32, 0, Config.from_rules(10, 10))
    assert len(feats) >= 1000
    res = decompose(feats, cfg)
    elapsed = time.monotonic() - start
    ok = (
        res.stats["proven_optimal"]
        and res.stats["sub_problems"] >= 10
        and elapsed <= 60.0
    )
    _report(
        8,
        ok,
        f"{len(feats)}-feature grid solved to proven optimality in {elapsed:.1f}s "
        f"across {res.stats['sub_problems']} sub-problems (cost {res.cost})",
    )
