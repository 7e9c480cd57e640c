from __future__ import annotations

import random
from fractions import Fraction

from leleec.decomposer import (
    build_graphs,
    component_endcut_graphs,
    decompose,
    preselect_endcuts,
    solve_monolithic,
    split_bridges,
    split_components,
    validate_result,
)
from leleec.ilp_model import ProblemGraph, build_model_from_problem
from leleec.layout_graph import Config
from leleec.synth import gen_synthetic

from conftest import (
    clique4_motif,
    gamma_quad,
    make_features,
    preselect_ring,
    random_config,
    random_layout,
    stitch_ring,
)

CFG_NS = Config.from_rules(10, 10, enable_stitch=False)


def test_two_distant_features_two_subproblems():
    feats = make_features([(0, 0, 10, 40)], [(200, 0, 210, 40)])
    lg, eg = build_graphs(feats, CFG_NS)
    subs = split_components(lg, eg)
    assert [s.vertex_ids for s in subs] == [[0], [1]]


def test_endcut_coupling_prevents_component_split():
    # two conflict-free-of-each-other wire pairs whose cuts still conflict
    # under a wide dis_c: the exclusion row ties the components together
    cfg = Config.from_rules(10, 10, w_th=10, dis_c=200, enable_stitch=False)
    feats = make_features(
        [(0, 0, 10, 100)],
        [(20, 0, 30, 100)],
        [(120, 0, 130, 100)],
        [(140, 0, 150, 100)],
    )
    lg, eg = build_graphs(feats, cfg)
    assert sorted(lg.conflict_edges) == [(0, 1), (2, 3)]
    assert eg.solid_edges == {(0, 1)}  # cuts 110 apart, within dis_c = 200
    subs = split_components(lg, eg)
    assert len(subs) == 1


def test_unrelated_cut_components_do_split():
    cfg = Config.from_rules(10, 10, w_th=10, enable_stitch=False)
    feats = make_features(
        [(0, 0, 10, 100)],
        [(20, 0, 30, 100)],
        [(200, 0, 210, 100)],
        [(220, 0, 230, 100)],
    )
    lg, eg = build_graphs(feats, cfg)
    assert eg.solid_edges == set() and eg.dash_edges == set()
    subs = split_components(lg, eg)
    assert len(subs) == 2


def test_path_splits_into_clean_bridges():
    feats = make_features([(0, 0, 10, 40)], [(30, 0, 40, 40)], [(60, 0, 70, 40)])
    res = decompose(feats, CFG_NS)
    assert res.cost == 0
    assert res.stats["sub_problems"] >= 2
    assert res.colors[0] != res.colors[1] and res.colors[1] != res.colors[2]


def test_cycle_has_no_bridges():
    # triangle of stubs: no bridges, one piece
    feats = make_features([(0, 0, 10, 40)], [(30, 0, 40, 40)], [(14, 60, 26, 70)])
    lg, eg = build_graphs(feats, CFG_NS)
    subs = split_components(lg, eg)
    assert len(subs) == 1
    pieces, bridges = split_bridges(subs[0], eg)
    assert bridges == [] and len(pieces) == 1


def test_bridge_with_candidate_is_not_cut():
    cfg = Config.from_rules(10, 10, w_th=10, enable_stitch=False)
    feats = make_features([(0, 0, 10, 60)], [(30, 0, 40, 60)])
    lg, eg = build_graphs(feats, cfg)
    subs = split_components(lg, eg)
    pieces, bridges = split_bridges(subs[0], eg)
    assert bridges == [] and len(pieces) == 1


def test_bridge_handling_never_silently_ignores_conflicts():
    for seed in range(30):
        rng = random.Random(7000 + seed)
        feats = random_layout(rng, rng.randrange(3, 10), box=260)
        if not feats:
            continue
        cfg = random_config(rng)
        res = decompose(feats, cfg)  # validate_result inside raises on a miss
        lg, eg = build_graphs(feats, cfg)
        validate_result(res, lg, eg)


def test_sliced_endcut_graph_builds_the_full_graph_models():
    layouts = [gen_synthetic("clique4_array", 6, 3, Config.from_rules(10, 10))]
    for seed in range(40):
        rng = random.Random(4000 + seed)
        feats = random_layout(rng, rng.randrange(4, 24), box=300)
        cfg = Config.from_rules(
            10, 10, w_th=rng.choice([10, 12]), dis_c=rng.choice([50, 120]),
            merge_gap=rng.choice([10, 40]), enable_stitch=rng.random() < 0.5,
        )
        layouts.append((feats, cfg))
    sliced_away = 0
    for feats, cfg in layouts:
        lg, eg = build_graphs(feats, cfg)
        comps = split_components(lg, eg)
        slices = component_endcut_graphs(lg, eg, comps)
        assert len(slices) == len(comps)
        assert set().union(*(s.solid_edges for s in slices)) == eg.solid_edges
        assert set().union(*(s.dash_edges for s in slices)) == eg.dash_edges
        for comp, comp_eg in zip(comps, slices):
            assert comp_eg.nodes is eg.nodes
            sliced_away += len(eg.solid_edges) - len(comp_eg.solid_edges)
            pre = preselect_endcuts(comp, comp_eg)
            assert pre == preselect_endcuts(comp, eg)
            for sub in (comp, pre):
                pieces, bridges = split_bridges(sub, comp_eg)
                assert (pieces, bridges) == split_bridges(sub, eg)
                for piece in pieces:
                    pg = ProblemGraph(dict(sorted(piece.rep.items())), piece.conflict_edges, piece.stitch_edges)
                    kw = dict(with_stitch=cfg.enable_stitch, alpha=cfg.alpha)
                    m_slice = build_model_from_problem(pg, comp_eg, **kw)
                    m_full = build_model_from_problem(pg, eg, **kw)
                    assert m_slice.variables == m_full.variables
                    assert m_slice.constraints == m_full.constraints
                    assert m_slice.objective == m_full.objective
    assert sliced_away > 0


# ---- pre-selection


def test_isolated_pair_contracts_to_zero_cost():
    cfg = Config.from_rules(10, 10, w_th=10, enable_stitch=False, enable_preselect=True)
    feats = make_features([(0, 0, 10, 60)], [(30, 0, 40, 60)])
    lg, eg = build_graphs(feats, cfg)
    subs = split_components(lg, eg)
    contracted = preselect_endcuts(subs[0], eg)
    assert len(set(contracted.rep.values())) == 1
    res = decompose(feats, cfg)
    assert res.cost == 0 and res.selected_cuts == {0}


def test_candidate_with_solid_partner_not_preselected():
    feats, cfg = clique4_motif()
    lg, eg = build_graphs(feats, cfg)
    assert eg.solid_edges  # every candidate has at least one exclusion here
    subs = split_components(lg, eg)
    touched = {c for e in eg.solid_edges for c in e}
    contracted = preselect_endcuts(subs[0], eg)
    if set(c.id for c in eg.nodes) <= touched:
        assert contracted.rep == subs[0].rep  # nothing contracted


def test_preselect_counterexample_ring():
    """Contracting the only candidate's edge flips the 8-ring parity.

    This is the documented finding behind enable_preselect defaulting to
    off: pre-selection is not optimality-preserving in general.
    """
    feats, cfg = preselect_ring()
    lg, eg = build_graphs(feats, cfg)
    ring_edges = sorted(lg.conflict_edges)
    assert len(ring_edges) == 8 and len(eg.nodes) == 1
    assert eg.solid_edges == set()

    res_off = decompose(feats, cfg)
    assert res_off.cost == 0

    cfg_on = Config.from_rules(10, 10, enable_stitch=False, enable_preselect=True)
    res_on = decompose(feats, cfg_on)
    assert res_on.cost == 1  # strictly worse than the true optimum


def test_preselect_never_beats_optimum():
    for seed in range(40):
        rng = random.Random(9000 + seed)
        feats = random_layout(rng, rng.randrange(2, 8), box=200)
        if not feats:
            continue
        cfg_on = Config.from_rules(10, 10, w_th=10, enable_stitch=False, enable_preselect=True)
        cfg_off = Config.from_rules(10, 10, w_th=10, enable_stitch=False)
        res_on = decompose(feats, cfg_on)
        res_off = decompose(feats, cfg_off)
        assert res_on.cost >= res_off.cost


# ---- whole pipeline


def test_motif_decomposes_conflict_free(motif):
    feats, cfg = motif
    res = decompose(feats, cfg)
    assert res.cost == 0 and len(res.selected_cuts) >= 2


def test_empty_layout():
    res = decompose([], CFG_NS)
    assert res.cost == 0 and res.colors == {} and res.trim_rects == []


def test_speedups_preserve_optimality_on_random_layouts():
    for seed in range(60):
        rng = random.Random(seed)
        feats = random_layout(rng, rng.randrange(2, 10), box=220)
        if not feats:
            continue
        cfg = random_config(rng)
        fast = decompose(feats, cfg)
        mono, _ = solve_monolithic(feats, cfg)
        assert fast.cost == mono.cost, f"seed {seed}"


def test_pipeline_determinism():
    feats, cfg = stitch_ring()
    a = decompose(feats, cfg)
    b = decompose(feats, cfg)
    assert a.colors == b.colors
    assert a.selected_cuts == b.selected_cuts
    assert a.conflicts == b.conflicts and a.stitches == b.stitches
    assert a.cost == b.cost
    assert [r.as_tuple() for r in a.trim_rects] == [r.as_tuple() for r in b.trim_rects]


def test_stitch_ring_costs():
    feats, cfg = stitch_ring()
    res = decompose(feats, cfg)
    assert res.cost == Fraction(1, 10)
    assert len(res.stitches) == 1 and res.conflicts == []
    cfg_ns = Config.from_rules(10, 10, enable_stitch=False)
    res_ns = decompose(feats, cfg_ns)
    assert res_ns.cost == 1


def test_gamma_quad_through_pipeline():
    feats, cfg = gamma_quad()
    res = decompose(feats, cfg)
    assert res.cost == 0
    assert res.selected_cuts == {0, 1}
    assert [r.as_tuple() for r in res.trim_rects] == [(10, 8, 28, 100)]
