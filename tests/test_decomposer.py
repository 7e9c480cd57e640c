from __future__ import annotations

import random
from fractions import Fraction

from leleec.decomposer import (
    build_graphs,
    decompose,
    solve_monolithic,
    split_bridges,
    split_components,
    validate_result,
)
from leleec.ilp_model import build_model_from_problem
from leleec.layout_graph import Config
from leleec.synth import gen_synthetic

from conftest import (
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
    assert [list(s.vertex_reps) for s, _ in subs] == [[0], [1]]


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
    pieces, bridges = split_bridges(subs[0][0], eg)
    assert bridges == [] and len(pieces) == 1


def test_bridge_with_candidate_is_not_cut():
    cfg = Config.from_rules(10, 10, w_th=10, enable_stitch=False)
    feats = make_features([(0, 0, 10, 60)], [(30, 0, 40, 60)])
    lg, eg = build_graphs(feats, cfg)
    subs = split_components(lg, eg)
    pieces, bridges = split_bridges(subs[0][0], eg)
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
    sliced_away = cut_bridges = 0
    for feats, cfg in layouts:
        lg, eg = build_graphs(feats, cfg)
        pairs = split_components(lg, eg)
        comps = [comp for comp, _ in pairs]
        slices = [comp_eg for _, comp_eg in pairs]
        assert len(slices) == len(comps)
        assert set().union(*(s.solid_edges for s in slices)) == eg.solid_edges
        assert set().union(*(s.dash_edges for s in slices)) == eg.dash_edges
        assert sorted(v for comp in comps for v in comp.vertex_reps) == [s.id for s in lg.vertices]
        assert sorted(e for comp in comps for e in comp.conflict_edges) == sorted(lg.conflict_edges)
        for comp, comp_eg in zip(comps, slices):
            assert comp_eg.nodes is eg.nodes
            sliced_away += len(eg.solid_edges) - len(comp_eg.solid_edges)
            pieces, bridges = split_bridges(comp, comp_eg)
            assert (pieces, bridges) == split_bridges(comp, eg)
            # the pieces partition the component's vertices, and each of its
            # conflict edges is in exactly one piece or is a cut bridge
            assert sorted(v for p in pieces for v in p.vertex_reps) == sorted(comp.vertex_reps)
            placed = [e for p in pieces for e in p.conflict_edges] + bridges
            assert sorted(placed) == sorted(comp.conflict_edges)
            cut_bridges += len(bridges)
            for piece in pieces:
                kw = dict(with_stitch=cfg.enable_stitch, alpha=cfg.alpha)
                m_slice = build_model_from_problem(piece, comp_eg, **kw)
                m_full = build_model_from_problem(piece, eg, **kw)
                assert m_slice.variables == m_full.variables
                assert m_slice.constraints == m_full.constraints
                assert m_slice.objective == m_full.objective
    assert sliced_away > 0 and cut_bridges > 0


# ---- single-candidate layouts


def test_isolated_pair_contracts_to_zero_cost():
    """A lone candidate-annotated pair costs nothing: its one cut is selected."""
    cfg = Config.from_rules(10, 10, w_th=10, enable_stitch=False)
    feats = make_features([(0, 0, 10, 60)], [(30, 0, 40, 60)])
    res = decompose(feats, cfg)
    assert res.cost == 0 and res.selected_cuts == {0}


def test_preselect_counterexample_ring():
    """The even 8-ring whose only candidate sits on one ring edge costs 0.

    Contracting that edge, as the removed pre-selection did, turned the ring
    odd and cost one conflict.
    """
    feats, cfg = preselect_ring()
    lg, eg = build_graphs(feats, cfg)
    ring_edges = sorted(lg.conflict_edges)
    assert len(ring_edges) == 8 and len(eg.nodes) == 1
    assert eg.solid_edges == set()

    res = decompose(feats, cfg)
    assert res.cost == 0


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


def test_zero_time_limit_gives_valid_one_mask_pieces():
    # every piece times out before its first leaf and falls back to one mask
    # with every conflict charged; decompose validates the merged result
    for seed in range(30):
        rng = random.Random(seed)
        feats = random_layout(rng, rng.randrange(2, 10), box=220)
        if not feats:
            continue
        res = decompose(feats, random_config(rng), time_limit=0.0)
        assert res.stats["proven_optimal"] is False, f"seed {seed}"
        assert res.selected_cuts == set() and res.stitches == []
        assert res.cost == len(res.conflicts)


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
