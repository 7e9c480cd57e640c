from __future__ import annotations

import random

import pytest

from leleec.endcut import generate_candidates
from leleec.geometry import Polygon, polygon_distance
from leleec.layout_graph import (
    Config,
    Feature,
    DuplicateCandidate,
    OverlappingInput,
    annotate_end_cuts,
    build_conflict_edges,
    generate_stitch_candidates,
    reject_overlaps,
    stitch_coordinate,
)

from conftest import make_features, random_layout

CFG = Config.from_rules(10, 10)  # dis_m = 50


def edges_of(features, cfg=CFG):
    return set(build_conflict_edges(features, cfg).conflict_edges)


def test_two_rects_within_dis_m_conflict():
    feats = make_features([(0, 0, 10, 40)], [(20, 0, 30, 40)])  # gap = s_min
    assert edges_of(feats) == {(0, 1)}


def test_gap_exactly_dis_m_is_no_conflict():
    feats = make_features([(0, 0, 10, 40)], [(60, 0, 70, 40)])  # gap = 50 = dis_m
    assert edges_of(feats) == set()


# an eight-feature layout with a hand-derived conflict topology: three wires in
# a row, a crossing wire above, and a four-shape cluster to the right
GOLDEN_FEATURES = make_features(
    [(0, 0, 10, 60)],
    [(30, 0, 40, 60)],
    [(60, 0, 70, 60)],
    [(0, 80, 40, 90)],
    [(90, 0, 100, 60)],
    [(120, 40, 160, 50)],
    [(120, 0, 130, 20)],
    [(150, 0, 160, 20)],
)
GOLDEN_EDGES = {
    (0, 1), (1, 2), (0, 3), (1, 3), (2, 3), (2, 4),
    (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
}


def test_golden_topology():
    assert edges_of(GOLDEN_FEATURES) == GOLDEN_EDGES


def test_overlapping_features_rejected():
    feats = make_features([(0, 0, 10, 40)], [(5, 5, 30, 30)])
    with pytest.raises(OverlappingInput):
        build_conflict_edges(feats, CFG)


def test_touching_features_rejected():
    feats = make_features([(0, 0, 10, 40)], [(10, 0, 30, 30)])
    with pytest.raises(OverlappingInput):
        build_conflict_edges(feats, CFG)


def test_grid_index_matches_brute_force():
    limit = CFG.dis_m * CFG.dis_m
    sizes = [200] + [None] * 24
    for seed in range(25):
        rng = random.Random(seed)
        n = sizes[seed] or rng.randrange(5, 40)
        feats = random_layout(rng, n, box=400 if n < 100 else 1600)
        got = edges_of(feats)
        expected = set()
        for i in range(len(feats)):
            for j in range(i + 1, len(feats)):
                d = polygon_distance(feats[i].shape, feats[j].shape)
                if 0 < d < limit:
                    expected.add((i, j))
        assert got == expected
    assert len(feats) > 0


def test_reject_overlaps_names_the_pair_the_conflict_build_rejects():
    raised = 0
    for seed in range(60):
        rng = random.Random(600 + seed)
        feats = []
        for i in range(rng.randrange(2, 30)):
            x, y = rng.randrange(0, 300), rng.randrange(0, 300)
            feats.append(Feature(i, Polygon.of((x, y, x + rng.randrange(5, 60), y + rng.randrange(5, 60)))))
        try:
            build_conflict_edges(feats, CFG)
        except OverlappingInput as exc:
            raised += 1
            with pytest.raises(OverlappingInput, match=f"^{exc}$"):
                reject_overlaps(feats, CFG)
        else:
            reject_overlaps(feats, CFG)
    assert 0 < raised < 60


def test_vertex_count_equals_feature_count_without_stitching():
    g = build_conflict_edges(GOLDEN_FEATURES, CFG)
    assert len(g.vertices) == len(GOLDEN_FEATURES)
    assert [v.id for v in g.vertices] == [f.id for f in GOLDEN_FEATURES]


# ---- stitch candidate generation


def test_isolated_feature_is_never_split():
    feats = make_features([(0, 0, 200, 10)])
    g0 = build_conflict_edges(feats, CFG)
    g = generate_stitch_candidates(feats, g0, CFG)
    assert len(g.vertices) == 1
    assert g.stitch_edges == set()


def test_left_half_conflict_splits_at_projection_boundary():
    feats = make_features([(0, 0, 100, 10)], [(0, 30, 40, 40)])
    g0 = build_conflict_edges(feats, CFG)
    assert set(g0.conflict_edges) == {(0, 1)}
    g = generate_stitch_candidates(feats, g0, CFG)
    wire_segments = [s for s in g.vertices if s.feature == 0]
    # neighbor extent [0,40] dilated by dis_m covers [-50,90]; the uncovered
    # tail [90,100] is one w_min-wide slot, stitched at its midpoint
    assert len(wire_segments) == 2
    bounds = sorted(s.shape.bbox.as_tuple() for s in wire_segments)
    assert bounds == [(0, 0, 95, 10), (95, 0, 100, 10)]
    assert len(g.stitch_edges) == 1
    (u, v) = next(iter(g.stitch_edges))
    assert stitch_coordinate(g, u, v) == ("horizontal", 95)


def test_fully_covered_feature_is_one_segment():
    feats = make_features([(0, 0, 10, 40)], [(20, 0, 30, 40)])
    g0 = build_conflict_edges(feats, CFG)
    g = generate_stitch_candidates(feats, g0, CFG)
    assert len(g.vertices) == 2
    assert g.stitch_edges == set()


def _stitched(features, cfg=CFG):
    g0 = build_conflict_edges(features, cfg)
    return g0, generate_stitch_candidates(features, g0, cfg)


def test_segments_tile_features():
    feats = make_features(
        [(0, 0, 300, 10)],
        [(0, 30, 10, 70)],
        [(290, 30, 300, 70)],
    )
    g0, g = _stitched(feats)
    for f in feats:
        segs = [s for s in g.vertices if s.feature == f.id]
        assert sum(s.shape.area() for s in segs) == f.shape.area()
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                assert polygon_distance(segs[i].shape, segs[j].shape) == 0


def test_stitch_edges_join_abutting_segments_of_one_feature():
    feats = make_features(
        [(0, 0, 300, 10)],
        [(0, 30, 10, 70)],
        [(290, 30, 300, 70)],
    )
    _, g = _stitched(feats)
    assert g.stitch_edges
    for u, v in g.stitch_edges:
        assert g.vertices[u].feature == g.vertices[v].feature
        axis, coord = stitch_coordinate(g, u, v)  # raises if not abutting
        assert isinstance(coord, int)


def test_reexpressed_edges_project_back_to_feature_edges():
    for seed in range(10):
        rng = random.Random(100 + seed)
        feats = random_layout(rng, 8, box=250)
        g0, g = _stitched(feats)
        feature_pairs = set()
        for u, v in g.conflict_edges:
            fu, fv = g.vertices[u].feature, g.vertices[v].feature
            assert fu != fv
            feature_pairs.add((min(fu, fv), max(fu, fv)))
        assert feature_pairs == set(g0.conflict_edges)


def test_no_edge_between_segments_of_same_feature():
    feats = make_features([(0, 0, 300, 10)], [(0, 30, 10, 70)], [(290, 30, 300, 70)])
    _, g = _stitched(feats)
    for u, v in g.conflict_edges:
        assert g.vertices[u].feature != g.vertices[v].feature
    assert not (set(g.conflict_edges) & g.stitch_edges)


# ---- end-cut annotation


def test_annotate_edge_edge_candidate():
    feats, cfg = make_features([(0, 0, 10, 60)], [(30, 0, 40, 60)]), Config.from_rules(10, 10, w_th=10)
    g = build_conflict_edges(feats, cfg)
    cands = generate_candidates(feats, sorted(g.conflict_edges), cfg)
    g = annotate_end_cuts(g, cands)
    assert g.conflict_edges[(0, 1)] == 0


def test_width_forbidden_candidate_leaves_edge_unannotated():
    # facing run of 40 < w_th of 50: the candidate is forbidden
    feats = make_features([(0, 0, 10, 40)], [(20, 0, 30, 40)])
    g = build_conflict_edges(feats, CFG)
    cands = generate_candidates(feats, sorted(g.conflict_edges), CFG)
    assert cands == []
    g = annotate_end_cuts(g, cands)
    assert g.conflict_edges[(0, 1)] is None


def test_golden_annotation():
    cfg = Config.from_rules(10, 10, w_th=10)
    g = build_conflict_edges(GOLDEN_FEATURES, cfg)
    cands = generate_candidates(GOLDEN_FEATURES, sorted(g.conflict_edges), cfg)
    g = annotate_end_cuts(g, cands)
    by_pair = {
        (cands[c.id].feature_a, cands[c.id].feature_b): c.cut_rect.as_tuple() for c in cands
    }
    # every golden edge gets a candidate at w_th = w_min; spot-check geometry
    assert {e for e, c in g.conflict_edges.items() if c is not None} == GOLDEN_EDGES
    assert by_pair[(0, 1)] == (10, 0, 30, 60)
    assert by_pair[(2, 3)] == (40, 60, 60, 80)  # corner-corner bridge
    assert by_pair[(4, 5)] == (100, 40, 120, 50)


def test_duplicate_candidate_rejected():
    feats, cfg = make_features([(0, 0, 10, 60)], [(30, 0, 40, 60)]), Config.from_rules(10, 10, w_th=10)
    g = build_conflict_edges(feats, cfg)
    cands = generate_candidates(feats, sorted(g.conflict_edges), cfg)
    doubled = cands + [
        type(cands[0])(
            id=1, feature_a=0, feature_b=1, cut_rect=cands[0].cut_rect, kind=cands[0].kind
        )
    ]
    with pytest.raises(DuplicateCandidate):
        annotate_end_cuts(g, doubled)


def test_annotation_targets_nearest_segment_pair():
    # long wire split by stitches; the cut must land on the facing segments
    cfg = Config.from_rules(10, 10, w_th=10)
    feats = make_features(
        [(0, 0, 300, 10)],
        [(0, 30, 10, 70)],
        [(290, 30, 300, 70)],
    )
    g0 = build_conflict_edges(feats, cfg)
    cands = generate_candidates(feats, sorted(g0.conflict_edges), cfg)
    g = generate_stitch_candidates(feats, g0, cfg)
    g = annotate_end_cuts(g, cands)
    for cand in cands:
        annotated = [e for e, c in g.conflict_edges.items() if c == cand.id]
        assert len(annotated) == 1
        u, v = annotated[0]
        d = polygon_distance(g.vertices[u].shape, g.vertices[v].shape)
        pairs = [
            polygon_distance(g.vertices[a].shape, g.vertices[b].shape)
            for a, b in g.conflict_edges
            if {g.vertices[a].feature, g.vertices[b].feature}
            == {cand.feature_a, cand.feature_b}
        ]
        assert d == min(pairs)
