from __future__ import annotations

import random

import leleec.endcut
from leleec.endcut import (
    CORNER_CORNER,
    EDGE_EDGE,
    EndCutCandidate,
    EndCutGraph,
    build_endcut_graph,
    gen_corner_corner,
    gen_edge_edge,
    generate_candidates,
)
from leleec.geometry import (
    Polygon,
    Rect,
    polygon_distance,
    rect_distance,
    rect_overlaps_polygon,
    rect_union_bbox,
)
from leleec.layout_graph import Config, Feature, build_conflict_edges
from leleec.synth import gen_synthetic

from conftest import make_features, random_layout


def F(fid, *rects):
    return Feature(fid, Polygon.of(*rects))


def test_edge_edge_projection_cut():
    cfg = Config.from_rules(10, 10, w_th=20)
    a, b = F(0, (0, 0, 10, 40)), F(1, (16, 10, 26, 50))
    cut = gen_edge_edge(a, b, cfg, [a, b])
    assert cut is not None and cut.as_tuple() == (10, 10, 16, 40)


def test_edge_edge_narrow_projection_forbidden():
    cfg = Config.from_rules(10, 10, w_th=20)
    a, b = F(0, (0, 0, 10, 40)), F(1, (16, 25, 26, 50))
    # projection [25,40] is 15 wide, below the 20 threshold
    assert gen_edge_edge(a, b, cfg, [a, b]) is None


def test_edge_edge_blocked_by_third_feature():
    cfg = Config.from_rules(10, 10, w_th=10)
    a, b = F(0, (0, 0, 10, 40)), F(1, (30, 0, 40, 40))
    blocker = F(2, (16, 10, 24, 30))
    assert gen_edge_edge(a, b, cfg, [a, b]) is not None
    assert gen_edge_edge(a, b, cfg, [a, b, blocker]) is None


def test_corner_corner_four_placements_minimal_area():
    cfg = Config.from_rules(10, 10, w_th=4)
    a, b = F(0, (0, 0, 10, 10)), F(1, (14, 14, 24, 24))
    cut = gen_corner_corner(a, b, cfg, [a, b])
    assert cut is not None and cut.as_tuple() == (10, 10, 14, 14)


def test_corner_corner_all_placements_blocked():
    cfg = Config.from_rules(10, 10, w_th=4)
    a, b = F(0, (0, 0, 10, 10)), F(1, (14, 14, 24, 24))
    blocker = F(2, (11, 10, 13, 16))  # sits inside the corner gap
    assert gen_corner_corner(a, b, cfg, [a, b, blocker]) is None


def test_corner_corner_symmetric_tie_breaks_to_smallest_lo():
    cfg = Config.from_rules(10, 10, w_th=4)
    # base rect between corners is 2 x 6: both x-thickened placements have
    # area 24 and tie; lexicographically smaller lo wins
    a, b = F(0, (0, 0, 10, 10)), F(1, (12, 16, 22, 26))
    cut = gen_corner_corner(a, b, cfg, [a, b])
    assert cut is not None
    assert cut.as_tuple() == (8, 10, 12, 16)


def test_corner_corner_far_corners_rejected():
    # conflict comes from an edge-edge run; nearest corners sit beyond dis_m
    cfg = Config.from_rules(10, 10)
    a = F(0, (0, 0, 10, 40))
    b = F(1, (-100, -30, 126, -20))
    cut = gen_corner_corner(a, b, cfg, [a, b])
    assert cut is None


def test_priority_edge_edge_then_corner_corner():
    cfg = Config.from_rules(10, 10, w_th=10)
    feats = make_features([(0, 0, 10, 60)], [(30, 0, 40, 60)])
    g = build_conflict_edges(feats, cfg)
    cands = generate_candidates(feats, sorted(g.conflict_edges), cfg)
    assert [c.kind for c in cands] == [EDGE_EDGE]
    # corner-corner is only attempted when edge-edge fails
    assert gen_edge_edge(feats[0], feats[1], cfg, feats) is not None


def test_candidate_interiors_clear_of_features():
    for seed in range(20):
        rng = random.Random(seed)
        feats = random_layout(rng, 8, box=200)
        cfg = Config.from_rules(10, 10, w_th=rng.choice([10, 12]))
        g = build_conflict_edges(feats, cfg)
        cands = generate_candidates(feats, sorted(g.conflict_edges), cfg)
        for cand in cands:
            for f in feats:
                assert not rect_overlaps_polygon(cand.cut_rect, f.shape)


def test_candidate_generation_translation_invariant():
    rng = random.Random(42)
    feats = random_layout(rng, 8, box=200)
    cfg = Config.from_rules(10, 10, w_th=10)
    g = build_conflict_edges(feats, cfg)
    cands = generate_candidates(feats, sorted(g.conflict_edges), cfg)
    dx, dy = 137, -59
    moved = [Feature(f.id, f.shape.translated(dx, dy)) for f in feats]
    g2 = build_conflict_edges(moved, cfg)
    cands2 = generate_candidates(moved, sorted(g2.conflict_edges), cfg)
    assert len(cands) == len(cands2)
    for c1, c2 in zip(cands, cands2):
        assert c1.cut_rect.translated(dx, dy) == c2.cut_rect
        assert (c1.feature_a, c1.feature_b, c1.kind) == (c2.feature_a, c2.feature_b, c2.kind)


# ---- end-cut graph


def _mk_cand(cid, fa, fb, rect):
    from leleec.endcut import EndCutCandidate

    return EndCutCandidate(id=cid, feature_a=fa, feature_b=fb, cut_rect=Rect.of(*rect), kind=EDGE_EDGE)


def test_far_cuts_unrelated():
    cfg = Config.from_rules(10, 10)
    feats = make_features([(0, 0, 10, 300)], [(20, 0, 30, 300)], [(40, 0, 50, 300)])
    cands = [
        _mk_cand(0, 0, 1, (10, 0, 20, 60)),
        _mk_cand(1, 1, 2, (30, 240, 40, 300)),
    ]
    eg = build_endcut_graph(cands, feats, cfg)
    # distance 180 >= dis_c and far beyond merge_gap
    assert eg.solid_edges == set() and eg.dash_edges == set()


def test_abutting_cuts_sharing_feature_are_dash():
    from conftest import gamma_quad

    feats, cfg = gamma_quad()
    g = build_conflict_edges(feats, cfg)
    cands = generate_candidates(feats, sorted(g.conflict_edges), cfg)
    eg = build_endcut_graph(cands, feats, cfg)
    assert [(c.feature_a, c.feature_b) for c in cands] == [(1, 3), (2, 3)]
    assert cands[0].cut_rect.as_tuple() == (10, 8, 14, 100)
    assert cands[1].cut_rect.as_tuple() == (24, 8, 28, 100)
    # ten apart flanking the shared middle wire: mergeable, not exclusive
    assert eg.dash_edges == {(0, 1)}
    assert eg.solid_edges == set()


def test_close_cuts_without_shared_feature_are_solid():
    cfg = Config.from_rules(10, 10)
    feats = make_features(
        [(0, 0, 10, 100)], [(20, 0, 30, 100)], [(0, 120, 10, 220)], [(20, 120, 30, 220)]
    )
    cands = [
        _mk_cand(0, 0, 1, (10, 0, 20, 100)),
        _mk_cand(1, 2, 3, (10, 120, 20, 220)),
    ]
    eg = build_endcut_graph(cands, feats, cfg)
    # 20 apart: within dis_c = 50, no shared feature
    assert eg.solid_edges == {(0, 1)}
    assert eg.dash_edges == set()


def test_dash_requires_clear_merged_bbox():
    cfg = Config.from_rules(10, 10)
    feats = make_features(
        [(0, 0, 10, 100)],
        [(20, 0, 30, 100)],
        [(40, 0, 50, 100)],
        [(12, 104, 38, 114)],  # non-participant above the merged span
    )
    cands = [
        _mk_cand(0, 0, 1, (10, 60, 20, 108)),
        _mk_cand(1, 1, 2, (30, 60, 40, 108)),
    ]
    eg = build_endcut_graph(cands, feats, cfg)
    # cuts share feature 1 and are merge_gap apart, but the union bbox
    # overlaps feature 3 which is not a participant
    assert (0, 1) in eg.solid_edges
    assert eg.dash_edges == set()


def test_classification_is_a_partition():
    for seed in range(15):
        rng = random.Random(300 + seed)
        feats = random_layout(rng, 8, box=180)
        cfg = Config.from_rules(10, 10, w_th=10)
        g = build_conflict_edges(feats, cfg)
        cands = generate_candidates(feats, sorted(g.conflict_edges), cfg)
        eg = build_endcut_graph(cands, feats, cfg)
        assert not (eg.solid_edges & eg.dash_edges)
        merge_sq = cfg.merge_gap**2
        disc_sq = cfg.dis_c**2
        for i in range(len(cands)):
            for j in range(i + 1, len(cands)):
                pair = (i, j)
                d = rect_distance(cands[i].cut_rect, cands[j].cut_rect)
                in_solid = pair in eg.solid_edges
                in_dash = pair in eg.dash_edges
                assert not (in_solid and in_dash)
                if in_dash:
                    assert d <= merge_sq
                    shared = {cands[i].feature_a, cands[i].feature_b} & {
                        cands[j].feature_a,
                        cands[j].feature_b,
                    }
                    assert shared
                if not in_dash:
                    # exactly the distance rule decides solid vs no edge
                    assert in_solid == (d < disc_sq)


# ---- the indexed front end against its all-pairs, all-obstacle references


def all_obstacle_candidates(features, pairs, cfg):
    """generate_candidates with every feature tested as an obstacle."""
    out = []
    for fa, fb in sorted(pairs):
        a, b = features[fa], features[fb]
        rect, kind = gen_edge_edge(a, b, cfg, features), EDGE_EDGE
        if rect is None:
            rect, kind = gen_corner_corner(a, b, cfg, features), CORNER_CORNER
        if rect is not None:
            out.append(EndCutCandidate(len(out), fa, fb, rect, kind))
    return out


def all_pairs_endcut_graph(candidates, features, cfg):
    """build_endcut_graph over every candidate pair, every feature an obstacle."""
    solid, dash = set(), set()
    for i, p in enumerate(candidates):
        for q in candidates[i + 1 :]:
            d = rect_distance(p.cut_rect, q.cut_rect)
            participants = {p.feature_a, p.feature_b, q.feature_a, q.feature_b}
            if len(participants) < 4 and d <= cfg.merge_gap**2:
                bbox = rect_union_bbox(p.cut_rect, q.cut_rect)
                if not any(
                    rect_overlaps_polygon(bbox, f.shape) for f in features if f.id not in participants
                ):
                    dash.add((p.id, q.id))
                    continue
            if d < cfg.dis_c**2:
                solid.add((p.id, q.id))
    return EndCutGraph(nodes=list(candidates), solid_edges=solid, dash_edges=dash)


def _random_polygons(rng, n, box):
    """Up to n non-touching wires and L-shapes."""
    shapes = []
    for _ in range(20 * n):
        if len(shapes) == n:
            break
        w, length = rng.choice([8, 10, 12]), rng.randrange(10, 90)
        x, y = rng.randrange(0, box), rng.randrange(0, box)
        rects = [(x, y, x + w, y + length) if rng.random() < 0.5 else (x, y, x + length, y + w)]
        if rng.random() < 0.3:
            lo_x, lo_y, hi_x, hi_y = rects[0]
            rects.append((hi_x, lo_y, hi_x + rng.randrange(10, 60), lo_y + w))
        p = Polygon.of(*rects)
        if all(polygon_distance(p, s) > 0 for s in shapes):
            shapes.append(p)
    return [Feature(i, p) for i, p in enumerate(shapes)]


def test_indexed_front_end_matches_all_pairs_reference():
    totals = {"corner": 0, "solid": 0, "dash": 0, "wide_merge": 0, "wide_cut": 0}
    for seed in range(40):
        rng = random.Random(800 + seed)
        feats = _random_polygons(rng, rng.randrange(4, 40), box=rng.choice([150, 300, 600]))
        cfg = Config.from_rules(
            10,
            10,
            dis_m=rng.choice([30, 50]),
            w_th=rng.choice([4, 10, 12, 50, 80]),
            dis_c=rng.choice([20, 50, 90]),
            merge_gap=rng.choice([5, 10, 40, 120]),
        )
        pairs = sorted(build_conflict_edges(feats, cfg).conflict_edges)
        cands = generate_candidates(feats, pairs, cfg)
        assert cands == all_obstacle_candidates(feats, pairs, cfg), f"seed {seed}"
        # keys follow list order, not ids, so a shuffled list must agree too
        for order in (cands, rng.sample(cands, len(cands))):
            eg = build_endcut_graph(order, feats, cfg)
            ref = all_pairs_endcut_graph(order, feats, cfg)
            assert (eg.solid_edges, eg.dash_edges) == (ref.solid_edges, ref.dash_edges), f"seed {seed}"
        totals["corner"] += sum(c.kind == CORNER_CORNER for c in cands)
        totals["solid"] += len(eg.solid_edges)
        totals["dash"] += len(eg.dash_edges)
        totals["wide_merge"] += len(eg.dash_edges) * (cfg.merge_gap > cfg.dis_c)
        totals["wide_cut"] += len(cands) * (cfg.w_th > cfg.dis_m)
    assert all(totals.values()), totals


def test_cut_pairs_examined_grow_linearly_with_motifs(monkeypatch):
    """A count of the pairs build_endcut_graph classifies, not a timing."""
    examined = [0]
    distance = leleec.endcut.rect_distance

    def counted(a, b):
        examined[0] += 1
        return distance(a, b)

    monkeypatch.setattr(leleec.endcut, "rect_distance", counted)
    counts = []
    for motifs in (64, 128):
        feats, cfg = gen_synthetic("clique4_array", motifs, 0, Config.from_rules(10, 10))
        cands = generate_candidates(feats, sorted(build_conflict_edges(feats, cfg).conflict_edges), cfg)
        examined[0] = 0
        build_endcut_graph(cands, feats, cfg)
        counts.append(examined[0])
        assert examined[0] < len(cands) * (len(cands) - 1) // 20
    assert 0 < counts[1] <= 2.1 * counts[0], counts
