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
from leleec.decomposer import build_graphs
from leleec.geometry import (
    Polygon,
    Rect,
    near_pairs,
    polygon_distance,
    rect_distance,
    rect_overlaps_polygon,
    rect_union_bbox,
    rects_overlap,
)
from leleec.layout_graph import Config, Feature, build_conflict_edges, feature_index
from leleec.synth import gen_synthetic

from conftest import make_features, random_layout


def F(fid, *rects):
    return Feature(fid, Polygon.of(*rects))


def _rects(*features):
    """The obstacle rects of the given features, as the kernels take them."""
    return [r for f in features for r in f.shape.rects]


def test_edge_edge_projection_cut():
    cfg = Config.from_rules(10, 10, w_th=20)
    a, b = F(0, (0, 0, 10, 40)), F(1, (16, 10, 26, 50))
    cut = gen_edge_edge(a, b, cfg, _rects(a, b))
    assert cut is not None and tuple(cut) == (10, 10, 16, 40)


def test_edge_edge_narrow_projection_forbidden():
    cfg = Config.from_rules(10, 10, w_th=20)
    a, b = F(0, (0, 0, 10, 40)), F(1, (16, 25, 26, 50))
    # projection [25,40] is 15 wide, below the 20 threshold
    assert gen_edge_edge(a, b, cfg, _rects(a, b)) is None


def test_edge_edge_blocked_by_third_feature():
    cfg = Config.from_rules(10, 10, w_th=10)
    a, b = F(0, (0, 0, 10, 40)), F(1, (30, 0, 40, 40))
    blocker = F(2, (16, 10, 24, 30))
    assert gen_edge_edge(a, b, cfg, _rects(a, b)) is not None
    assert gen_edge_edge(a, b, cfg, _rects(a, b, blocker)) is None


def test_corner_corner_four_placements_minimal_area():
    cfg = Config.from_rules(10, 10, w_th=4)
    a, b = F(0, (0, 0, 10, 10)), F(1, (14, 14, 24, 24))
    cut = gen_corner_corner(a, b, cfg, _rects(a, b))
    assert cut is not None and tuple(cut) == (10, 10, 14, 14)


def test_corner_corner_all_placements_blocked():
    cfg = Config.from_rules(10, 10, w_th=4)
    a, b = F(0, (0, 0, 10, 10)), F(1, (14, 14, 24, 24))
    blocker = F(2, (11, 10, 13, 16))  # sits inside the corner gap
    assert gen_corner_corner(a, b, cfg, _rects(a, b, blocker)) is None


def test_corner_corner_symmetric_tie_breaks_to_smallest_lo():
    cfg = Config.from_rules(10, 10, w_th=4)
    # base rect between corners is 2 x 6: both x-thickened placements have
    # area 24 and tie; lexicographically smaller lo wins
    a, b = F(0, (0, 0, 10, 10)), F(1, (12, 16, 22, 26))
    cut = gen_corner_corner(a, b, cfg, _rects(a, b))
    assert cut is not None
    assert tuple(cut) == (8, 10, 12, 16)


def test_corner_corner_far_corners_rejected():
    # conflict comes from an edge-edge run; nearest corners sit beyond dis_m
    cfg = Config.from_rules(10, 10)
    a = F(0, (0, 0, 10, 40))
    b = F(1, (-100, -30, 126, -20))
    cut = gen_corner_corner(a, b, cfg, _rects(a, b))
    assert cut is None


def test_priority_edge_edge_then_corner_corner():
    cfg = Config.from_rules(10, 10, w_th=10)
    feats = make_features([(0, 0, 10, 60)], [(30, 0, 40, 60)])
    index = feature_index(feats, cfg)
    g = build_conflict_edges(feats, cfg, index)
    cands = generate_candidates(feats, sorted(g.conflict_edges), cfg, index)
    assert [c.kind for c in cands] == [EDGE_EDGE]
    # corner-corner is only attempted when edge-edge fails
    assert gen_edge_edge(feats[0], feats[1], cfg, _rects(*feats)) is not None


def test_candidate_interiors_clear_of_features():
    for seed in range(20):
        rng = random.Random(seed)
        feats = random_layout(rng, 8, box=200)
        cfg = Config.from_rules(10, 10, w_th=rng.choice([10, 12]))
        index = feature_index(feats, cfg)
        g = build_conflict_edges(feats, cfg, index)
        cands = generate_candidates(feats, sorted(g.conflict_edges), cfg, index)
        for cand in cands:
            for f in feats:
                assert not rect_overlaps_polygon(cand.cut_rect, f.shape)


def _translated(r: Rect, dx: int, dy: int) -> Rect:
    return Rect(r.x_lo + dx, r.y_lo + dy, r.x_hi + dx, r.y_hi + dy)


def test_candidate_generation_translation_invariant():
    rng = random.Random(42)
    feats = random_layout(rng, 8, box=200)
    cfg = Config.from_rules(10, 10, w_th=10)
    index = feature_index(feats, cfg)
    g = build_conflict_edges(feats, cfg, index)
    cands = generate_candidates(feats, sorted(g.conflict_edges), cfg, index)
    dx, dy = 137, -59
    moved = [F(f.id, *(_translated(r, dx, dy) for r in f.shape.rects)) for f in feats]
    g2 = build_conflict_edges(moved, cfg, feature_index(moved, cfg))
    cands2 = generate_candidates(moved, sorted(g2.conflict_edges), cfg, feature_index(moved, cfg))
    assert len(cands) == len(cands2)
    for c1, c2 in zip(cands, cands2):
        assert _translated(c1.cut_rect, dx, dy) == c2.cut_rect
        assert (c1.feature_a, c1.feature_b, c1.kind) == (c2.feature_a, c2.feature_b, c2.kind)


# ---- end-cut graph


def _mk_cand(cid, fa, fb, rect):
    from leleec.endcut import EndCutCandidate

    return EndCutCandidate(id=cid, feature_a=fa, feature_b=fb, cut_rect=Rect(*rect), kind=EDGE_EDGE)


def test_far_cuts_unrelated():
    cfg = Config.from_rules(10, 10)
    feats = make_features([(0, 0, 10, 300)], [(20, 0, 30, 300)], [(40, 0, 50, 300)])
    cands = [
        _mk_cand(0, 0, 1, (10, 0, 20, 60)),
        _mk_cand(1, 1, 2, (30, 240, 40, 300)),
    ]
    eg = build_endcut_graph(cands, feats, cfg, feature_index(feats, cfg))
    # distance 180 >= dis_c and far beyond merge_gap
    assert eg.solid_edges == set() and eg.dash_edges == set()


def test_abutting_cuts_sharing_feature_are_dash():
    from conftest import gamma_quad

    feats, cfg = gamma_quad()
    index = feature_index(feats, cfg)
    g = build_conflict_edges(feats, cfg, index)
    cands = generate_candidates(feats, sorted(g.conflict_edges), cfg, index)
    eg = build_endcut_graph(cands, feats, cfg, index)
    assert [(c.feature_a, c.feature_b) for c in cands] == [(1, 3), (2, 3)]
    assert tuple(cands[0].cut_rect) == (10, 8, 14, 100)
    assert tuple(cands[1].cut_rect) == (24, 8, 28, 100)
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
    eg = build_endcut_graph(cands, feats, cfg, feature_index(feats, cfg))
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
    eg = build_endcut_graph(cands, feats, cfg, feature_index(feats, cfg))
    # cuts share feature 1 and are merge_gap apart, but the union bbox
    # overlaps feature 3 which is not a participant
    assert (0, 1) in eg.solid_edges
    assert eg.dash_edges == set()


def test_classification_is_a_partition():
    for seed in range(15):
        rng = random.Random(300 + seed)
        feats = random_layout(rng, 8, box=180)
        cfg = Config.from_rules(10, 10, w_th=10)
        index = feature_index(feats, cfg)
        g = build_conflict_edges(feats, cfg, index)
        cands = generate_candidates(feats, sorted(g.conflict_edges), cfg, index)
        eg = build_endcut_graph(cands, feats, cfg, index)
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


# ---- the indexed front end against its all-pairs, all-obstacle references,
# and the flat-rect kernels against the polygon-level kernels they replaced


def _rank(rect):
    return (rect.area(), rect.x_lo, rect.y_lo)


HORIZONTAL = "horizontal"
VERTICAL = "vertical"


def extent(rect, axis):
    """The rect's (low, high) coordinates along HORIZONTAL (x) or VERTICAL (y)."""
    return (rect.x_lo, rect.x_hi) if axis == HORIZONTAL else (rect.y_lo, rect.y_hi)


def projection_interval(a, b, axis):
    """Positive-length overlap of the two rects' extents along axis, else None."""
    a_lo, a_hi = extent(a, axis)
    b_lo, b_hi = extent(b, axis)
    lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
    if lo >= hi:
        return None
    return (lo, hi)


def test_projection_interval_vertical_overlap():
    assert projection_interval(Rect(0, 0, 10, 40), Rect(20, 10, 30, 50), VERTICAL) == (10, 40)


def test_projection_interval_point_touch_is_absent():
    assert projection_interval(Rect(0, 0, 10, 10), Rect(20, 10, 30, 20), VERTICAL) is None


def test_projection_interval_disjoint_is_absent():
    assert projection_interval(Rect(0, 0, 10, 10), Rect(20, 30, 30, 40), VERTICAL) is None


def polygon_edge_edge(a, b, cfg, obstacles=()):
    """gen_edge_edge tried in all four facing orientations of each rect pair,
    with extents read by axis name and obstacles tested as feature polygons."""
    best = None
    for ra in a.shape.rects:
        for rb in b.shape.rects:
            for lo_rect, hi_rect, gap_axis in (
                (ra, rb, HORIZONTAL),
                (rb, ra, HORIZONTAL),
                (ra, rb, VERTICAL),
                (rb, ra, VERTICAL),
            ):
                _, lo_end = extent(lo_rect, gap_axis)
                hi_start, _ = extent(hi_rect, gap_axis)
                gap = hi_start - lo_end
                if gap <= 0 or gap >= cfg.dis_m:
                    continue
                proj_axis = VERTICAL if gap_axis == HORIZONTAL else HORIZONTAL
                proj = projection_interval(lo_rect, hi_rect, proj_axis)
                if proj is None or proj[1] - proj[0] < cfg.w_th:
                    continue
                if gap_axis == HORIZONTAL:
                    cut = Rect(lo_end, proj[0], hi_start, proj[1])
                else:
                    cut = Rect(proj[0], lo_end, proj[1], hi_start)
                if any(rect_overlaps_polygon(cut, f.shape) for f in obstacles):
                    continue
                if best is None or _rank(cut) < _rank(best):
                    best = cut
    return best


def polygon_corner_corner(a, b, cfg, obstacles=()):
    """gen_corner_corner with the nearest corner pair found by a running
    comparison and obstacles tested as feature polygons."""
    if cfg.w_th >= cfg.dis_m:
        return None
    corners = leleec.endcut._polygon_corners
    best_pair, best_d = None, None
    for pa in corners(a):
        for pb in corners(b):
            d = (pa[0] - pb[0]) ** 2 + (pa[1] - pb[1]) ** 2
            if best_d is None or (d, pa, pb) < (best_d, *best_pair):
                best_d, best_pair = d, (pa, pb)
    if best_d >= cfg.dis_m * cfg.dis_m:
        return None
    (ax, ay), (bx, by) = best_pair
    x_lo, x_hi, y_lo, y_hi = min(ax, bx), max(ax, bx), min(ay, by), max(ay, by)
    best = None
    for axis in (HORIZONTAL, VERTICAL):
        lo, hi = (x_lo, x_hi) if axis == HORIZONTAL else (y_lo, y_hi)
        grow = cfg.w_th - (hi - lo)
        for s_lo, s_hi in [(lo, hi)] if grow <= 0 else [(lo - grow, hi), (lo, hi + grow)]:
            cut = Rect(s_lo, y_lo, s_hi, y_hi) if axis == HORIZONTAL else Rect(x_lo, s_lo, x_hi, s_hi)
            if min(cut.width, cut.height) < cfg.w_th:
                continue
            if any(rect_overlaps_polygon(cut, f.shape) for f in obstacles):
                continue
            if best is None or _rank(cut) < _rank(best):
                best = cut
    return best


def polygon_endcut_graph(candidates, features, cfg, index):
    """build_endcut_graph over the same sweep, with distances from
    rect_distance, the shared feature from a participant set and the merged
    bbox tested against the neighbours' polygons."""
    solid, dash = set(), set()
    for i, j in near_pairs([c.cut_rect for c in candidates], max(cfg.dis_c, cfg.merge_gap)):
        p, q = candidates[i], candidates[j]
        d = rect_distance(p.cut_rect, q.cut_rect)
        participants = {p.feature_a, p.feature_b, q.feature_a, q.feature_b}
        if len(participants) < 4 and d <= cfg.merge_gap**2:
            shared = p.feature_a if p.feature_a in (q.feature_a, q.feature_b) else p.feature_b
            bbox = rect_union_bbox(p.cut_rect, q.cut_rect)
            others = (features[k] for k in index.near[shared] if k not in participants)
            if not any(rect_overlaps_polygon(bbox, f.shape) for f in others):
                dash.add((p.id, q.id))
                continue
        if d < cfg.dis_c**2:
            solid.add((p.id, q.id))
    return EndCutGraph(nodes=list(candidates), solid_edges=solid, dash_edges=dash)


def all_obstacle_candidates(features, pairs, cfg):
    """generate_candidates from the polygon kernels, every feature an obstacle."""
    out = []
    for fa, fb in sorted(pairs):
        a, b = features[fa], features[fb]
        rect, kind = polygon_edge_edge(a, b, cfg, features), EDGE_EDGE
        if rect is None:
            rect, kind = polygon_corner_corner(a, b, cfg, features), CORNER_CORNER
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


def _rule_sets():
    """(seed, rng, features, config) of 40 seeded layouts, each with its own rules."""
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
        yield seed, rng, feats, cfg


def _motif_layouts():
    """Motif arrays under their own rules and with a wider merge gap."""
    for motifs, seed in ((1, 0), (8, 1), (32, 2)):
        feats, cfg = gen_synthetic("clique4_array", motifs, seed, Config.from_rules(10, 10))
        yield feats, cfg
        yield feats, Config.from_rules(10, 10, w_th=10, merge_gap=30, dis_c=20)


def test_indexed_front_end_matches_all_pairs_reference():
    totals = {"corner": 0, "solid": 0, "dash": 0, "wide_merge": 0, "wide_cut": 0}
    for seed, rng, feats, cfg in _rule_sets():
        index = feature_index(feats, cfg)
        pairs = sorted(build_conflict_edges(feats, cfg, index).conflict_edges)
        cands = generate_candidates(feats, pairs, cfg, index)
        assert cands == all_obstacle_candidates(feats, pairs, cfg), f"seed {seed}"
        # keys follow list order, not ids, so a shuffled list must agree too
        for order in (cands, rng.sample(cands, len(cands))):
            eg = build_endcut_graph(order, feats, cfg, index)
            ref = all_pairs_endcut_graph(order, feats, cfg)
            assert (eg.solid_edges, eg.dash_edges) == (ref.solid_edges, ref.dash_edges), f"seed {seed}"
        totals["corner"] += sum(c.kind == CORNER_CORNER for c in cands)
        totals["solid"] += len(eg.solid_edges)
        totals["dash"] += len(eg.dash_edges)
        totals["wide_merge"] += len(eg.dash_edges) * (cfg.merge_gap > cfg.dis_c)
        totals["wide_cut"] += len(cands) * (cfg.w_th > cfg.dis_m)
    assert all(totals.values()), totals


def test_flat_rect_kernels_match_polygon_kernels():
    """Every conflict pair's edge-edge and corner-corner cut, over the same
    obstacles, and the classification of the same swept pairs."""
    totals = {"edge": 0, "corner": 0, "solid": 0, "dash": 0}
    layouts = [(feats, cfg) for _, _, feats, cfg in _rule_sets()] + list(_motif_layouts())
    for k, (feats, cfg) in enumerate(layouts):
        index = feature_index(feats, cfg)
        pairs = sorted(build_conflict_edges(feats, cfg, index).conflict_edges)
        for fa, fb in pairs:
            a, b = feats[fa], feats[fb]
            near = [feats[n] for n in index.near[fa]]
            edge = gen_edge_edge(a, b, cfg, _rects(*near))
            corner = gen_corner_corner(a, b, cfg, _rects(*near))
            assert edge == polygon_edge_edge(a, b, cfg, near), (k, fa, fb)
            assert corner == polygon_corner_corner(a, b, cfg, near), (k, fa, fb)
            totals["edge"] += edge is not None
            totals["corner"] += corner is not None
        cands = generate_candidates(feats, pairs, cfg, index)
        eg = build_endcut_graph(cands, feats, cfg, index)
        ref = polygon_endcut_graph(cands, feats, cfg, index)
        assert (eg.solid_edges, eg.dash_edges) == (ref.solid_edges, ref.dash_edges), k
        totals["solid"] += len(eg.solid_edges)
        totals["dash"] += len(eg.dash_edges)
    assert all(totals.values()), totals


def test_classifying_a_subset_keeps_the_full_graph_edges_inside_it():
    layouts = [(feats, cfg) for _, _, feats, cfg in _rule_sets()] + list(_motif_layouts())
    rng = random.Random(5)
    kept = 0
    for k, (feats, cfg) in enumerate(layouts):
        lg, eg = build_graphs(feats, cfg)
        ids = range(len(eg.nodes))
        for size in sorted({0, min(1, len(ids)), len(ids) // 3, len(ids) // 2, len(ids)}):
            subset = set(rng.sample(ids, size)) | {len(ids), -1}  # unknown ids are ignored
            sub_lg, sub_eg = build_graphs(feats, cfg, subset)
            assert sub_lg == lg and sub_eg.nodes == eg.nodes, k
            for name in ("solid_edges", "dash_edges"):
                inside = {e for e in getattr(eg, name) if e[0] in subset and e[1] in subset}
                assert getattr(sub_eg, name) == inside, (k, size, name)
                kept += len(inside) * (size < len(ids))
    assert kept > 0


def test_cut_pairs_examined_grow_linearly_with_motifs(monkeypatch):
    """A count of the pairs build_endcut_graph classifies, not a timing."""
    examined = [0]
    sweep = leleec.endcut.near_pairs

    def counted(rects, gap):
        pairs = sweep(rects, gap)
        examined[0] += len(pairs)
        return pairs

    monkeypatch.setattr(leleec.endcut, "near_pairs", counted)
    counts = []
    for motifs in (64, 128):
        feats, cfg = gen_synthetic("clique4_array", motifs, 0, Config.from_rules(10, 10))
        index = feature_index(feats, cfg)
        pairs = sorted(build_conflict_edges(feats, cfg, index).conflict_edges)
        cands = generate_candidates(feats, pairs, cfg, index)
        examined[0] = 0
        build_endcut_graph(cands, feats, cfg, index)
        counts.append(examined[0])
        assert examined[0] < len(cands) * (len(cands) - 1) // 20
    assert 0 < counts[1] <= 2.1 * counts[0], counts


# ---- corner-corner cuts under rules that no corner shape can meet


def corner_corner_without_shortcut(a, b, cfg, obstacles=(), corners=None):
    """gen_corner_corner without its early return for w_th >= dis_m or its corner memo."""
    corners = leleec.endcut._polygon_corners
    pairs = [(pa, pb) for pa in corners(a) for pb in corners(b)]
    (ax, ay), (bx, by) = min(
        pairs, key=lambda p: ((p[0][0] - p[1][0]) ** 2 + (p[0][1] - p[1][1]) ** 2, *p)
    )
    if (ax - bx) ** 2 + (ay - by) ** 2 >= cfg.dis_m**2:
        return None
    x_lo, x_hi, y_lo, y_hi = min(ax, bx), max(ax, bx), min(ay, by), max(ay, by)
    shapes = []
    for horizontal, (lo, hi) in ((True, (x_lo, x_hi)), (False, (y_lo, y_hi))):
        grow = cfg.w_th - (hi - lo)
        for s_lo, s_hi in [(lo, hi)] if grow <= 0 else [(lo - grow, hi), (lo, hi + grow)]:
            coords = (s_lo, y_lo, s_hi, y_hi) if horizontal else (x_lo, s_lo, x_hi, s_hi)
            if coords[0] < coords[2] and coords[1] < coords[3]:
                shapes.append(Rect(*coords))
    fits = [
        cut
        for cut in shapes
        if min(cut.width, cut.height) >= cfg.w_th
        and not any(rects_overlap(cut, r) for r in obstacles)
    ]
    return min(fits, key=lambda r: (r.area(), r.x_lo, r.y_lo), default=None)


def _corner_layouts(w_ths):
    """Seeded wires and L-shapes, each with w_th drawn from w_ths."""
    for seed in range(30):
        rng = random.Random(900 + seed)
        feats = _random_polygons(rng, rng.randrange(4, 40), box=rng.choice([150, 300]))
        yield feats, Config.from_rules(10, 10, dis_m=rng.choice([30, 50]), w_th=rng.choice(w_ths))


def _candidates_both_ways(feats, cfg, monkeypatch):
    index = feature_index(feats, cfg)
    pairs = sorted(build_conflict_edges(feats, cfg, index).conflict_edges)
    fast = generate_candidates(feats, pairs, cfg, index)
    with monkeypatch.context() as m:
        m.setattr(leleec.endcut, "gen_corner_corner", corner_corner_without_shortcut)
        slow = generate_candidates(feats, pairs, cfg, index)
    return fast, slow


def test_no_corner_cut_when_w_th_reaches_dis_m(monkeypatch):
    conflict_pairs = 0
    # these kinds keep the default rules, w_th == dis_m; clique4_array lowers w_th
    gen = [gen_synthetic(k, 3, 0, Config.from_rules(10, 10)) for k in ("grid", "comb", "via_array")]
    for feats, cfg in [*_corner_layouts([50, 80]), *gen]:
        assert cfg.w_th >= cfg.dis_m
        fast, slow = _candidates_both_ways(feats, cfg, monkeypatch)
        assert fast == slow
        assert not any(c.kind == CORNER_CORNER for c in slow)
        for fa, fb in build_conflict_edges(feats, cfg, feature_index(feats, cfg)).conflict_edges:
            assert corner_corner_without_shortcut(feats[fa], feats[fb], cfg) is None
            conflict_pairs += 1
    assert conflict_pairs > 100


def test_corner_cuts_remain_when_w_th_is_below_dis_m(monkeypatch):
    corners = 0
    for feats, cfg in _corner_layouts([4, 10, 12]):
        fast, slow = _candidates_both_ways(feats, cfg, monkeypatch)
        assert fast == slow
        corners += sum(c.kind == CORNER_CORNER for c in fast)
    assert corners > 0
    cfg = Config.from_rules(10, 10, w_th=4)
    a, b = F(0, (0, 0, 10, 10)), F(1, (14, 14, 24, 24))
    obstacles = _rects(a, b)
    expected = corner_corner_without_shortcut(a, b, cfg, obstacles)
    assert gen_corner_corner(a, b, cfg, obstacles) == expected
