from __future__ import annotations

import random
from fractions import Fraction

import pytest

from leleec.endcut import generate_candidates
from leleec.geometry import GeometryError, Polygon, polygon_distance, rect_distance, split_polygon
from leleec.layout_graph import (
    Config,
    Feature,
    DuplicateCandidate,
    LayoutError,
    OverlappingInput,
    Segment,
    annotate_end_cuts,
    build_conflict_edges,
    feature_index,
    generate_stitch_candidates,
)

from conftest import (
    _shape_rects,
    gamma_quad,
    make_features,
    preselect_ring,
    random_config,
    random_layout,
    random_shapes,
    stitch_ring,
)

CFG = Config.from_rules(10, 10)  # dis_m = 50


def edges_of(features, cfg=CFG):
    return set(build_conflict_edges(features, cfg, feature_index(features, cfg)).conflict_edges)


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
        build_conflict_edges(feats, CFG, feature_index(feats, CFG))


def test_touching_features_rejected():
    feats = make_features([(0, 0, 10, 40)], [(10, 0, 30, 30)])
    with pytest.raises(OverlappingInput):
        build_conflict_edges(feats, CFG, feature_index(feats, CFG))


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


def reject_overlaps(features):
    """Reference check: OverlappingInput for the first id-ordered touching pair, by an all-pairs scan."""
    for i in range(len(features)):
        for j in range(i + 1, len(features)):
            if polygon_distance(features[i].shape, features[j].shape) == 0:
                raise OverlappingInput(f"features {i} and {j} overlap or touch")


def test_reject_overlaps_names_the_pair_the_conflict_build_rejects():
    raised = 0
    for seed in range(60):
        rng = random.Random(600 + seed)
        feats = []
        for i in range(rng.randrange(2, 30)):
            x, y = rng.randrange(0, 300), rng.randrange(0, 300)
            feats.append(Feature(i, Polygon.of((x, y, x + rng.randrange(5, 60), y + rng.randrange(5, 60)))))
        try:
            build_conflict_edges(feats, CFG, feature_index(feats, CFG))
        except OverlappingInput as exc:
            raised += 1
            with pytest.raises(OverlappingInput, match=f"^{exc}$"):
                reject_overlaps(feats)
        else:
            reject_overlaps(feats)
    assert 0 < raised < 60


def polygon_conflict_edges(features, cfg, index):
    """`build_conflict_edges`'s walk with `polygon_distance` for every pair
    its bboxes leave, one-rect pairs too: (edges in order, or the
    OverlappingInput text)."""
    limit = cfg.dis_m * cfg.dis_m
    edges = {}
    for i, j in index.pairs:
        a, b = features[i].shape, features[j].shape
        if rect_distance(a.bbox, b.bbox) >= limit:
            continue
        d = polygon_distance(a, b)
        if d == 0:
            return f"features {i} and {j} overlap or touch"
        if d < limit:
            edges[(i, j)] = None
    return list(edges.items())


def test_flat_conflict_distance_matches_polygon_distance():
    """One-rect and multi-rect features mixed, some of them overlapping."""
    raised = edges = 0
    for seed in range(80):
        rng = random.Random(3100 + seed)
        cfg = random_config(rng)
        if seed % 2:
            feats = random_layout(rng, rng.randrange(5, 60), box=300)
        else:
            feats = random_shapes(rng, rng.randrange(5, 25), rng.choice([1, 5]), 200)
        for _ in range(rng.choice([0, 0, 1, 2])):
            x, y = rng.randrange(200), rng.randrange(200)
            rects = [(a + x, b + y, c + x, d + y) for a, b, c, d in _shape_rects(rng, 5)]
            feats.append(Feature(len(feats), Polygon.of(*rects)))
        index = feature_index(feats, cfg)
        expected = polygon_conflict_edges(feats, cfg, index)
        try:
            got = list(build_conflict_edges(feats, cfg, index).conflict_edges.items())
        except OverlappingInput as exc:
            raised += 1
            got = str(exc)
        assert got == expected, seed
        edges += 0 if isinstance(got, str) else len(got)
    assert 10 < raised < 60 and edges > 500


def test_features_and_segments_are_slotted_records():
    p = Polygon.of((0, 0, 10, 40))
    f, s = Feature(1, p), Segment(2, 1, p)
    assert not hasattr(f, "__dict__") and not hasattr(s, "__dict__")
    assert f == Feature(1, Polygon.of((0, 0, 10, 40))) and f != Feature(2, p) and f != (1, p)
    assert s == Segment(2, 1, p) and s != Segment(2, 0, p) and s != f
    assert hash(f) == hash((1, p)) and hash(s) == hash((2, 1, p))


# ---- config validation

RULES = dict(w_min=10, s_min=10, dis_m=50, dis_c=50, w_th=50, alpha=Fraction(1, 10), merge_gap=10, enable_stitch=True)
INT_RULES = ("w_min", "s_min", "dis_m", "dis_c", "w_th", "merge_gap")


def _config_errors(name, value):
    """The LayoutError texts of Config(...) and Config.replace with one rule set to value."""
    texts = []
    for make in (lambda: Config(**{**RULES, name: value}), lambda: Config(**RULES).replace(**{name: value})):
        with pytest.raises(LayoutError) as err:
            make()
        texts.append(str(err.value))
    return texts


@pytest.mark.parametrize("value", [0, -10, 10.0, "10", None, Fraction(10)])
@pytest.mark.parametrize("name", INT_RULES)
def test_config_rejects_an_int_rule_that_is_not_a_positive_int(name, value):
    assert _config_errors(name, value) == [f"config {name} must be a positive integer, got {value!r}"] * 2


@pytest.mark.parametrize("alpha, shown", [(Fraction(-1), "-1"), (Fraction(-1, 10), "-1/10"), (-1, "-1")])
def test_config_rejects_a_negative_alpha(alpha, shown):
    assert _config_errors("alpha", alpha) == [f"config alpha must be non-negative, got {shown}"] * 2


def test_config_replace_checks_the_copy_and_keeps_the_original():
    cfg = Config(**RULES)
    assert cfg.replace() == cfg and cfg.replace() is not cfg
    assert cfg.replace(alpha=Fraction(0), enable_stitch=False) == Config(
        **{**RULES, "alpha": Fraction(0), "enable_stitch": False}
    )
    # the first failing rule in field order is named, as Config(...) names it
    with pytest.raises(LayoutError, match="config s_min must"):
        cfg.replace(w_th=0, s_min=0)
    with pytest.raises(TypeError):
        cfg.replace(dis=50)
    assert cfg == Config(**RULES)


def test_vertex_count_equals_feature_count_without_stitching():
    g = build_conflict_edges(GOLDEN_FEATURES, CFG, feature_index(GOLDEN_FEATURES, CFG))
    assert len(g.vertices) == len(GOLDEN_FEATURES)
    assert [v.id for v in g.vertices] == [f.id for f in GOLDEN_FEATURES]


# ---- stitch candidate generation


def test_isolated_feature_is_never_split():
    feats = make_features([(0, 0, 200, 10)])
    g0 = build_conflict_edges(feats, CFG, feature_index(feats, CFG))
    g = generate_stitch_candidates(feats, g0, CFG)
    assert len(g.vertices) == 1
    assert not g.stitch_edges


def test_left_half_conflict_splits_at_projection_boundary():
    feats = make_features([(0, 0, 100, 10)], [(0, 30, 40, 40)])
    g0 = build_conflict_edges(feats, CFG, feature_index(feats, CFG))
    assert set(g0.conflict_edges) == {(0, 1)}
    g = generate_stitch_candidates(feats, g0, CFG)
    wire_segments = [s for s in g.vertices if s.feature == 0]
    # neighbor extent [0,40] dilated by dis_m covers [-50,90]; the uncovered
    # tail [90,100] is one w_min-wide slot, stitched at its midpoint
    assert len(wire_segments) == 2
    bounds = sorted(tuple(s.shape.bbox) for s in wire_segments)
    assert bounds == [(0, 0, 95, 10), (95, 0, 100, 10)]
    assert len(g.stitch_edges) == 1
    (u, v) = next(iter(g.stitch_edges))
    assert g.stitch_edges[(u, v)] == (0, 95)


def test_fully_covered_feature_is_one_segment():
    feats = make_features([(0, 0, 10, 40)], [(20, 0, 30, 40)])
    g0 = build_conflict_edges(feats, CFG, feature_index(feats, CFG))
    g = generate_stitch_candidates(feats, g0, CFG)
    assert len(g.vertices) == 2
    assert not g.stitch_edges


def _stitched(features, cfg=CFG):
    g0 = build_conflict_edges(features, cfg, feature_index(features, cfg))
    return g0, generate_stitch_candidates(features, g0, cfg)


def test_stitch_position_that_disconnects_a_piece_is_skipped():
    # an upside-down U, taller than wide, so its spine is vertical; the
    # neighbour's extent y 170-180, dilated by dis_m, leaves the gaps [0, 120]
    # and [230, 300]: stitch positions y = 60, across both arms, and y = 265,
    # through the top bar
    arms_and_bar = [(0, 0, 10, 200), (20, 0, 30, 200), (0, 200, 30, 300)]
    feats = make_features(arms_and_bar, [(40, 170, 50, 180)])
    with pytest.raises(GeometryError):
        split_polygon(feats[0].shape, 1, 60)
    _, g = _stitched(feats)
    # y = 60 is skipped, and y = 265 still splits the feature
    assert [s.shape for s in g.vertices if s.feature == 0] == [
        Polygon.of((0, 0, 10, 200), (20, 0, 30, 200), (0, 200, 30, 265)),
        Polygon.of((0, 265, 30, 300)),
    ]
    assert list(g.stitch_edges.values()) == [(1, 265)]


def test_stitch_at_the_feature_low_edge_is_skipped():
    # dis_m = 5: the neighbour's extent x 6-20 covers [1, 25], leaving the gap
    # [0, 1], whose midpoint is the wire's own low edge x = 0, and [25, 300]
    cfg = Config.from_rules(1, 1)
    feats = make_features([(0, 0, 300, 1)], [(6, 3, 20, 4)])
    g0, g = _stitched(feats, cfg)
    assert [(s.feature, tuple(s.shape.bbox)) for s in g.vertices] == [
        (0, (0, 0, 162, 1)),
        (0, (162, 0, 300, 1)),
        (1, (6, 3, 20, 4)),
    ]
    assert list(g0.conflict_edges) == [(0, 1)]
    assert list(g.conflict_edges) == [(0, 2)]
    assert list(g.stitch_edges.values()) == [(0, 162)]


def subtract_intervals(extent, covered):
    """Maximal sub-intervals of extent not covered by the union of covered."""
    lo, hi = extent
    events = sorted((max(lo, a), min(hi, b)) for a, b in covered if a < hi and b > lo)
    out = []
    cur = lo
    for a, b in events:
        if a > cur:
            out.append((cur, a))
        cur = max(cur, b)
    if cur < hi:
        out.append((cur, hi))
    return out


def extent(rect, k):
    """The rect's (low, high) coordinates along axis k: 0 for x, 1 for y."""
    return rect[k], rect[k + 2]


def interval_segments(features, g0, cfg):
    """(feature, shape) of every segment, with each feature's gaps from
    subtract_intervals over its neighbours' extents."""
    out = []
    for f in features:
        bb = f.shape.bbox
        axis = 0 if bb.width >= bb.height else 1
        lo, hi = extent(bb, axis)
        covered = []
        for u, v in g0.conflict_edges:
            if f.id in (u, v):
                a, b = extent(features[v if u == f.id else u].shape.bbox, axis)
                covered.append((a - cfg.dis_m, b + cfg.dis_m))
        pieces = [f.shape]
        for a, b in subtract_intervals((lo, hi), covered) if covered else []:
            pos = (a + b) // 2
            if b - a < cfg.w_min or pos <= lo:
                continue
            try:
                pieces[-1:] = split_polygon(pieces[-1], axis, pos)
            except GeometryError:
                continue
        out.extend((f.id, piece) for piece in pieces)
    return out


def test_stitch_gaps_match_interval_subtraction():
    assert subtract_intervals((0, 100), [(-10, 20), (40, 60)]) == [(20, 40), (60, 100)]
    assert subtract_intervals((0, 100), []) == [(0, 100)]
    assert subtract_intervals((0, 100), [(-5, 200)]) == []
    split = 0
    rules = ((Config.from_rules(1, 1), 1), (CFG, 10), (Config.from_rules(10, 10, dis_m=70), 10))
    for cfg, unit in rules:
        for seed in range(40):
            rng = random.Random(seed)
            for feats in (random_shapes(rng, 14, unit, 40 * unit), random_layout(rng, 30, box=300)):
                g0, g = _stitched(feats, cfg)
                got = [(s.feature, s.shape) for s in g.vertices]
                assert got == interval_segments(feats, g0, cfg), seed
                split += len(g.vertices) - len(feats)
    assert split > 0


def _segment_edges_by_distance(g0, g, cfg):
    """Reference: every segment pair of every conflicting feature pair whose
    squared distance is in (0, dis_m**2)."""
    limit = cfg.dis_m * cfg.dis_m
    segments = {f: [s for s in g.vertices if s.feature == f] for f in range(len(g0.vertices))}
    return {
        (a.id, b.id)
        for fu, fv in g0.conflict_edges
        for a in segments[fu]
        for b in segments[fv]
        if 0 < polygon_distance(a.shape, b.shape) < limit
    }


@pytest.mark.parametrize(
    "cfg, unit",
    [
        (Config.from_rules(1, 1), 1),
        (Config.from_rules(10, 10), 10),
        (Config.from_rules(10, 10, dis_m=70), 10),
    ],
)
def test_each_feature_edge_becomes_one_segment_edge(cfg, unit):
    stitched = annotated = 0
    for seed in range(40):
        feats = random_shapes(random.Random(seed), 14, unit, 40 * unit)
        index = feature_index(feats, cfg)
        g0 = build_conflict_edges(feats, cfg, index)
        g = generate_stitch_candidates(feats, g0, cfg)
        assert set(g.conflict_edges) == _segment_edges_by_distance(g0, g, cfg)
        # one edge per feature edge, in the feature edges' sorted order, at their distance
        vs = g.vertices
        assert [(vs[u].feature, vs[v].feature) for u, v in g.conflict_edges] == sorted(g0.conflict_edges)
        for u, v in g.conflict_edges:
            fu, fv = vs[u].feature, vs[v].feature
            assert polygon_distance(vs[u].shape, vs[v].shape) == polygon_distance(
                feats[fu].shape, feats[fv].shape
            )
        cands = generate_candidates(feats, sorted(g0.conflict_edges), cfg, index)
        edge_of = {(vs[u].feature, vs[v].feature): (u, v) for u, v in g.conflict_edges}
        got = {c: e for e, c in annotate_end_cuts(g, cands).conflict_edges.items() if c is not None}
        assert got == {c.id: edge_of[c.features()] for c in cands}
        stitched += len(g.stitch_edges)
        annotated += len(cands)
    assert stitched > 0 and annotated > 0


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


def abutment(g, u, v):
    """(k, pos) of the boundary between two consecutive segments, found from
    their bboxes: axis k (0 for x, 1 for y) on which one bbox ends at pos
    and the other starts there. The result writer read stitch positions
    this way before the stitch stage recorded its cuts."""
    bu, bv = g.vertices[u].shape.bbox, g.vertices[v].shape.bbox
    for k in (0, 1):
        lo_u, hi_u = extent(bu, k)
        lo_v, hi_v = extent(bv, k)
        if hi_u == lo_v:
            return k, hi_u
        if hi_v == lo_u:
            return k, hi_v
    raise AssertionError(f"segments {u} and {v} do not abut")


def test_recorded_stitch_positions_match_segment_abutment():
    layouts = [stitch_ring(), gamma_quad(), preselect_ring()]
    for seed in range(60):
        rng = random.Random(900 + seed)
        cfg = random_config(rng)
        layouts.append((random_shapes(rng, 14, 10, 400), cfg))
        layouts.append((random_layout(rng, 30, box=300), cfg))
    checked = multi_rect = 0
    for feats, cfg in layouts:
        _, g = _stitched(feats, cfg)
        for (u, v), cut in g.stitch_edges.items():
            assert cut == abutment(g, u, v), (u, v)
            checked += 1
            multi_rect += len(feats[g.vertices[u].feature].shape.rects) > 1
    assert multi_rect > 0 and checked > multi_rect


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
        axis, coord = g.stitch_edges[(u, v)]
        assert abutment(g, u, v) == (axis, coord)  # raises if not abutting
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
    assert not (set(g.conflict_edges) & set(g.stitch_edges))


# ---- end-cut annotation


def test_annotate_edge_edge_candidate():
    feats, cfg = make_features([(0, 0, 10, 60)], [(30, 0, 40, 60)]), Config.from_rules(10, 10, w_th=10)
    index = feature_index(feats, cfg)
    g = build_conflict_edges(feats, cfg, index)
    cands = generate_candidates(feats, sorted(g.conflict_edges), cfg, index)
    g = annotate_end_cuts(g, cands)
    assert g.conflict_edges[(0, 1)] == 0


def test_width_forbidden_candidate_leaves_edge_unannotated():
    # facing run of 40 < w_th of 50: the candidate is forbidden
    feats = make_features([(0, 0, 10, 40)], [(20, 0, 30, 40)])
    index = feature_index(feats, CFG)
    g = build_conflict_edges(feats, CFG, index)
    cands = generate_candidates(feats, sorted(g.conflict_edges), CFG, index)
    assert cands == []
    g = annotate_end_cuts(g, cands)
    assert g.conflict_edges[(0, 1)] is None


def test_golden_annotation():
    cfg = Config.from_rules(10, 10, w_th=10)
    index = feature_index(GOLDEN_FEATURES, cfg)
    g = build_conflict_edges(GOLDEN_FEATURES, cfg, index)
    cands = generate_candidates(GOLDEN_FEATURES, sorted(g.conflict_edges), cfg, index)
    g = annotate_end_cuts(g, cands)
    by_pair = {
        (cands[c.id].feature_a, cands[c.id].feature_b): tuple(c.cut_rect) for c in cands
    }
    # every golden edge gets a candidate at w_th = w_min; spot-check geometry
    assert {e for e, c in g.conflict_edges.items() if c is not None} == GOLDEN_EDGES
    assert by_pair[(0, 1)] == (10, 0, 30, 60)
    assert by_pair[(2, 3)] == (40, 60, 60, 80)  # corner-corner bridge
    assert by_pair[(4, 5)] == (100, 40, 120, 50)


def test_duplicate_candidate_rejected():
    feats, cfg = make_features([(0, 0, 10, 60)], [(30, 0, 40, 60)]), Config.from_rules(10, 10, w_th=10)
    index = feature_index(feats, cfg)
    g = build_conflict_edges(feats, cfg, index)
    cands = generate_candidates(feats, sorted(g.conflict_edges), cfg, index)
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
    index = feature_index(feats, cfg)
    g0 = build_conflict_edges(feats, cfg, index)
    cands = generate_candidates(feats, sorted(g0.conflict_edges), cfg, index)
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
