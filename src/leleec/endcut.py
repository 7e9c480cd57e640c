"""End-cut candidate generation and the end-cut compatibility graph.

A candidate is a trim-mask rectangle bridging two conflicting features.
Edge-edge candidates span the gap between facing boundary runs; corner-corner
candidates bridge diagonally adjacent corners with one of four axis-thickened
shapes. Candidates closer than dis_c exclude each other (solid edges) unless
they share a feature and sit close enough to merge into one larger cut
(dash edges).

Both stages look things up in the uniform bucket index of
`geometry.GridIndex` instead of scanning everything. Every cut of a pair
lies within max(dis_m, w_th) of the bbox of the pair's first feature, so
only the features filed near that feature are tested as obstacles. Cuts are bucketed at
max(dis_c, merge_gap), so only cuts in neighbouring cells are classified,
and the merged bbox of a dash pair is tested against the features filed
near it. The tests keep the all-pairs, all-obstacle forms as references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .geometry import (
    HORIZONTAL,
    VERTICAL,
    GridIndex,
    Point,
    Rect,
    projection_interval,
    rect_distance,
    rect_overlaps_polygon,
    rect_union_bbox,
)
from .layout_graph import Config, EdgeKey, Feature, feature_index

EDGE_EDGE = "edge_edge"
CORNER_CORNER = "corner_corner"


@dataclass(frozen=True)
class EndCutCandidate:
    id: int
    feature_a: int
    feature_b: int
    cut_rect: Rect
    kind: str

    def features(self) -> tuple[int, int]:
        return (self.feature_a, self.feature_b)


@dataclass
class EndCutGraph:
    nodes: list[EndCutCandidate]
    solid_edges: set[EdgeKey]
    dash_edges: set[EdgeKey]


def _overlaps_any(rect: Rect, obstacles: Iterable[Feature]) -> bool:
    return any(rect_overlaps_polygon(rect, f.shape) for f in obstacles)


def _candidate_rank(rect: Rect) -> tuple[int, int, int]:
    return (rect.area(), rect.lo.x, rect.lo.y)


def gen_edge_edge(
    a: Feature, b: Feature, cfg: Config, obstacles: Sequence[Feature] = ()
) -> Rect | None:
    """Cut rect spanning the gap between facing boundary runs, or None.

    The facing runs must overlap by at least w_th in projection, the gap must
    be below dis_m, and the cut interior may not overlap any feature
    (including other rects of a and b).
    """
    best: Rect | None = None
    for ra in a.shape.rects:
        for rb in b.shape.rects:
            for lo_rect, hi_rect, gap_axis in (
                (ra, rb, HORIZONTAL),
                (rb, ra, HORIZONTAL),
                (ra, rb, VERTICAL),
                (rb, ra, VERTICAL),
            ):
                _, lo_end = lo_rect.extent(gap_axis)
                hi_start, _ = hi_rect.extent(gap_axis)
                gap = hi_start - lo_end
                if gap <= 0 or gap >= cfg.dis_m:
                    continue
                proj_axis = VERTICAL if gap_axis == HORIZONTAL else HORIZONTAL
                proj = projection_interval(lo_rect, hi_rect, proj_axis)
                if proj is None or proj[1] - proj[0] < cfg.w_th:
                    continue
                if gap_axis == HORIZONTAL:
                    cut = Rect(Point(lo_end, proj[0]), Point(hi_start, proj[1]))
                else:
                    cut = Rect(Point(proj[0], lo_end), Point(proj[1], hi_start))
                if _overlaps_any(cut, obstacles):
                    continue
                if best is None or _candidate_rank(cut) < _candidate_rank(best):
                    best = cut
    return best


def _polygon_corners(f: Feature) -> list[Point]:
    pts = []
    for r in f.shape.rects:
        pts.extend(r.corners())
    return sorted(set(pts))


def gen_corner_corner(
    a: Feature, b: Feature, cfg: Config, obstacles: Sequence[Feature] = ()
) -> Rect | None:
    """Minimal-area of the four corner-bridging shapes, or None.

    The nearest corner pair spans a base rectangle; each of the four shapes
    thickens the base to exactly w_th along one axis toward one side. Shapes
    narrower than w_th in either direction or overlapping a feature interior
    are discarded; ties on area break to the smallest lo corner.
    """
    best_pair: tuple[Point, Point] | None = None
    best_d: int | None = None
    for pa in _polygon_corners(a):
        for pb in _polygon_corners(b):
            d = (pa.x - pb.x) ** 2 + (pa.y - pb.y) ** 2
            if best_d is None or (d, pa, pb) < (best_d, *best_pair):
                best_d, best_pair = d, (pa, pb)
    assert best_pair is not None and best_d is not None
    if best_d >= cfg.dis_m * cfg.dis_m:
        # a cut bridging a gap wider than the coloring distance is meaningless
        return None

    pa, pb = best_pair
    x_lo, x_hi = min(pa.x, pb.x), max(pa.x, pb.x)
    y_lo, y_hi = min(pa.y, pb.y), max(pa.y, pb.y)
    shapes: list[Rect] = []
    for axis in (HORIZONTAL, VERTICAL):
        lo, hi = (x_lo, x_hi) if axis == HORIZONTAL else (y_lo, y_hi)
        grow = cfg.w_th - (hi - lo)
        sides = [(lo, hi)] if grow <= 0 else [(lo - grow, hi), (lo, hi + grow)]
        for s_lo, s_hi in sides:
            if axis == HORIZONTAL:
                coords = (s_lo, y_lo, s_hi, y_hi)
            else:
                coords = (x_lo, s_lo, x_hi, s_hi)
            if coords[0] >= coords[2] or coords[1] >= coords[3]:
                continue
            shapes.append(Rect.of(*coords))

    best: Rect | None = None
    for cut in shapes:
        if min(cut.width, cut.height) < cfg.w_th:
            continue
        if _overlaps_any(cut, obstacles):
            continue
        if best is None or _candidate_rank(cut) < _candidate_rank(best):
            best = cut
    return best


def generate_candidates(
    features: list[Feature], pairs: Iterable[EdgeKey], cfg: Config
) -> list[EndCutCandidate]:
    """One candidate per conflicting feature pair (edge-edge first), ids dense."""
    index = feature_index(features, cfg)
    # along each axis, every cut of a pair (fa, *) either spans less than
    # dis_m from fa's bbox or is w_th long around a corner of fa
    margin = max(cfg.dis_m, cfg.w_th)
    out: list[EndCutCandidate] = []
    near_of, near = None, []
    for fa, fb in sorted(pairs):
        a, b = features[fa], features[fb]
        if fa != near_of:
            near_of, near = fa, [features[k] for k in index.query(a.shape.bbox, margin)]
        rect = gen_edge_edge(a, b, cfg, near)
        kind = EDGE_EDGE
        if rect is None:
            rect = gen_corner_corner(a, b, cfg, near)
            kind = CORNER_CORNER
        if rect is None:
            continue
        out.append(
            EndCutCandidate(id=len(out), feature_a=fa, feature_b=fb, cut_rect=rect, kind=kind)
        )
    return out


def build_endcut_graph(
    candidates: list[EndCutCandidate], features: list[Feature], cfg: Config
) -> EndCutGraph:
    """Classify candidate pairs as dash (mergeable), solid (exclusive), or unrelated.

    Pairs are keyed (p.id, q.id) with p listed before q. Only pairs in
    neighbouring cells of a cut index at max(dis_c, merge_gap) can be within
    either distance, so no other pair is examined.
    """
    solid: set[EdgeKey] = set()
    dash: set[EdgeKey] = set()
    merge_sq = cfg.merge_gap * cfg.merge_gap
    disc_sq = cfg.dis_c * cfg.dis_c
    cuts = GridIndex([c.cut_rect for c in candidates], max(cfg.dis_c, cfg.merge_gap))
    obstacles = feature_index(features, cfg)
    for i, j in cuts.near_pairs():
        p, q = candidates[i], candidates[j]
        d = rect_distance(p.cut_rect, q.cut_rect)
        participants = {p.feature_a, p.feature_b, q.feature_a, q.feature_b}
        shares = len(participants) < 4
        if shares and d <= merge_sq:
            bbox = rect_union_bbox(p.cut_rect, q.cut_rect)
            others = (features[k] for k in obstacles.query(bbox) if k not in participants)
            if not _overlaps_any(bbox, others):
                dash.add((p.id, q.id))
                continue
        if d < disc_sq:
            solid.add((p.id, q.id))
    return EndCutGraph(nodes=list(candidates), solid_edges=solid, dash_edges=dash)
