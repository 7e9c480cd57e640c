"""End-cut candidate generation and the end-cut compatibility graph.

A candidate is a trim-mask rectangle bridging two conflicting features.
Edge-edge candidates span the gap between facing boundary runs; corner-corner
candidates bridge diagonally adjacent corners with one of four axis-thickened
shapes. Candidates closer than dis_c exclude each other (solid edges) unless
they share a feature and sit close enough to merge into one larger cut
(dash edges).

Both stages read the sweep of `geometry.near_pairs` instead of scanning
everything. They share the layout's one `feature_index`, whose pairs the
conflict build also walks, and take it as an argument. Every cut of a pair
lies within max(dis_m, w_th) of the bbox of each of the pair's features,
so only the rects of the features on the first feature's neighbour list
are tested as obstacles, and the merged bbox of a dash pair only against
the rects of the list of the feature its two cuts share. Each kernel works
on the rects' four ints directly, and each obstacle list is one flat list
of rects. A second sweep pairs the cut rects at max(dis_c, merge_gap), and
only those pairs are classified.

`build_endcut_graph` can classify the pairs of a subset of the candidates
only, as `layout_io.verify_result` does for the cuts a result lists. That
is exact: a pair's class depends on its two cuts, their features and those
features' neighbours alone, and the sweep over a subset returns exactly
the pairs of the full sweep that lie inside it. The tests keep the
all-pairs, all-obstacle forms and the polygon-level kernels these replace
as references.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from typing import NamedTuple

# rect_overlaps_polygon is not called here; perfbench/spans.py wraps it under this name
from .geometry import Rect, near_pairs, rect_overlaps_polygon  # noqa: F401
from .layout_graph import Config, EdgeKey, Feature, FeatureIndex
from .record import Record

EDGE_EDGE = "edge_edge"
CORNER_CORNER = "corner_corner"


class EndCutCandidate(NamedTuple):
    """A trim cut bridging two conflicting features; `id` is its index in
    the layout's candidate list."""

    id: int
    feature_a: int
    feature_b: int
    cut_rect: Rect
    kind: str

    def features(self) -> tuple[int, int]:
        return (self.feature_a, self.feature_b)


class EndCutGraph(Record):
    """The candidates and their solid (exclusion) and dash (merge) pairs, as id pairs."""

    __slots__ = ("nodes", "solid_edges", "dash_edges")

    def __init__(
        self, nodes: list[EndCutCandidate], solid_edges: set[EdgeKey], dash_edges: set[EdgeKey]
    ) -> None:
        self.nodes = nodes
        self.solid_edges = solid_edges
        self.dash_edges = dash_edges


def _clear(x_lo: int, y_lo: int, x_hi: int, y_hi: int, obstacles: Iterable[Rect]) -> bool:
    """True iff the rect's interior meets the interior of no obstacle rect."""
    for o_x_lo, o_y_lo, o_x_hi, o_y_hi in obstacles:
        if x_lo < o_x_hi and o_x_lo < x_hi and y_lo < o_y_hi and o_y_lo < y_hi:
            return False
    return True


def gen_edge_edge(
    a: Feature, b: Feature, cfg: Config, obstacles: Sequence[Rect] = ()
) -> Rect | None:
    """Cut rect spanning the gap between facing boundary runs, or None.

    The facing runs must overlap by at least w_th in projection, the gap must
    be below dis_m, and the cut interior may not overlap any obstacle rect
    (pass the rects of a and b too). Of the cuts left, the smallest by
    (area, x_lo, y_lo) wins, the first found on a tie.
    """
    dis_m, w_th = cfg.dis_m, cfg.w_th
    best: Rect | None = None
    best_rank = None
    for ax_lo, ay_lo, ax_hi, ay_hi in a.shape.rects:
        for bx_lo, by_lo, bx_hi, by_hi in b.shape.rects:
            # a gap along x leaves a cut only where the y extents overlap by
            # w_th > 0, so at most one of the four facing orientations has one
            if ax_hi < bx_lo or bx_hi < ax_lo:
                x_lo, x_hi = (ax_hi, bx_lo) if ax_hi < bx_lo else (bx_hi, ax_lo)
                y_lo, y_hi = max(ay_lo, by_lo), min(ay_hi, by_hi)
                if x_hi - x_lo >= dis_m or y_hi - y_lo < w_th:
                    continue
            elif ay_hi < by_lo or by_hi < ay_lo:
                y_lo, y_hi = (ay_hi, by_lo) if ay_hi < by_lo else (by_hi, ay_lo)
                x_lo, x_hi = max(ax_lo, bx_lo), min(ax_hi, bx_hi)
                if y_hi - y_lo >= dis_m or x_hi - x_lo < w_th:
                    continue
            else:
                continue  # the rects touch or overlap along both axes
            rank = ((x_hi - x_lo) * (y_hi - y_lo), x_lo, y_lo)
            if (best_rank is None or rank < best_rank) and _clear(x_lo, y_lo, x_hi, y_hi, obstacles):
                best, best_rank = Rect(x_lo, y_lo, x_hi, y_hi), rank
    return best


def _polygon_corners(f: Feature) -> list[tuple[int, int]]:
    pts = []
    for r in f.shape.rects:
        pts.extend(r.corners())
    return sorted(set(pts))


def gen_corner_corner(
    a: Feature,
    b: Feature,
    cfg: Config,
    obstacles: Sequence[Rect] = (),
    corners: dict[int, list[tuple[int, int]]] | None = None,
) -> Rect | None:
    """Minimal-area of the four corner-bridging shapes, or None.

    The nearest corner pair, the smallest by (squared distance, corner of
    a, corner of b), spans a base rectangle; each of the four shapes
    thickens the base to exactly w_th along one axis toward one side.
    Shapes narrower than w_th in either direction or overlapping an
    obstacle rect are discarded; ties on area break to the smallest lo
    corner. `corners` keeps each feature's sorted corners by feature id
    between calls; `generate_candidates` passes one dict per call.
    """
    if cfg.w_th >= cfg.dis_m:
        # both base sides are shorter than dis_m <= w_th, and each shape keeps one of them
        return None
    if corners is None:
        corners = {}
    for f in (a, b):
        if f.id not in corners:
            corners[f.id] = _polygon_corners(f)
    d, (ax, ay), (bx, by) = min(
        ((ax - bx) ** 2 + (ay - by) ** 2, (ax, ay), (bx, by))
        for ax, ay in corners[a.id]
        for bx, by in corners[b.id]
    )
    if d >= cfg.dis_m * cfg.dis_m:
        # a cut bridging a gap wider than the coloring distance is meaningless
        return None

    x_lo, x_hi = min(ax, bx), max(ax, bx)
    y_lo, y_hi = min(ay, by), max(ay, by)
    w_th = cfg.w_th
    best: Rect | None = None
    best_rank = None
    for horizontal in (True, False):
        lo, hi = (x_lo, x_hi) if horizontal else (y_lo, y_hi)
        grow = w_th - (hi - lo)
        for s_lo, s_hi in [(lo, hi)] if grow <= 0 else [(lo - grow, hi), (lo, hi + grow)]:
            cut = Rect(s_lo, y_lo, s_hi, y_hi) if horizontal else Rect(x_lo, s_lo, x_hi, s_hi)
            c_x_lo, c_y_lo, c_x_hi, c_y_hi = cut
            width, height = c_x_hi - c_x_lo, c_y_hi - c_y_lo
            # w_th > 0, so this also drops a flat shape off a collinear corner pair
            if width < w_th or height < w_th:
                continue
            rank = (width * height, c_x_lo, c_y_lo)
            if (best_rank is None or rank < best_rank) and _clear(*cut, obstacles):
                best, best_rank = cut, rank
    return best


def generate_candidates(
    features: list[Feature], pairs: Iterable[EdgeKey], cfg: Config, index: FeatureIndex
) -> list[EndCutCandidate]:
    """One candidate per conflicting feature pair (edge-edge first), ids dense.

    `index` is the layout's `feature_index`; the obstacles of a pair
    (fa, fb) are the rects of the features on fa's neighbour list.
    """
    out: list[EndCutCandidate] = []
    corners: dict[int, list[tuple[int, int]]] = {}  # one corner list per feature per call
    near_of, near = None, []
    for fa, fb in sorted(pairs):
        a, b = features[fa], features[fb]
        if fa != near_of:
            near_of, near = fa, [r for k in index.near[fa] for r in features[k].shape.rects]
        rect = gen_edge_edge(a, b, cfg, near)
        kind = EDGE_EDGE
        if rect is None:
            rect = gen_corner_corner(a, b, cfg, near, corners)
            kind = CORNER_CORNER
        if rect is None:
            continue
        out.append(
            EndCutCandidate(id=len(out), feature_a=fa, feature_b=fb, cut_rect=rect, kind=kind)
        )
    return out


def build_endcut_graph(
    candidates: list[EndCutCandidate],
    features: list[Feature],
    cfg: Config,
    index: FeatureIndex,
    classify: Collection[int] | None = None,
) -> EndCutGraph:
    """Classify candidate pairs as dash (mergeable), solid (exclusive), or unrelated.

    Pairs are keyed (p.id, q.id) with p listed before q. Only cut rects at
    most max(dis_c, merge_gap) apart along each axis can be within either
    distance, so the pairs of one sweep at that gap are the only ones
    examined. `index` is the layout's `feature_index`; a dash pair's merged
    bbox is tested against the rects of the neighbour list of the feature
    both cuts share. With `classify`, a collection of candidate ids, only
    the pairs of those candidates are classified (exact, see the module
    docstring); the graph's nodes are every candidate either way.
    """
    solid: set[EdgeKey] = set()
    dash: set[EdgeKey] = set()
    merge_sq = cfg.merge_gap * cfg.merge_gap
    disc_sq = cfg.dis_c * cfg.dis_c
    pool = candidates if classify is None else [c for c in candidates if c.id in classify]
    # (owner, rect) of every rect on a shared feature's neighbour list
    blockers: dict[int, list[tuple[int, Rect]]] = {}
    for i, j in near_pairs([c.cut_rect for c in pool], max(cfg.dis_c, cfg.merge_gap)):
        p, q = pool[i], pool[j]
        px_lo, py_lo, px_hi, py_hi = p.cut_rect
        qx_lo, qy_lo, qx_hi, qy_hi = q.cut_rect
        dx = max(qx_lo - px_hi, px_lo - qx_hi, 0)
        dy = max(qy_lo - py_hi, py_lo - qy_hi, 0)
        d = dx * dx + dy * dy
        if d <= merge_sq:
            pa, pb, qa, qb = p.feature_a, p.feature_b, q.feature_a, q.feature_b
            shared = pa if pa == qa or pa == qb else pb if pb == qa or pb == qb else None
            if shared is not None:
                near = blockers.get(shared)
                if near is None:
                    near = blockers[shared] = [
                        (k, r) for k in index.near[shared] for r in features[k].shape.rects
                    ]
                x_lo, y_lo = min(px_lo, qx_lo), min(py_lo, qy_lo)
                x_hi, y_hi = max(px_hi, qx_hi), max(py_hi, qy_hi)
                for k, (o_x_lo, o_y_lo, o_x_hi, o_y_hi) in near:
                    if (
                        x_lo < o_x_hi
                        and o_x_lo < x_hi
                        and y_lo < o_y_hi
                        and o_y_lo < y_hi
                        and k != pa
                        and k != pb
                        and k != qa
                        and k != qb
                    ):
                        break
                else:
                    dash.add((p.id, q.id))
                    continue
        if d < disc_sq:
            solid.add((p.id, q.id))
    return EndCutGraph(nodes=list(candidates), solid_edges=solid, dash_edges=dash)
