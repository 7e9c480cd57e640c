"""Layout graph construction: conflict edges, stitch segmentation, cut annotations.

Vertices are feature segments (one per feature until stitch splitting).
Conflict edges join segments of different features whose squared distance is
strictly below dis_m**2; stitch edges join consecutive segments of one
feature, and each maps to the (k, pos) of the cut between them: the index
of the feature's spine in a `Rect` (0 for x, 1 for y) and the coordinate
the stitch stage cut at. The result file writes its stitches from these.

Stitch segmentation is a projection: a feature is cut along its spine only
where no conflicting neighbour's bbox extent, dilated by dis_m, reaches.
So the part of a feature within dis_m of one neighbour sits in one segment,
and each feature conflict edge becomes exactly one segment edge, found by
position; `annotate_end_cuts` then puts each candidate on the one edge of
its feature pair, at either level.

`feature_index` is built once per layout and shared: one sweep
(`geometry.near_pairs`) pairs the feature bboxes at max(dis_m, w_th). The
conflict build walks the pairs within dis_m, reading the bbox distance
inline and `polygon_distance` only for a pair with a multi-rect feature,
and the end-cut stages take obstacles from each feature's neighbour list.
The one walk of `build_conflict_edges` is also the input check: it
rejects the first id-ordered pair of features that touch or overlap.

`Config`, `Feature`, `Segment` and `LayoutGraph` are `record` classes:
slotted, with a hand-written `__init__` and equality by class and field.
`Config`, `Feature` and `Segment` are never mutated and are hashed by
their fields; a `LayoutGraph` has no hash.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

from .geometry import GeometryError, Polygon, near_pairs, polygon_distance, split_polygon
from .record import HashedRecord, Record

EdgeKey = tuple[int, int]


class LayoutError(ValueError):
    """Malformed layout input."""


class OverlappingInput(LayoutError):
    """Two input features overlap or touch (squared distance 0)."""


class DuplicateCandidate(LayoutError):
    """Two end-cut candidates map to one conflict edge."""


class Config(HashedRecord):
    """Design rules, stitch switch and stitch weight; distances in integer nm.

    Every field is required; `from_rules` is the one place that holds the
    defaults: dis_m = 2*w_min + 3*s_min; w_th and dis_c = dis_m;
    merge_gap = s_min; alpha = 1/10; stitching on. A `Config` is checked
    when it is made and never mutated: `replace` makes a checked copy.
    """

    __slots__ = ("w_min", "s_min", "dis_m", "dis_c", "w_th", "alpha", "merge_gap", "enable_stitch")

    def __init__(
        self,
        w_min: int,
        s_min: int,
        dis_m: int,
        dis_c: int,
        w_th: int,
        alpha: Fraction,
        merge_gap: int,
        enable_stitch: bool,
    ) -> None:
        self.w_min = w_min
        self.s_min = s_min
        self.dis_m = dis_m
        self.dis_c = dis_c
        self.w_th = w_th
        self.alpha = alpha
        self.merge_gap = merge_gap
        self.enable_stitch = enable_stitch
        for name in ("w_min", "s_min", "dis_m", "dis_c", "w_th", "merge_gap"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise LayoutError(f"config {name} must be a positive integer, got {v!r}")
        if alpha < 0:
            raise LayoutError(f"config alpha must be non-negative, got {alpha}")

    def replace(self, **changes) -> "Config":
        """This config with the named fields changed, checked as a new one."""
        return Config(**{**{name: getattr(self, name) for name in self.__slots__}, **changes})

    @staticmethod
    def from_rules(
        w_min: int,
        s_min: int,
        *,
        dis_m: int | None = None,
        dis_c: int | None = None,
        w_th: int | None = None,
        alpha: Fraction | None = None,
        merge_gap: int | None = None,
        enable_stitch: bool = True,
    ) -> "Config":
        dm = dis_m if dis_m is not None else 2 * w_min + 3 * s_min
        return Config(
            w_min=w_min,
            s_min=s_min,
            dis_m=dm,
            dis_c=dis_c if dis_c is not None else dm,
            w_th=w_th if w_th is not None else dm,
            alpha=alpha if alpha is not None else Fraction(1, 10),
            merge_gap=merge_gap if merge_gap is not None else s_min,
            enable_stitch=enable_stitch,
        )


class Feature(HashedRecord):
    """An input shape and its id; never mutated, so hashing by fields stays sound."""

    __slots__ = ("id", "shape")

    def __init__(self, id: int, shape: Polygon) -> None:
        self.id = id
        self.shape = shape


class Segment(HashedRecord):
    """A vertex of the layout graph: a feature's shape, or the part of it
    between two stitch cuts; never mutated."""

    __slots__ = ("id", "feature", "shape")

    def __init__(self, id: int, feature: int, shape: Polygon) -> None:
        self.id = id
        self.feature = feature
        self.shape = shape


class LayoutGraph(Record):
    """Vertices (segments), conflict edges with optional candidate ids, stitch edges.

    Each stitch edge maps to the (k, pos) its cut was made at: k indexes the
    feature's spine in a `Rect` (0 for x, 1 for y) and pos is the cut's
    coordinate along it.
    """

    __slots__ = ("vertices", "conflict_edges", "stitch_edges")

    def __init__(
        self,
        vertices: list[Segment],
        conflict_edges: dict[EdgeKey, int | None],
        stitch_edges: dict[EdgeKey, tuple[int, int]],
    ) -> None:
        self.vertices = vertices
        self.conflict_edges = conflict_edges
        self.stitch_edges = stitch_edges


def _check_features(features: list[Feature]) -> None:
    ids = [f.id for f in features]
    if ids != list(range(len(features))):
        raise LayoutError(f"feature ids must be dense from 0, got {ids}")


class FeatureIndex(NamedTuple):
    """The near feature pairs of one layout, from one sweep over the bboxes.

    `pairs` are the sorted id pairs whose bboxes are at most max(dis_m, w_th)
    apart along each axis; `near[k]` lists feature k, then every feature
    paired with it in id order.
    """

    pairs: list[EdgeKey]
    near: list[list[int]]


def feature_index(features: list[Feature], cfg: Config) -> FeatureIndex:
    """The layout's near pairs at max(dis_m, w_th): every conflict, every obstacle.

    Every end-cut candidate lies within max(dis_m, w_th) of the bbox of
    each of its features along each axis, so each feature's list holds
    every feature a cut at it, or a merge of two such cuts, can overlap.
    """
    pairs = near_pairs([f.shape.bbox for f in features], max(cfg.dis_m, cfg.w_th))
    near = [[k] for k in range(len(features))]
    for i, j in pairs:
        near[i].append(j)
        near[j].append(i)
    return FeatureIndex(pairs, near)


def build_conflict_edges(features: list[Feature], cfg: Config, index: FeatureIndex) -> LayoutGraph:
    """Layout graph with one vertex per feature and conflict edges within dis_m.

    `index` is `feature_index(features, cfg)`. Its pairs within dis_m are
    walked in id order, so OverlappingInput names the first id-ordered pair
    of features that touch or overlap. A pair's bbox distance is computed
    inline; it is the pair's distance when both features are one rect, and
    only a pair with a multi-rect feature calls `polygon_distance`.
    """
    _check_features(features)
    limit = cfg.dis_m * cfg.dis_m
    shapes = [f.shape for f in features]
    bboxes = [s.bbox for s in shapes]
    edges: dict[EdgeKey, int | None] = {}
    for i, j in index.pairs:
        ax_lo, ay_lo, ax_hi, ay_hi = bboxes[i]
        bx_lo, by_lo, bx_hi, by_hi = bboxes[j]
        dx = max(bx_lo - ax_hi, ax_lo - bx_hi, 0)
        dy = max(by_lo - ay_hi, ay_lo - by_hi, 0)
        d = dx * dx + dy * dy
        if d >= limit:
            continue  # the bboxes alone are dis_m or more apart
        a, b = shapes[i], shapes[j]
        if len(a.rects) > 1 or len(b.rects) > 1:
            d = polygon_distance(a, b)
        if d == 0:
            raise OverlappingInput(f"features {i} and {j} overlap or touch")
        if d < limit:
            edges[(i, j)] = None
    vertices = [Segment(f.id, f.id, f.shape) for f in features]
    return LayoutGraph(vertices=vertices, conflict_edges=edges, stitch_edges={})


def generate_stitch_candidates(
    features: list[Feature], graph: LayoutGraph, cfg: Config
) -> LayoutGraph:
    """Split features at legal stitch positions; re-express CE over segments.

    `graph` must be the feature-level conflict graph (one vertex per feature).
    A feature with no conflicting neighbour is one segment. Any other is cut
    along its spine axis, the longer side of its bbox (x on a tie): each
    neighbour's bbox extent, dilated by dis_m, is covered, and each maximal
    uncovered interval of length >= w_min yields one cut at its floor
    midpoint, unless the cut is the feature's own low edge or would
    disconnect a piece. A neighbour is edge-connected, so its rects project
    onto its whole bbox extent: the bbox covers what its rects cover.

    Each feature conflict edge becomes exactly one segment edge, at the
    feature pair's distance. Every point of f within dis_m of a neighbour g
    lies strictly inside g's dilated extent on f's spine, where no cut
    falls, and a segment is the part of f between two cuts. So those points
    lie in one segment of f, the one after the cuts below the low end of
    g's bbox, and likewise for g; every other pair of their segments is
    dis_m or more apart.

    A feature's segments have consecutive ids, low to high along its spine.
    Each stitch edge joins the two segments on either side of one cut and
    maps to that cut's (k, pos): the spine's index in a `Rect` and the
    position cut at.
    """
    neighbor_ids: list[list[int]] = [[] for _ in features]
    for u, v in graph.conflict_edges:
        neighbor_ids[u].append(v)
        neighbor_ids[v].append(u)

    dis_m, w_min = cfg.dis_m, cfg.w_min
    bboxes = [f.shape.bbox for f in features]
    vertices: list[Segment] = []
    stitches: dict[EdgeKey, tuple[int, int]] = {}
    first_of: list[int] = []  # per feature: the id of its first segment
    # per feature: the index of its spine's low coordinate in a Rect (0 for
    # x, 1 for y; the high one is 2 more), and its cut positions
    cuts_of: list[tuple[int, list[int]]] = []
    uncut: tuple[int, list[int]] = (0, [])
    for f, bb, near in zip(features, bboxes, neighbor_ids):
        first = len(vertices)
        first_of.append(first)
        if not near:
            vertices.append(Segment(first, f.id, f.shape))
            cuts_of.append(uncut)
            continue
        k = 0 if bb.x_hi - bb.x_lo >= bb.y_hi - bb.y_lo else 1
        lo, hi = bb[k], bb[k + 2]
        # a conflicting neighbour is within dis_m along the spine too, so
        # each dilated extent (a, b) has a < hi and b > lo
        spans = sorted([(bboxes[n][k] - dis_m, bboxes[n][k + 2] + dis_m) for n in near])
        gaps = []
        cur = lo  # the spine is covered from lo up to cur
        for a, b in spans:
            if a > cur:
                gaps.append((cur, a))
            if b > cur:
                cur = b
        if cur < hi:
            gaps.append((cur, hi))
        piece = f.shape  # the part of f above every cut made so far
        cuts: list[int] = []
        for a, b in gaps:
            pos = (a + b) // 2
            if b - a < w_min or pos <= lo:
                continue  # too narrow, or the gap [lo, lo + 1] gives pos == lo
            try:
                low, high = split_polygon(piece, k, pos)
            except GeometryError:
                continue  # cut would disconnect the piece; skip this position
            stitches[(len(vertices), len(vertices) + 1)] = (k, pos)
            vertices.append(Segment(len(vertices), f.id, low))
            piece = high
            cuts.append(pos)
        vertices.append(Segment(len(vertices), f.id, piece))
        cuts_of.append((k, cuts))

    def segment_near(f: int, g: int) -> int:
        k, cuts = cuts_of[f]
        return first_of[f] + bisect_right(cuts, bboxes[g][k])

    # fu < fv, so its segment ids are the smaller ones
    edges: dict[EdgeKey, int | None] = {
        (segment_near(fu, fv), segment_near(fv, fu)): None for fu, fv in sorted(graph.conflict_edges)
    }
    return LayoutGraph(vertices=vertices, conflict_edges=edges, stitch_edges=stitches)


def annotate_end_cuts(graph: LayoutGraph, candidates: list) -> LayoutGraph:
    """Attach each candidate to the one conflict edge of its feature pair.

    A conflicting feature pair has one edge at feature level and, by
    `generate_stitch_candidates`, one at segment level; every candidate's
    pair is a conflict edge. Raises DuplicateCandidate when two candidates
    land on one edge.
    """
    vs = graph.vertices
    edge_of = {(vs[u].feature, vs[v].feature): (u, v) for u, v in graph.conflict_edges}
    edges = dict(graph.conflict_edges)
    for cand in candidates:
        e = edge_of[cand.features()]
        if edges[e] is not None:
            raise DuplicateCandidate(f"conflict edge {e} already annotated with candidate {edges[e]}")
        edges[e] = cand.id
    return LayoutGraph(vertices=graph.vertices, conflict_edges=edges, stitch_edges=graph.stitch_edges)
