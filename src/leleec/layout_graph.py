"""Layout graph construction: conflict edges, stitch segmentation, cut annotations.

Vertices are feature segments (one per feature until stitch splitting).
Conflict edges join segments of different features whose squared distance is
strictly below dis_m**2; stitch edges join consecutive segments of one
feature.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .geometry import (
    HORIZONTAL,
    VERTICAL,
    GeometryError,
    GridIndex,
    Polygon,
    polygon_distance,
    rect_distance,
    split_polygon,
    subtract_intervals,
)

EdgeKey = tuple[int, int]


class LayoutError(ValueError):
    """Malformed layout input."""


class OverlappingInput(LayoutError):
    """Two input features overlap or touch (squared distance 0)."""


class DuplicateCandidate(LayoutError):
    """Two end-cut candidates map to one conflict edge."""


@dataclass(frozen=True)
class Config:
    """Design rules, stitch switch and stitch weight; distances in integer nm.

    dis_m defaults to 2*w_min + 3*s_min; w_th and dis_c default to dis_m;
    merge_gap defaults to s_min; alpha defaults to 1/10.
    """

    w_min: int
    s_min: int
    dis_m: int
    dis_c: int
    w_th: int
    alpha: Fraction = Fraction(1, 10)
    merge_gap: int = 0
    enable_stitch: bool = True

    def __post_init__(self) -> None:
        for name in ("w_min", "s_min", "dis_m", "dis_c", "w_th", "merge_gap"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise LayoutError(f"config {name} must be a positive integer, got {v!r}")
        if self.alpha < 0:
            raise LayoutError(f"config alpha must be non-negative, got {self.alpha}")

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


@dataclass(frozen=True)
class Feature:
    id: int
    shape: Polygon


@dataclass(frozen=True)
class Segment:
    id: int
    feature: int
    shape: Polygon


@dataclass
class LayoutGraph:
    """Vertices (segments), conflict edges with optional candidate ids, stitch edges."""

    vertices: list[Segment]
    conflict_edges: dict[EdgeKey, int | None]
    stitch_edges: set[EdgeKey]

    def feature_pairs(self) -> set[EdgeKey]:
        """Feature-level conflict pairs implied by the segment-level edges."""
        pairs = set()
        for u, v in self.conflict_edges:
            fu, fv = self.vertices[u].feature, self.vertices[v].feature
            pairs.add((fu, fv) if fu < fv else (fv, fu))
        return pairs


def _check_features(features: list[Feature]) -> None:
    ids = [f.id for f in features]
    if ids != list(range(len(features))):
        raise LayoutError(f"feature ids must be dense from 0, got {ids}")


def feature_index(features: list[Feature], cfg: Config) -> GridIndex:
    """Feature bounding boxes bucketed at dis_m: near_pairs covers every conflict."""
    return GridIndex([f.shape.bbox for f in features], cfg.dis_m)


def reject_overlaps(features: list[Feature], cfg: Config) -> None:
    """Raise OverlappingInput for the first id-ordered pair of features that touch or overlap.

    Only pairs whose bounding boxes touch get an exact polygon test.
    """
    _check_features(features)
    boxes = [f.shape.bbox for f in features]
    for i, j in feature_index(features, cfg).near_pairs():
        if rect_distance(boxes[i], boxes[j]) > 0:
            continue
        if polygon_distance(features[i].shape, features[j].shape) == 0:
            raise OverlappingInput(f"features {i} and {j} overlap or touch")


def build_conflict_edges(features: list[Feature], cfg: Config) -> LayoutGraph:
    """Layout graph with one vertex per feature and conflict edges within dis_m.

    Raises OverlappingInput when two features touch or overlap.
    """
    _check_features(features)
    limit = cfg.dis_m * cfg.dis_m
    edges: dict[EdgeKey, int | None] = {}
    for i, j in feature_index(features, cfg).near_pairs():
        d = polygon_distance(features[i].shape, features[j].shape)
        if d == 0:
            raise OverlappingInput(f"features {i} and {j} overlap or touch")
        if d < limit:
            edges[(i, j)] = None
    vertices = [Segment(id=f.id, feature=f.id, shape=f.shape) for f in features]
    return LayoutGraph(vertices=vertices, conflict_edges=edges, stitch_edges=set())


def _spine_axis(shape: Polygon) -> str:
    bb = shape.bbox
    return HORIZONTAL if bb.width >= bb.height else VERTICAL


def stitch_positions(feature: Feature, neighbors: list[Feature], cfg: Config) -> tuple[str, list[int]]:
    """Legal stitch coordinates along the feature's spine axis.

    Every conflicting neighbor's extent, dilated by dis_m, is projected onto
    the spine; each maximal uncovered interval of length >= w_min yields one
    stitch at its floor midpoint.
    """
    axis = _spine_axis(feature.shape)
    lo, hi = feature.shape.bbox.extent(axis)
    covered = []
    for n in neighbors:
        for r in n.shape.rects:
            a, b = r.extent(axis)
            covered.append((a - cfg.dis_m, b + cfg.dis_m))
    gaps = subtract_intervals((lo, hi), covered)
    positions = [(a + b) // 2 for a, b in gaps if b - a >= cfg.w_min]
    return axis, positions


def generate_stitch_candidates(
    features: list[Feature], graph: LayoutGraph, cfg: Config
) -> LayoutGraph:
    """Split features at legal stitch positions; re-express CE over segments.

    `graph` must be the feature-level conflict graph (one vertex per feature).
    """
    neighbor_ids: dict[int, list[int]] = {f.id: [] for f in features}
    for u, v in graph.conflict_edges:
        neighbor_ids[u].append(v)
        neighbor_ids[v].append(u)

    vertices: list[Segment] = []
    segments_of: dict[int, list[int]] = {}
    for f in features:
        if neighbor_ids[f.id]:
            axis, positions = stitch_positions(
                f, [features[n] for n in sorted(neighbor_ids[f.id])], cfg
            )
        else:
            axis, positions = _spine_axis(f.shape), []  # conflict-free: never split
        pieces = [f.shape]
        for pos in positions:
            for k, piece in enumerate(pieces):
                p_lo, p_hi = piece.bbox.extent(axis)
                if p_lo < pos < p_hi:
                    try:
                        low, high = split_polygon(piece, axis, pos)
                    except GeometryError:
                        break  # cut would disconnect the piece; skip this position
                    if low is not None and high is not None:
                        pieces[k : k + 1] = [low, high]
                    break
        ids = []
        for piece in pieces:
            sid = len(vertices)
            vertices.append(Segment(id=sid, feature=f.id, shape=piece))
            ids.append(sid)
        segments_of[f.id] = ids

    limit = cfg.dis_m * cfg.dis_m
    edges: dict[EdgeKey, int | None] = {}
    for fu, fv in sorted(graph.conflict_edges):
        for su in segments_of[fu]:
            for sv in segments_of[fv]:
                d = polygon_distance(vertices[su].shape, vertices[sv].shape)
                if 0 < d < limit:
                    edges[(su, sv) if su < sv else (sv, su)] = None

    stitches: set[EdgeKey] = set()
    for ids in segments_of.values():
        for a, b in zip(ids, ids[1:]):
            stitches.add((a, b))
    return LayoutGraph(vertices=vertices, conflict_edges=edges, stitch_edges=stitches)


def stitch_coordinate(graph: LayoutGraph, u: int, v: int) -> tuple[str, int]:
    """(axis, coordinate) of the boundary between two consecutive segments."""
    su, sv = graph.vertices[u], graph.vertices[v]
    for axis in (HORIZONTAL, VERTICAL):
        lo_u, hi_u = su.shape.bbox.extent(axis)
        lo_v, hi_v = sv.shape.bbox.extent(axis)
        if hi_u == lo_v:
            return axis, hi_u
        if hi_v == lo_u:
            return axis, hi_v
    raise LayoutError(f"segments {u} and {v} do not abut")


def annotate_end_cuts(graph: LayoutGraph, candidates: list) -> LayoutGraph:
    """Attach each candidate to the nearest segment-level conflict edge of its pair.

    Raises DuplicateCandidate when two candidates land on one edge.
    """
    by_feature_pair: dict[EdgeKey, list[EdgeKey]] = defaultdict(list)
    for u, v in graph.conflict_edges:
        fu, fv = graph.vertices[u].feature, graph.vertices[v].feature
        key = (fu, fv) if fu < fv else (fv, fu)
        by_feature_pair[key].append((u, v))

    edges = dict(graph.conflict_edges)
    for cand in candidates:
        key = (cand.feature_a, cand.feature_b)
        options = by_feature_pair.get(key, [])
        if not options:
            continue
        best = min(
            options,
            key=lambda e: (
                polygon_distance(graph.vertices[e[0]].shape, graph.vertices[e[1]].shape),
                e,
            ),
        )
        if edges[best] is not None:
            raise DuplicateCandidate(
                f"conflict edge {best} already annotated with candidate {edges[best]}"
            )
        edges[best] = cand.id
    return LayoutGraph(vertices=graph.vertices, conflict_edges=edges, stitch_edges=set(graph.stitch_edges))
