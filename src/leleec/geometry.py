"""Exact integer rectilinear geometry.

All coordinates are integer nanometers and every predicate is decided in
integer arithmetic; distances are carried around *squared* so that
threshold comparisons stay bit-exact. A `Rect` is a named tuple of four
ints, so it sorts, compares and serialises as (x_lo, y_lo, x_hi, y_hi).
Shapes are checked once, where they enter: `Polygon.of` rejects rects
without positive area, overlapping rects and rects that are not
edge-connected, and checks a one-rect shape, the common case, for area
alone. `Polygon` is a slotted record of its rects and bbox, equal and
hashed by its rects. `Polygon(rects)` trusts its caller; only
`split_polygon` calls it, and checks its halves for connectivity alone,
those of one rect not at all. Every rect the
program derives (split halves, cut rects, merged bboxes) has positive area
by construction. Every neighbour search of the front end reads
`near_pairs`, one banded sweep over rects.

An axis is named by its index k into a `Rect`: 0 for x and 1 for y, so a
rect's extent along it is (r[k], r[k + 2]). `split_polygon` cuts across
that axis, and the stitch stage records each of its cuts as (k, position).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from collections.abc import Sequence
from typing import NamedTuple


class GeometryError(ValueError):
    """Raised for degenerate or malformed geometric inputs."""


class Rect(NamedTuple):
    """Axis-aligned rectangle; (x_lo, y_lo) is lower-left, (x_hi, y_hi) upper-right."""

    x_lo: int
    y_lo: int
    x_hi: int
    y_hi: int

    @property
    def width(self) -> int:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> int:
        return self.y_hi - self.y_lo

    def area(self) -> int:
        return self.width * self.height

    def corners(self) -> tuple[tuple[int, int], ...]:
        """The four (x, y) corners: lower-left, lower-right, upper-left, upper-right."""
        x_lo, y_lo, x_hi, y_hi = self
        return ((x_lo, y_lo), (x_hi, y_lo), (x_lo, y_hi), (x_hi, y_hi))


def rect_union_bbox(a: Rect, b: Rect) -> Rect:
    return Rect(min(a.x_lo, b.x_lo), min(a.y_lo, b.y_lo), max(a.x_hi, b.x_hi), max(a.y_hi, b.y_hi))


def rects_overlap(a: Rect, b: Rect) -> bool:
    """True iff interiors intersect; shared boundaries do not count."""
    # field reads, not unpacking: most calls stop at the first comparison
    return a.x_lo < b.x_hi and b.x_lo < a.x_hi and a.y_lo < b.y_hi and b.y_lo < a.y_hi


def rect_distance(a: Rect, b: Rect) -> int:
    """Squared Euclidean distance between closest boundary points (0 iff touch/overlap)."""
    ax_lo, ay_lo, ax_hi, ay_hi = a
    bx_lo, by_lo, bx_hi, by_hi = b
    dx = max(bx_lo - ax_hi, ax_lo - bx_hi, 0)
    dy = max(by_lo - ay_hi, ay_lo - by_hi, 0)
    return dx * dx + dy * dy


def _edge_contact_length(a: Rect, b: Rect) -> int:
    """Length of shared boundary between two touching, non-overlapping rects."""
    if a.x_hi == b.x_lo or b.x_hi == a.x_lo:
        return max(0, min(a.y_hi, b.y_hi) - max(a.y_lo, b.y_lo))
    if a.y_hi == b.y_lo or b.y_hi == a.y_lo:
        return max(0, min(a.x_hi, b.x_hi) - max(a.x_lo, b.x_lo))
    return 0


class Polygon:
    """A rectilinear polygon stored as positive-area, pairwise interior-disjoint,
    edge-connected rects; `Polygon.of` checks them, the constructor does not.

    A slotted record: `bbox` is computed once, and equality and hashing read
    `rects` alone.
    """

    __slots__ = ("rects", "bbox")

    def __init__(self, rects: tuple[Rect, ...]) -> None:
        self.rects = rects
        bbox = rects[0]
        for r in rects[1:]:
            bbox = rect_union_bbox(bbox, r)
        self.bbox = bbox

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rects == other.rects

    def __hash__(self) -> int:
        return hash((self.rects,))

    def __repr__(self) -> str:
        return f"Polygon(rects={self.rects!r})"

    @staticmethod
    def of(*rects: Sequence[int]) -> "Polygon":
        """The polygon of (x_lo, y_lo, x_hi, y_hi) rects; GeometryError names the first fault.

        One rect is checked for area alone: it has no pair to overlap and
        nothing to connect to.
        """
        if len(rects) == 1:
            r = Rect(*rects[0])
            if r.x_lo >= r.x_hi or r.y_lo >= r.y_hi:
                raise GeometryError(f"degenerate rect {list(r)}")
            return Polygon((r,))
        if not rects:
            raise GeometryError("polygon needs at least one rectangle")
        rs = tuple(Rect(*r) for r in rects)
        for r in rs:
            if r.x_lo >= r.x_hi or r.y_lo >= r.y_hi:
                raise GeometryError(f"degenerate rect {list(r)}")
        for i in range(len(rs)):
            for j in range(i + 1, len(rs)):
                if rects_overlap(rs[i], rs[j]):
                    raise GeometryError(
                        f"polygon rects overlap: {tuple(rs[i])} and {tuple(rs[j])}"
                    )
        _check_connected(rs)
        return Polygon(rs)

    def area(self) -> int:
        return sum(r.area() for r in self.rects)


def _check_connected(rects: Sequence[Rect]) -> None:
    """Raise GeometryError unless the rects (none or more) are edge-connected."""
    n = len(rects)
    if n <= 1:
        return
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j in seen:
                continue
            if rect_distance(rects[i], rects[j]) == 0 and _edge_contact_length(rects[i], rects[j]) > 0:
                seen.add(j)
                stack.append(j)
    if len(seen) != n:
        raise GeometryError("polygon rects are not edge-connected")


def polygon_distance(a: Polygon, b: Polygon) -> int:
    """Squared distance between two polygons: min over all rect pairs."""
    best: int | None = None
    for ra in a.rects:
        for rb in b.rects:
            d = rect_distance(ra, rb)
            if best is None or d < best:
                best = d
                if best == 0:
                    return 0
    assert best is not None
    return best


def rect_overlaps_polygon(r: Rect, p: Polygon) -> bool:
    """True iff r's interior intersects the interior of any rect of p."""
    if not rects_overlap(r, p.bbox):
        return False
    return any(rects_overlap(r, q) for q in p.rects)


def split_polygon(p: Polygon, k: int, coord: int) -> tuple[Polygon | None, Polygon | None]:
    """Cut p with the line {coordinate k == coord} into (low side, high side).

    A side is None when empty. Parts of p's positive-area, disjoint rects
    are positive-area and disjoint too, so a side is checked only for edge
    connectivity: GeometryError is raised when the cut disconnects one. A
    one-rect polygon has nothing to disconnect, and a side it lies on whole
    is p itself.
    """
    if len(p.rects) == 1:
        r = p.rects[0]
        if r[k + 2] <= coord:
            return p, None
        if r[k] >= coord:
            return None, p
        low_r, high_r = _cut_rect(r, k, coord)
        return Polygon((low_r,)), Polygon((high_r,))
    low: list[Rect] = []
    high: list[Rect] = []
    for r in p.rects:
        if r[k + 2] <= coord:
            low.append(r)
        elif r[k] >= coord:
            high.append(r)
        else:
            low_r, high_r = _cut_rect(r, k, coord)
            low.append(low_r)
            high.append(high_r)
    for side in (low, high):
        _check_connected(side)
    return (Polygon(tuple(low)) if low else None, Polygon(tuple(high)) if high else None)


def _cut_rect(r: Rect, k: int, coord: int) -> tuple[Rect, Rect]:
    """The parts of r below and above {coordinate k == coord}, which crosses it."""
    x_lo, y_lo, x_hi, y_hi = r
    if k == 0:
        return Rect(x_lo, y_lo, coord, y_hi), Rect(coord, y_lo, x_hi, y_hi)
    return Rect(x_lo, y_lo, x_hi, coord), Rect(x_lo, coord, x_hi, y_hi)


def near_pairs(rects: Sequence[Rect], gap: int) -> list[tuple[int, int]]:
    """Sorted index pairs (i, j), i < j, of rects at most `gap` apart along each axis.

    Rects that overlap along an axis are a negative gap apart there. This is
    sweep-and-prune run in horizontal bands, each the tallest rect + gap + 1
    high: a rect sits in the band of its low y, so two near rects share a
    band or sit in adjacent ones. Each band is swept by low x together with
    the band above it, and a pair is reported only from the band of its
    lower rect, so none is repeated. The rects compared grow with the rects
    near each other, not with the square of the layout, as one global sweep
    would.
    """
    if not rects:
        return []
    x_lo, y_lo, x_hi, y_hi = (list(c) for c in zip(*rects))
    height = max(hi - lo for lo, hi in zip(y_lo, y_hi)) + gap + 1
    band = [y // height for y in y_lo]
    rows: dict[int, list[int]] = defaultdict(list)
    for i, row in enumerate(band):
        rows[row].append(i)
    pairs = []
    for row, own in rows.items():
        col = sorted(own + rows.get(row + 1, []), key=x_lo.__getitem__)
        xs = [x_lo[i] for i in col]
        for k, i in enumerate(col):
            end = bisect_right(xs, x_hi[i] + gap, k + 1)
            mine, top, bottom = band[i] == row, y_hi[i] + gap, y_lo[i] - gap
            for j in col[k + 1 : end]:
                # two rects of the band above meet again in their own band
                if y_lo[j] <= top and y_hi[j] >= bottom and (mine or band[j] == row):
                    pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs
