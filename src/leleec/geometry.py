"""Exact integer rectilinear geometry.

All coordinates are integer nanometers and every predicate is decided in
integer arithmetic; distances are carried around *squared* so that
threshold comparisons stay bit-exact.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field

Interval = tuple[int, int]

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


class GeometryError(ValueError):
    """Raised for degenerate or malformed geometric inputs."""


@dataclass(frozen=True, order=True)
class Point:
    x: int
    y: int

    def __post_init__(self) -> None:
        if not isinstance(self.x, int) or not isinstance(self.y, int):
            raise GeometryError(f"point coordinates must be integers, got {self!r}")


@dataclass(frozen=True, order=True)
class Rect:
    """Axis-aligned rectangle with positive area; lo is lower-left, hi upper-right."""

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if self.lo.x >= self.hi.x or self.lo.y >= self.hi.y:
            raise GeometryError(f"degenerate rectangle {self.as_tuple()}")

    @staticmethod
    def of(x_lo: int, y_lo: int, x_hi: int, y_hi: int) -> "Rect":
        return Rect(Point(x_lo, y_lo), Point(x_hi, y_hi))

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.lo.x, self.lo.y, self.hi.x, self.hi.y)

    @property
    def width(self) -> int:
        return self.hi.x - self.lo.x

    @property
    def height(self) -> int:
        return self.hi.y - self.lo.y

    def area(self) -> int:
        return self.width * self.height

    def extent(self, axis: str) -> Interval:
        """Extent along HORIZONTAL (x) or VERTICAL (y)."""
        if axis == HORIZONTAL:
            return (self.lo.x, self.hi.x)
        if axis == VERTICAL:
            return (self.lo.y, self.hi.y)
        raise GeometryError(f"unknown axis {axis!r}")

    def corners(self) -> tuple[Point, Point, Point, Point]:
        return (
            self.lo,
            Point(self.hi.x, self.lo.y),
            Point(self.lo.x, self.hi.y),
            self.hi,
        )

    def translated(self, dx: int, dy: int) -> "Rect":
        return Rect(Point(self.lo.x + dx, self.lo.y + dy), Point(self.hi.x + dx, self.hi.y + dy))


def rect_union_bbox(a: Rect, b: Rect) -> Rect:
    return Rect(
        Point(min(a.lo.x, b.lo.x), min(a.lo.y, b.lo.y)),
        Point(max(a.hi.x, b.hi.x), max(a.hi.y, b.hi.y)),
    )


def rects_overlap(a: Rect, b: Rect) -> bool:
    """True iff interiors intersect; shared boundaries do not count."""
    return a.lo.x < b.hi.x and b.lo.x < a.hi.x and a.lo.y < b.hi.y and b.lo.y < a.hi.y


def rect_distance(a: Rect, b: Rect) -> int:
    """Squared Euclidean distance between closest boundary points (0 iff touch/overlap)."""
    dx = max(b.lo.x - a.hi.x, a.lo.x - b.hi.x, 0)
    dy = max(b.lo.y - a.hi.y, a.lo.y - b.hi.y, 0)
    return dx * dx + dy * dy


def _edge_contact_length(a: Rect, b: Rect) -> int:
    """Length of shared boundary between two touching, non-overlapping rects."""
    if a.hi.x == b.lo.x or b.hi.x == a.lo.x:
        return max(0, min(a.hi.y, b.hi.y) - max(a.lo.y, b.lo.y))
    if a.hi.y == b.lo.y or b.hi.y == a.lo.y:
        return max(0, min(a.hi.x, b.hi.x) - max(a.lo.x, b.lo.x))
    return 0


def projection_interval(a: Rect, b: Rect, axis: str) -> Interval | None:
    """Positive-length overlap of the two extents along axis, else None."""
    a_lo, a_hi = a.extent(axis)
    b_lo, b_hi = b.extent(axis)
    lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
    if lo >= hi:
        return None
    return (lo, hi)


@dataclass(frozen=True)
class Polygon:
    """A rectilinear polygon stored as pairwise interior-disjoint, edge-connected rects."""

    rects: tuple[Rect, ...]
    _bbox: Rect = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.rects:
            raise GeometryError("polygon needs at least one rectangle")
        if not isinstance(self.rects, tuple):
            object.__setattr__(self, "rects", tuple(self.rects))
        rs = self.rects
        for i in range(len(rs)):
            for j in range(i + 1, len(rs)):
                if rects_overlap(rs[i], rs[j]):
                    raise GeometryError(
                        f"polygon rects overlap: {rs[i].as_tuple()} and {rs[j].as_tuple()}"
                    )
        if not _edge_connected(rs):
            raise GeometryError("polygon rects are not edge-connected")
        bbox = rs[0]
        for r in rs[1:]:
            bbox = rect_union_bbox(bbox, r)
        object.__setattr__(self, "_bbox", bbox)

    @staticmethod
    def of(*rects: tuple[int, int, int, int]) -> "Polygon":
        return Polygon(tuple(Rect.of(*r) for r in rects))

    @property
    def bbox(self) -> Rect:
        return self._bbox

    def area(self) -> int:
        return sum(r.area() for r in self.rects)

    def translated(self, dx: int, dy: int) -> "Polygon":
        return Polygon(tuple(r.translated(dx, dy) for r in self.rects))


def _edge_connected(rects: tuple[Rect, ...]) -> bool:
    n = len(rects)
    if n == 1:
        return True
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
    return len(seen) == n


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


def split_polygon(p: Polygon, axis: str, coord: int) -> tuple[Polygon | None, Polygon | None]:
    """Cut p with the line {axis-coordinate == coord} into (low side, high side).

    A side is None when empty. Raises GeometryError when a nonempty side is
    not a valid polygon (e.g. the cut disconnects it).
    """
    low: list[Rect] = []
    high: list[Rect] = []
    for r in p.rects:
        lo, hi = r.extent(axis)
        if hi <= coord:
            low.append(r)
        elif lo >= coord:
            high.append(r)
        else:
            if axis == HORIZONTAL:
                low.append(Rect(r.lo, Point(coord, r.hi.y)))
                high.append(Rect(Point(coord, r.lo.y), r.hi))
            else:
                low.append(Rect(r.lo, Point(r.hi.x, coord)))
                high.append(Rect(Point(r.lo.x, coord), r.hi))
    low_poly = Polygon(tuple(low)) if low else None
    high_poly = Polygon(tuple(high)) if high else None
    return low_poly, high_poly


def subtract_intervals(extent: Interval, covered: list[Interval]) -> list[Interval]:
    """Maximal sub-intervals of extent not covered by the union of covered."""
    lo, hi = extent
    events = sorted((max(lo, a), min(hi, b)) for a, b in covered if a < hi and b > lo)
    out: list[Interval] = []
    cur = lo
    for a, b in events:
        if a > cur:
            out.append((cur, a))
        cur = max(cur, b)
    if cur < hi:
        out.append((cur, hi))
    return out


class GridIndex:
    """Uniform bucket index over rectangles, with square cells of side `cell`.

    Every rectangle is filed under each cell its closed extent meets. Two
    rectangles whose gap is at most `cell` along each axis therefore sit in
    the same or in neighbouring cells, and a rectangle whose interior meets a
    region shares a cell with that region. Items are the positions of the
    rectangles in the input sequence.
    """

    def __init__(self, rects: Sequence[Rect], cell: int) -> None:
        self.cell = cell
        self.buckets: dict[tuple[int, int], list[int]] = defaultdict(list)
        for i, r in enumerate(rects):
            for key in self._cells(r.lo.x, r.lo.y, r.hi.x, r.hi.y):
                self.buckets[key].append(i)

    def _cells(self, x_lo: int, y_lo: int, x_hi: int, y_hi: int) -> list[tuple[int, int]]:
        c = self.cell
        ys = range(y_lo // c, y_hi // c + 1)
        return [(cx, cy) for cx in range(x_lo // c, x_hi // c + 1) for cy in ys]

    def near_pairs(self) -> list[tuple[int, int]]:
        """Sorted item pairs (i, j), i < j, filed in the same or neighbouring cells.

        This is a superset of the pairs whose gap is at most `cell` along
        each axis, so of every pair within squared distance cell**2.
        """
        buckets = self.buckets
        pairs: set[tuple[int, int]] = set()
        for (cx, cy), ids in buckets.items():
            for i in ids:
                for j in ids:
                    if i < j:
                        pairs.add((i, j))
            # each unordered pair of neighbouring cells is visited once
            for key in ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1)):
                for i in ids:
                    for j in buckets.get(key, ()):
                        if i != j:
                            pairs.add((i, j) if i < j else (j, i))
        return sorted(pairs)

    def query(self, r: Rect, margin: int = 0) -> list[int]:
        """Sorted items filed in a cell that r, grown by margin on every side, meets.

        A superset of the items whose rectangle's interior meets that grown
        region.
        """
        found: set[int] = set()
        for key in self._cells(r.lo.x - margin, r.lo.y - margin, r.hi.x + margin, r.hi.y + margin):
            found.update(self.buckets.get(key, ()))
        return sorted(found)
