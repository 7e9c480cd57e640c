from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field

import pytest

import leleec.geometry
from leleec.geometry import (
    GeometryError,
    Polygon,
    Rect,
    near_pairs,
    polygon_distance,
    rect_distance,
    rect_overlaps_polygon,
    split_polygon,
)
from leleec.layout_io import ValidationError, parse_layout

from conftest import random_shapes


R = Rect


def test_rect_distance_axis_gap():
    assert rect_distance(R(0, 0, 10, 10), R(20, 0, 30, 10)) == 100


def test_rect_distance_overlapping_is_zero():
    assert rect_distance(R(0, 0, 10, 10), R(5, 5, 15, 15)) == 0


def test_rect_distance_corner_pythagorean():
    assert rect_distance(R(0, 0, 10, 10), R(13, 14, 20, 20)) == 3**2 + 4**2


def test_rect_distance_symmetric():
    rng = random.Random(7)
    for _ in range(300):
        a = R(rng.randrange(40), rng.randrange(40), rng.randrange(41, 80), rng.randrange(41, 80))
        b = R(rng.randrange(40), rng.randrange(40), rng.randrange(41, 80), rng.randrange(41, 80))
        assert rect_distance(a, b) == rect_distance(b, a)


def test_rect_distance_zero_iff_touch_or_overlap():
    rng = random.Random(11)
    for _ in range(500):
        a = R(rng.randrange(30), rng.randrange(30), rng.randrange(31, 60), rng.randrange(31, 60))
        b = R(rng.randrange(30), rng.randrange(30), rng.randrange(31, 60), rng.randrange(31, 60))
        d = rect_distance(a, b)
        touches_or_overlaps = (
            a.x_lo <= b.x_hi and b.x_lo <= a.x_hi and a.y_lo <= b.y_hi and b.y_lo <= a.y_hi
        )
        assert (d == 0) == touches_or_overlaps


def test_rect_distance_matches_float_oracle_on_axis_overlap():
    # if projections overlap on one axis, distance is the squared gap on the other
    rng = random.Random(13)
    for _ in range(300):
        a = R(0, 0, 10, 10)
        dx = rng.randrange(-30, 31)
        b = R(dx, 25, dx + 10, 35)
        d = rect_distance(a, b)
        if max(a.x_lo, b.x_lo) < min(a.x_hi, b.x_hi):
            assert d == 15 * 15
        assert d == int(round(_float_distance(a, b) ** 2))


def _float_distance(a: Rect, b: Rect) -> float:
    dx = max(b.x_lo - a.x_hi, a.x_lo - b.x_hi, 0)
    dy = max(b.y_lo - a.y_hi, a.y_lo - b.y_hi, 0)
    return math.hypot(dx, dy)


def test_polygon_distance_single_rects_degenerates_to_rect_distance():
    a = Polygon.of((0, 0, 10, 10))
    b = Polygon.of((20, 0, 30, 10))
    assert polygon_distance(a, b) == rect_distance(a.rects[0], b.rects[0])


def test_polygon_distance_l_shape_brute_force():
    l_shape = Polygon.of((0, 0, 10, 40), (10, 0, 40, 10))
    far = Polygon.of((60, 30, 70, 40))
    expected = min(
        rect_distance(ra, rb) for ra in l_shape.rects for rb in far.rects
    )
    assert polygon_distance(l_shape, far) == expected
    assert expected == (60 - 40) ** 2 + (30 - 10) ** 2


def test_polygon_distance_identical_is_zero():
    p = Polygon.of((0, 0, 10, 40))
    assert polygon_distance(p, p) == 0


def test_polygon_distance_random_brute_force():
    rng = random.Random(3)
    for _ in range(100):
        rects_a = [(x, y, x + 5 + rng.randrange(10), y + 5 + rng.randrange(10))
                   for x, y in [(rng.randrange(40), rng.randrange(40))]]
        a = Polygon.of(*rects_a)
        rects_b = [(x, y, x + 5 + rng.randrange(10), y + 5 + rng.randrange(10))
                   for x, y in [(60 + rng.randrange(40), rng.randrange(40))]]
        b = Polygon.of(*rects_b)
        expected = min(rect_distance(ra, rb) for ra in a.rects for rb in b.rects)
        assert polygon_distance(a, b) == expected


def test_rect_overlaps_polygon_edge_sharing_is_not_overlap():
    assert not rect_overlaps_polygon(R(0, 0, 5, 5), Polygon.of((5, 0, 10, 5)))


def test_rect_overlaps_polygon_interior():
    assert rect_overlaps_polygon(R(0, 0, 5, 5), Polygon.of((4, 4, 10, 10)))


def test_rect_overlaps_polygon_notch():
    # U-shaped polygon; probe sits inside the bounding box but in the notch
    u_shape = Polygon.of((0, 0, 30, 10), (0, 10, 10, 30), (20, 10, 30, 30))
    probe = R(12, 12, 18, 28)
    assert not rect_overlaps_polygon(probe, u_shape)
    # point-sampling oracle on the integer grid
    for x in range(probe.x_lo, probe.x_hi):
        for y in range(probe.y_lo, probe.y_hi):
            inside = any(
                r.x_lo < x + 1 and x < r.x_hi and r.y_lo < y + 1 and y < r.y_hi
                for r in u_shape.rects
            )
            assert not inside
    assert rect_overlaps_polygon(R(5, 5, 25, 15), u_shape)


def test_degenerate_rect_rejected(tmp_path):
    """Positive area is checked once, by Polygon, which the layout parser calls."""
    # zero width, zero height, inverted
    for rect in ((0, 0, 0, 10), (0, 10, 10, 10), (10, 0, 0, 40)):
        message = f"degenerate rect {list(rect)}"
        with pytest.raises(GeometryError, match=re.escape(message)):
            Polygon.of(rect)
        # after a valid rect that it would touch, too
        with pytest.raises(GeometryError, match=re.escape(message)):
            Polygon.of((-10, 0, 0, 10), rect)
        path = tmp_path / "layout.json"
        feature = {"id": 0, "rects": [list(rect)]}
        path.write_text(json.dumps({"format": 1, "w_min": 10, "s_min": 10, "features": [feature]}))
        with pytest.raises(ValidationError) as exc:
            parse_layout(path)
        assert str(exc.value) == f"{path}: features[0]: {message}"


def test_polygon_rejects_overlapping_rects():
    with pytest.raises(GeometryError):
        Polygon.of((0, 0, 10, 10), (5, 5, 15, 15))


def test_polygon_rejects_disconnected_rects():
    with pytest.raises(GeometryError):
        Polygon.of((0, 0, 10, 10), (20, 0, 30, 10))
    with pytest.raises(GeometryError):
        # corner contact only: zero-length shared edge
        Polygon.of((0, 0, 10, 10), (10, 10, 20, 20))


def test_split_polygon_keeps_area():
    p = Polygon.of((0, 0, 10, 40), (10, 0, 40, 10))
    low, high = split_polygon(p, 0, 5)
    assert low is not None and high is not None
    assert low.area() + high.area() == p.area()


def test_split_polygon_outside_gives_empty_side():
    p = Polygon.of((0, 0, 10, 40))
    low, high = split_polygon(p, 0, 50)
    assert high is None and low is not None and low.area() == p.area()


def test_split_polygon_rejects_a_cut_that_disconnects_a_side():
    """The one check a split keeps: the halves of a checked shape have positive
    area and are disjoint, but a cut can leave a side in two parts."""
    u_shape = Polygon.of((0, 0, 30, 10), (0, 10, 10, 30), (20, 10, 30, 30))
    # across both arms: the arm tops on the high side do not touch
    with pytest.raises(GeometryError, match="^polygon rects are not edge-connected$"):
        split_polygon(u_shape, 1, 20)
    # through the base: both sides stay whole
    low, high = split_polygon(u_shape, 1, 5)
    assert low == Polygon.of((0, 0, 30, 5))
    assert high == Polygon.of((0, 5, 30, 10), (0, 10, 10, 30), (20, 10, 30, 30))


# ---- the one-rect branches and the slotted record against the general bodies


@dataclass(frozen=True)
class FrozenPolygon:
    """`Polygon` as a frozen dataclass, the record it replaced: its equality
    and hash are the ones `Polygon` keeps."""

    rects: tuple[Rect, ...]
    bbox: Rect = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bbox = self.rects[0]
        for r in self.rects[1:]:
            bbox = Rect(min(bbox[0], r[0]), min(bbox[1], r[1]), max(bbox[2], r[2]), max(bbox[3], r[3]))
        object.__setattr__(self, "bbox", bbox)


def general_polygon_of(*rects):
    """`Polygon.of` without its one-rect branch: every shape takes the pair
    loop and the connectivity check."""
    if not rects:
        raise GeometryError("polygon needs at least one rectangle")
    rs = tuple(Rect(*r) for r in rects)
    for r in rs:
        if r.x_lo >= r.x_hi or r.y_lo >= r.y_hi:
            raise GeometryError(f"degenerate rect {list(r)}")
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            if leleec.geometry.rects_overlap(rs[i], rs[j]):
                raise GeometryError(f"polygon rects overlap: {tuple(rs[i])} and {tuple(rs[j])}")
    leleec.geometry._check_connected(rs)
    return Polygon(rs)


def general_split_polygon(p, k, coord):
    """`split_polygon` without its one-rect branch: both sides are checked
    for connectivity."""
    low, high = [], []
    for r in p.rects:
        if r[k + 2] <= coord:
            low.append(r)
        elif r[k] >= coord:
            high.append(r)
        else:
            x_lo, y_lo, x_hi, y_hi = r
            if k == 0:
                low.append(Rect(x_lo, y_lo, coord, y_hi))
                high.append(Rect(coord, y_lo, x_hi, y_hi))
            else:
                low.append(Rect(x_lo, y_lo, x_hi, coord))
                high.append(Rect(x_lo, coord, x_hi, y_hi))
    for side in (low, high):
        leleec.geometry._check_connected(side)
    return (Polygon(tuple(low)) if low else None, Polygon(tuple(high)) if high else None)


def outcome(f, *args):
    """f's result, or the text of the GeometryError it raises."""
    try:
        return f(*args)
    except GeometryError as exc:
        return f"GeometryError: {exc}"


def assert_same_polygon(got, expected):
    """Equal, with the same bbox and hash, as the frozen record too."""
    if expected is None or isinstance(expected, str):
        assert got == expected
        return
    assert got == expected and not got != expected
    assert got.bbox == expected.bbox
    frozen = FrozenPolygon(expected.rects)
    assert got.bbox == frozen.bbox
    assert hash(got) == hash(expected) == hash(frozen)
    assert repr(got) == repr(frozen).replace("FrozenPolygon", "Polygon")


def test_polygon_is_a_slotted_record_with_the_frozen_equality_and_hash():
    p = Polygon.of((0, 0, 10, 40), (10, 0, 40, 10))
    assert not hasattr(p, "__dict__")
    assert p == Polygon((R(0, 0, 10, 40), R(10, 0, 40, 10))) and p.bbox == (0, 0, 40, 40)
    assert p != Polygon((R(0, 0, 10, 40),)) and p != p.rects and p != FrozenPolygon(p.rects)
    assert len({p, Polygon(p.rects), Polygon.of((0, 0, 10, 40))}) == 2
    assert_same_polygon(p, Polygon(p.rects))


def test_one_rect_branches_match_the_general_bodies():
    """Seeded rects, degenerate ones too, and cuts below, across and above them."""
    rng = random.Random(2200)
    rects = 0
    for _ in range(3000):
        x, y = rng.randrange(-50, 50), rng.randrange(-50, 50)
        rect = (x, y, x + rng.randrange(-3, 60), y + rng.randrange(-3, 60))
        p = outcome(Polygon.of, rect)
        assert_same_polygon(p, outcome(general_polygon_of, rect))
        if isinstance(p, str):
            continue
        rects += 1
        for k in (0, 1):
            for coord in (rect[k] - 1, rect[k], rng.randrange(rect[k], rect[k + 2] + 1), rect[k + 2], rect[k + 2] + 1):
                got, expected = split_polygon(p, k, coord), general_split_polygon(p, k, coord)
                assert_same_polygon(got[0], expected[0])
                assert_same_polygon(got[1], expected[1])
    assert 2000 < rects < 3000


def test_multi_rect_split_matches_the_general_body():
    """The many-rect body is the reference's, its GeometryError texts too."""
    rng = random.Random(2300)
    raised = 0
    for _ in range(60):
        for f in random_shapes(rng, 8, rng.choice([1, 5]), 200):
            p = f.shape
            assert_same_polygon(outcome(Polygon.of, *p.rects), outcome(general_polygon_of, *p.rects))
            for k in (0, 1):
                for coord in range(p.bbox[k] - 1, p.bbox[k + 2] + 2, 3):
                    got = outcome(split_polygon, p, k, coord)
                    expected = outcome(general_split_polygon, p, k, coord)
                    if isinstance(expected, str):
                        raised += 1
                        assert got == expected
                        continue
                    assert_same_polygon(got[0], expected[0])
                    assert_same_polygon(got[1], expected[1])
    assert raised > 0


# ---- the banded sweep against its all-pairs reference


def all_near_pairs(boxes, gap):
    """Every pair (i, j), i < j, at most gap apart along each axis, by brute force."""
    return [
        (i, j)
        for i, a in enumerate(boxes)
        for j in range(i + 1, len(boxes))
        if max(boxes[j][0] - a[2], a[0] - boxes[j][2]) <= gap
        and max(boxes[j][1] - a[3], a[1] - boxes[j][3]) <= gap
    ]


def _random_boxes(rng, n, span):
    boxes = []
    for _ in range(n):
        x, y = rng.randrange(-span, span), rng.randrange(-span, span)
        boxes.append((x, y, x + rng.randrange(1, 60), y + rng.randrange(1, 60)))
    return boxes


def test_near_pairs_matches_all_pairs_reference():
    found = 0
    for seed in range(60):
        rng = random.Random(1300 + seed)
        boxes = _random_boxes(rng, rng.randrange(0, 80), rng.choice([50, 200, 800]))
        if boxes and rng.random() < 0.3:
            boxes[rng.randrange(len(boxes))] = (0, -400, 8, 400)  # sets the band height
        for gap in (0, 1, 7, 50):
            pairs = near_pairs(boxes, gap)
            assert pairs == all_near_pairs(boxes, gap), (seed, gap)
            found += len(pairs)
    assert found > 1000


def test_near_pairs_edge_cases():
    assert near_pairs([], 5) == []
    assert near_pairs([(0, 0, 10, 10)], 5) == []
    # touching at gap 0, exactly gap apart kept, gap + 1 dropped, on either axis
    assert near_pairs([(0, 0, 10, 10), (10, 0, 20, 10)], 0) == [(0, 1)]
    assert near_pairs([(0, 0, 10, 10), (0, 15, 10, 20)], 5) == [(0, 1)]
    assert near_pairs([(0, 0, 10, 10), (0, 16, 10, 20)], 5) == []
    assert near_pairs([(16, 0, 20, 10), (0, 0, 10, 10)], 5) == []
    assert near_pairs([(15, 15, 20, 20), (0, 0, 10, 10)], 5) == [(0, 1)]
    # negative coordinates, equal low x, and one tall box that sets the band height
    boxes = [(-30, -30, -20, -20), (-30, -14, -25, -10), (-30, 500, -20, 510), (-18, -900, -16, 900)]
    assert near_pairs(boxes, 6) == [(0, 1), (0, 3), (2, 3)] == all_near_pairs(boxes, 6)


def _wires(rng, n, window):
    """n random 10-12 nm wide, 40-240 nm long wires in a square window."""
    boxes = []
    for _ in range(n):
        w, length = rng.randint(10, 12), rng.randint(40, 240)
        dx, dy = (length, w) if rng.random() < 0.5 else (w, length)
        x, y = rng.randrange(window - dx), rng.randrange(window - dy)
        boxes.append((x, y, x + dx, y + dy))
    return boxes


def test_near_pairs_work_grows_linearly(monkeypatch):
    """Boxes compared, read off the sweep windows: linear at fixed density.

    One global x-sweep compares about n**1.5 boxes here (8.7x for 4x the
    wires); the banded sweep about as many as there are wires.
    """
    compared = [0]
    bisect_right = leleec.geometry.bisect_right

    def counted(xs, x, lo):
        end = bisect_right(xs, x, lo)
        compared[0] += end - lo
        return end

    monkeypatch.setattr(leleec.geometry, "bisect_right", counted)
    counts = []
    for wires, window in ((250, 2750), (1000, 5500)):
        compared[0] = 0
        boxes = _wires(random.Random(wires), wires, window)
        pairs = near_pairs(boxes, 50)
        assert len(pairs) <= compared[0] < 10 * wires
        counts.append(compared[0])
    assert counts[1] <= 4.5 * counts[0], counts
