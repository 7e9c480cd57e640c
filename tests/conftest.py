"""Shared instance builders for the test suite."""

from __future__ import annotations

import random

import pytest

from leleec.geometry import Polygon, polygon_distance
from leleec.layout_graph import Config, Feature


def make_features(*rect_lists) -> list[Feature]:
    return [Feature(i, Polygon.of(*rects)) for i, rects in enumerate(rect_lists)]


def clique4_motif() -> tuple[list[Feature], Config]:
    """Four minimum-width wires, pairwise in conflict; trim cuts can fix what
    three-mask coloring cannot."""
    cfg = Config.from_rules(10, 10, w_th=10)
    feats = make_features(
        [(0, 0, 10, 40)],
        [(20, 0, 30, 40)],
        [(0, 50, 10, 90)],
        [(20, 50, 30, 90)],
    )
    return feats, cfg


def gamma_quad() -> tuple[list[Feature], Config]:
    """Rail + two tall wires + one wire between them.

    The rail forces the tall wires onto one mask; the only conflict-free
    decomposition merges all three upper wires through two dash-mergeable
    cuts, which the uncorrected conflict rows cannot see.
    """
    cfg = Config.from_rules(10, 10, w_th=12, enable_stitch=False)
    feats = make_features(
        [(0, -20, 38, -10)],
        [(0, 0, 10, 100)],
        [(28, 0, 38, 100)],
        [(14, 8, 24, 108)],
    )
    return feats, cfg


def stitch_ring() -> tuple[list[Feature], Config]:
    """Five-wire odd conflict ring with no end-cut candidates.

    The two long wires acquire stitch candidates; one active stitch turns the
    odd ring even, so the optimum drops from one conflict to one stitch.
    """
    cfg = Config.from_rules(10, 10)
    feats = make_features(
        [(0, 30, 10, 70)],
        [(0, 90, 10, 130)],
        [(0, 150, 300, 160)],
        [(290, 30, 300, 130)],
        [(0, 0, 300, 10)],
    )
    return feats, cfg


def preselect_ring() -> tuple[list[Feature], Config]:
    """Even 8-ring whose only candidate sits on one ring edge.

    Contracting that edge turns the ring odd, so the end-cut pre-selection
    that leleec once had (it contracted such edges) cost one conflict here
    that the exact solve avoids.
    """
    cfg = Config.from_rules(10, 10, enable_stitch=False)
    feats = make_features(
        [(0, 0, 10, 100)],
        [(55, 0, 65, 100)],
        [(-10, 120, 0, 160)],
        [(65, -60, 75, -20)],
        [(-61, 60, -51, 100)],
        [(-61, -10, -51, 30)],
        [(-55, -90, -15, -50)],
        [(15, -90, 55, -80)],
    )
    return feats, cfg


def via_block(rows: int = 4, cols: int = 4) -> tuple[list[Feature], Config]:
    """w_min vias at minimum pitch: a dense, cut-free, non-bipartite piece
    that only the branch-and-bound settles."""
    cfg = Config.from_rules(10, 10)
    feats = [
        Feature(cols * r + c, Polygon.of((20 * c, 20 * r, 20 * c + 10, 20 * r + 10)))
        for r in range(rows)
        for c in range(cols)
    ]
    return feats, cfg


def random_layout(rng: random.Random, n: int, box: int = 150) -> list[Feature]:
    """Up to n non-touching rectangular wires placed by rejection sampling."""
    shapes: list[Polygon] = []
    tries = 0
    max_tries = max(300, 20 * n)
    while len(shapes) < n and tries < max_tries:
        tries += 1
        w = rng.choice([8, 10, 12])
        length = rng.randrange(10, 90)
        x = rng.randrange(0, box)
        y = rng.randrange(0, box)
        rect = (x, y, x + w, y + length) if rng.random() < 0.5 else (x, y, x + length, y + w)
        p = Polygon.of(rect)
        if all(polygon_distance(p, s) > 0 for s in shapes):
            shapes.append(p)
    return [Feature(i, p) for i, p in enumerate(shapes)]


def random_config(rng: random.Random) -> Config:
    return Config.from_rules(
        10,
        10,
        w_th=rng.choice([10, 12, 50]),
        enable_stitch=rng.random() < 0.4,
    )


@pytest.fixture
def motif():
    return clique4_motif()
