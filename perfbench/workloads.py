"""Seeded layout generators for the benchmark workloads.

Every generator is a pure function of its size arguments and an integer
input index (run seed + op number), so a run's inputs are fixed by its seed
and the program under test only ever sees the layout files written from
them.
"""

from __future__ import annotations

import random

from leleec.geometry import Polygon
from leleec.layout_graph import Config, Feature
from leleec.synth import gen_synthetic

RULES = Config.from_rules(10, 10)  # w_min = s_min = 10 nm, dis_m = 50 nm


def motif_array(motifs: int, index: int) -> tuple[list[Feature], Config]:
    """The paper's four-wire clique motif, repeated; wire-end cuts allowed."""
    return gen_synthetic("clique4_array", motifs, index, RULES)


def via_clusters(blocks: int, index: int) -> tuple[list[Feature], Config]:
    """Dense via blocks at minimum pitch, spaced beyond dis_m.

    Blocks cycle through 3x4, 4x4, 4x3, 4x4 vias, so every op carries the
    same mix of block sizes. Vias are w_min squares; each row and column gap
    is s_min plus a seeded jitter of up to s_min // 2, which decides whether
    the vias two pitches apart diagonally conflict. No cut fits between vias
    (w_th = dis_m) and no via can be stitched, so every block is an
    independent, cut-free, non-bipartite piece that only the
    branch-and-bound settles.
    """
    rng = random.Random(index)
    w, s = RULES.w_min, RULES.s_min
    jitter = s // 2
    block_span = 4 * (w + s + jitter)
    features: list[Feature] = []
    for b in range(blocks):
        rows, cols = ((3, 4), (4, 4), (4, 3), (4, 4))[b % 4]
        x0 = b * (block_span + RULES.dis_m + s)
        xs = _jittered_starts(cols, x0, rng)
        ys = _jittered_starts(rows, 0, rng)
        for y in ys:
            for x in xs:
                features.append(Feature(len(features), Polygon.of((x, y, x + w, y + w))))
    return features, RULES


def _jittered_starts(n: int, start: int, rng: random.Random) -> list[int]:
    w, s = RULES.w_min, RULES.s_min
    out = [start]
    for _ in range(n - 1):
        out.append(out[-1] + w + s + rng.randrange(s // 2 + 1))
    return out


def random_wires(wires: int, window: int, index: int) -> tuple[list[Feature], Config]:
    """Rejection-sampled straight wires at >= s_min spacing under default rules.

    Wires are 10-12 nm wide and 40-240 nm long, horizontal or vertical, in a
    square window. With the default w_th = dis_m, end-cuts are scarce, so
    conflicts are settled by stitches and the solver; costs are non-zero.
    """
    rng = random.Random(index)
    s = RULES.s_min
    cell = 256  # > longest wire + s_min, so only the 3x3 neighbouring cells matter
    grid: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
    placed: list[tuple[int, int, int, int]] = []
    attempts = 0
    while len(placed) < wires and attempts < 50 * wires:
        attempts += 1
        width = rng.randint(10, 12)
        length = rng.randint(40, 240)
        if rng.random() < 0.5:
            dx, dy = length, width
        else:
            dx, dy = width, length
        x = rng.randrange(window - dx)
        y = rng.randrange(window - dy)
        rect = (x, y, x + dx, y + dy)
        cx, cy = x // cell, y // cell
        if any(
            _gap_sq(rect, other) < s * s
            for gx in (cx - 1, cx, cx + 1)
            for gy in (cy - 1, cy, cy + 1)
            for other in grid.get((gx, gy), ())
        ):
            continue
        grid.setdefault((cx, cy), []).append(rect)
        placed.append(rect)
    return [Feature(i, Polygon.of(r)) for i, r in enumerate(placed)], RULES


def _gap_sq(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> int:
    gx = max(0, b[0] - a[2], a[0] - b[2])
    gy = max(0, b[1] - a[3], a[1] - b[3])
    return gx * gx + gy * gy
