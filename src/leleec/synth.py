"""Synthetic layout generators for benchmarks and tests.

Kinds:
  grid          n x n parallel wires; only adjacent wires in a row conflict,
                every row is an independent path (2-colorable, cost 0).
  comb          two interdigitated comb polygons with n teeth each; bipartite.
  clique4_array n copies of the four-feature clique motif that three-mask
                coloring cannot resolve but two masks plus trim cuts can.
  via_array     n x n contact squares at minimum pitch; dense conflicts with
                no room for end-cuts.
"""

from __future__ import annotations

import random

from .geometry import Polygon
from .layout_graph import Config, Feature

KINDS = ("grid", "comb", "clique4_array", "via_array")


def gen_synthetic(
    kind: str, n: int, seed: int, cfg: Config
) -> tuple[list[Feature], Config]:
    """Deterministic synthetic layout; returns (features, effective config)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    if kind == "grid":
        return _grid(n, rng, cfg), cfg
    if kind == "comb":
        return _comb(n, rng, cfg), cfg
    if kind == "clique4_array":
        # wire-end cuts are wire-width structures; the default w_th (= dis_m)
        # would forbid every candidate between minimum-width wires
        motif_cfg = cfg.replace(w_th=cfg.w_min)
        return _clique4_array(n, rng, motif_cfg), motif_cfg
    if kind == "via_array":
        return _via_array(n, rng, cfg), cfg
    raise ValueError(f"unknown synthetic kind {kind!r} (expected one of {KINDS})")


def _grid(n: int, rng: random.Random, cfg: Config) -> list[Feature]:
    w = cfg.w_min
    gap = cfg.dis_m - cfg.s_min  # adjacent wires conflict, second neighbors do not
    pitch = w + gap
    features: list[Feature] = []
    y = 0
    for _ in range(n):
        height = cfg.w_th + rng.randrange(0, cfg.s_min + 1)
        for col in range(n):
            x = col * pitch
            features.append(
                Feature(len(features), Polygon.of((x, y, x + w, y + height)))
            )
        y += height + cfg.dis_m
    return features


def _comb(n: int, rng: random.Random, cfg: Config) -> list[Feature]:
    w = cfg.w_min
    s = cfg.s_min
    tooth_len = cfg.dis_m + rng.randrange(0, s + 1)
    pitch = 2 * (w + 2 * s)
    span = (n - 1) * pitch + (w + 2 * s) + w
    height = 2 * w + tooth_len + s
    lower = [(0, 0, span, w)]
    upper = [(0, height - w, span, height)]
    for k in range(n):
        x = k * pitch
        lower.append((x, w, x + w, w + tooth_len))
        xb = x + w + 2 * s
        upper.append((xb, height - w - tooth_len, xb + w, height - w))
    return [
        Feature(0, Polygon.of(*lower)),
        Feature(1, Polygon.of(*upper)),
    ]


def _clique4_motif(x0: int, y0: int, cfg: Config) -> list[Polygon]:
    w = cfg.w_min
    run = 4 * w
    gap = cfg.s_min
    col2 = x0 + w + gap
    row2 = y0 + run + gap
    return [
        Polygon.of((x0, y0, x0 + w, y0 + run)),
        Polygon.of((col2, y0, col2 + w, y0 + run)),
        Polygon.of((x0, row2, x0 + w, row2 + run)),
        Polygon.of((col2, row2, col2 + w, row2 + run)),
    ]


def _clique4_array(n: int, rng: random.Random, cfg: Config) -> list[Feature]:
    extent = max(2 * cfg.w_min + cfg.s_min, 4 * cfg.w_min + cfg.s_min + 4 * cfg.w_min)
    pitch = extent + cfg.dis_m + cfg.s_min
    features: list[Feature] = []
    for k in range(n):
        jitter = rng.randrange(0, cfg.s_min + 1)
        for shape in _clique4_motif(k * pitch, jitter, cfg):
            features.append(Feature(len(features), shape))
    return features


def _via_array(n: int, rng: random.Random, cfg: Config) -> list[Feature]:
    w = cfg.w_min
    pitch = w + cfg.s_min
    features: list[Feature] = []
    for row in range(n):
        for col in range(n):
            x, y = col * pitch, row * pitch
            features.append(Feature(len(features), Polygon.of((x, y, x + w, y + w))))
    return features
