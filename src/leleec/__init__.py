"""Exact two-mask-plus-trim (LELE end-cutting) layout decomposition."""

from .geometry import Polygon, Rect, polygon_distance, rect_distance
from .layout_graph import Config, Feature, LayoutGraph, Segment
from .endcut import EndCutCandidate, EndCutGraph
from .ilp_model import DecompResult, IlpModel
from .decomposer import decompose, solve_monolithic
from .solver import SolveStats, brute_force, solve

__all__ = [
    "Config",
    "DecompResult",
    "EndCutCandidate",
    "EndCutGraph",
    "Feature",
    "IlpModel",
    "LayoutGraph",
    "Polygon",
    "Rect",
    "Segment",
    "SolveStats",
    "brute_force",
    "decompose",
    "polygon_distance",
    "rect_distance",
    "solve",
    "solve_monolithic",
]
