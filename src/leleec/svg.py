"""Deterministic SVG rendering of decomposed layouts.

Mask-1 features are blue, mask-2 orange (mask-3 green for the three-mask
baseline); trim cuts are drawn as a hatched overlay and conflict pairs are
joined by marked red lines. Output is byte-identical across runs: everything
is emitted in sorted order with integer or half-integer coordinates.
"""

from __future__ import annotations

from .geometry import Rect
from .layout_graph import LayoutGraph

MASK_FILLS = {1: "#4f81bd", 2: "#e2862e", 3: "#6aa84f"}
MARGIN = 20


def _fmt(value: float) -> str:
    return f"{value:g}"


def render_svg(
    lg: LayoutGraph,
    colors: dict[int, int],
    trim_rects: list[Rect],
    conflicts: list[tuple[int, int]],
) -> str:
    """SVG document for a layout graph with 1-based mask colors."""
    boxes = [s.shape.bbox for s in lg.vertices] + list(trim_rects)
    if boxes:
        x_lo = min(b.x_lo for b in boxes) - MARGIN
        y_lo = min(b.y_lo for b in boxes) - MARGIN
        x_hi = max(b.x_hi for b in boxes) + MARGIN
        y_hi = max(b.y_hi for b in boxes) + MARGIN
    else:
        x_lo = y_lo = 0
        x_hi = y_hi = 100
    width, height = x_hi - x_lo, y_hi - y_lo

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}">'
    )
    out.append("<defs>")
    out.append(
        '<pattern id="trim" width="6" height="6" patternUnits="userSpaceOnUse" '
        'patternTransform="rotate(45)">'
        '<rect width="6" height="6" fill="#bbbbbb" fill-opacity="0.35"/>'
        '<line x1="0" y1="0" x2="0" y2="6" stroke="#555555" stroke-width="2"/>'
        "</pattern>"
    )
    out.append("</defs>")
    out.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>')

    def tx(x: int | float) -> float:
        return x - x_lo

    def ty(y: int | float) -> float:
        return y_hi - y  # flip: SVG y grows downward

    for seg in lg.vertices:
        fill = MASK_FILLS.get(colors.get(seg.id, 1), "#999999")
        for r in seg.shape.rects:
            out.append(
                f'<rect x="{_fmt(tx(r.x_lo))}" y="{_fmt(ty(r.y_hi))}" '
                f'width="{r.width}" height="{r.height}" fill="{fill}" '
                f'stroke="#333333" stroke-width="1"/>'
            )
    for r in trim_rects:
        out.append(
            f'<rect x="{_fmt(tx(r.x_lo))}" y="{_fmt(ty(r.y_hi))}" '
            f'width="{r.width}" height="{r.height}" fill="url(#trim)" '
            f'stroke="#555555" stroke-width="1" stroke-dasharray="3,2"/>'
        )
    for u, v in sorted(conflicts):
        bu = lg.vertices[u].shape.bbox
        bv = lg.vertices[v].shape.bbox
        ux, uy = (bu.x_lo + bu.x_hi) / 2, (bu.y_lo + bu.y_hi) / 2
        vx, vy = (bv.x_lo + bv.x_hi) / 2, (bv.y_lo + bv.y_hi) / 2
        out.append(
            f'<line x1="{_fmt(tx(ux))}" y1="{_fmt(ty(uy))}" '
            f'x2="{_fmt(tx(vx))}" y2="{_fmt(ty(vy))}" '
            f'stroke="#cc0000" stroke-width="2"/>'
        )
        for cx, cy in ((ux, uy), (vx, vy)):
            out.append(
                f'<circle cx="{_fmt(tx(cx))}" cy="{_fmt(ty(cy))}" r="3" fill="#cc0000"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
