"""Static SVG figures of two-dimensional covers.

The only floating point in the package lives here: exact rational vertices are
converted to floats at the last step, optionally sheared so right simplices
draw as equilateral triangles.  Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cover import CoverSpec
from .simplex import vertices

FILL = {"top": "#4c72b0", "base_a": "#55a868", "base_b": "#dd8452"}
STROKE = {"top": "#2b4a76", "base_a": "#2f6b3c", "base_b": "#9c5220"}
LABEL_PREFIX = {"top": "t", "base_a": "a", "base_b": "b"}
WIDTH = 720.0  # figure width in pixels; the height follows the aspect ratio
MARGIN = 24.0  # blank border around the drawing, in pixels

# Shear taking the right-angle coordinate frame to the equilateral one.
_EQ = (1.0, -0.5, 0.0, math.sqrt(3.0) / 2.0)


def _to_plane(p: tuple[Fraction, Fraction], equilateral: bool) -> tuple[float, float]:
    x, y = float(p[0]), float(p[1])
    if equilateral:
        return (_EQ[0] * x + _EQ[1] * y, _EQ[2] * x + _EQ[3] * y)
    return (x, y)


def render_svg(cover: CoverSpec, equilateral: bool = False, labels: bool = False) -> str:
    """Render the target outline and every cover element as translucent polygons."""
    if cover.d != 2:
        raise ValueError(f"rendering supports d = 2 only, got d = {cover.d}")
    top = cover.n + cover.delta
    outline = [
        (Fraction(0), Fraction(0)),
        (top, Fraction(0)),
        (top, top),
    ]
    polygons = [
        (el, [_to_plane(p, equilateral) for p in vertices(el.simplex)]) for el in cover.elements
    ]
    outline_xy = [_to_plane(p, equilateral) for p in outline]

    all_pts = [pt for _, poly in polygons for pt in poly] + outline_xy
    min_x = min(p[0] for p in all_pts)
    max_x = max(p[0] for p in all_pts)
    min_y = min(p[1] for p in all_pts)
    max_y = max(p[1] for p in all_pts)
    span_x = max(max_x - min_x, 1e-9)
    scale = (WIDTH - 2 * MARGIN) / span_x
    height = (max_y - min_y) * scale + 2 * MARGIN

    def screen(pt: tuple[float, float]) -> tuple[float, float]:
        # y axis flipped: world up is screen up
        return (MARGIN + (pt[0] - min_x) * scale, MARGIN + (max_y - pt[1]) * scale)

    def fmt(poly: list[tuple[float, float]]) -> str:
        return " ".join(f"{sx:.3f},{sy:.3f}" for sx, sy in map(screen, poly))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{height:.3f}" viewBox="0 0 {WIDTH:.0f} {height:.3f}">',
        f"<!-- cover figure: d={cover.d} n={cover.n} delta={cover.delta} "
        f"equilateral={'true' if equilateral else 'false'} -->",
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    for el, poly in polygons:
        lines.append(
            f'<polygon points="{fmt(poly)}" fill="{FILL[el.kind]}" fill-opacity="0.45" '
            f'stroke="{STROKE[el.kind]}" stroke-width="1"/>'
        )
    lines.append(
        f'<polygon points="{fmt(outline_xy)}" fill="none" stroke="#222222" '
        'stroke-width="1.5" stroke-dasharray="6 4"/>'
    )
    if labels:
        for idx, (el, poly) in enumerate(polygons):
            cx = sum(p[0] for p in poly) / len(poly)
            cy = sum(p[1] for p in poly) / len(poly)
            sx, sy = screen((cx, cy))
            lines.append(
                f'<text x="{sx:.3f}" y="{sy:.3f}" font-size="11" font-family="sans-serif" '
                f'text-anchor="middle" fill="#1a1a1a">{LABEL_PREFIX[el.kind]}{idx}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
