"""Static SVG figures of two-dimensional covers.

The only floating point in the package lives here, and it starts from
integers.  Each element is read as a row of ``CoverSpec.rows``: its kind, its
permutation and its anchor numerators over one denominator ``L`` (n+2 for a
canonical cover, which makes no element).
Vertex k of an element is its anchor numerators plus ``L`` on the first k
indices of its permutation.  Each distinct vertex is converted once, by
``int / L`` true division (correctly rounded, so the float
``float(Fraction(a, L))`` would give), optionally sheared so right simplices
draw as equilateral triangles, and formatted once; a polygon joins its
vertices' strings.  No ``Fraction``, ``CoverElement`` or
``KuhnSimplex`` is made per element.  Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import math

from .arith import IntVector, Permutation, is_permutation
from .cover import CoverSpec

FILL = {"top": "#4c72b0", "base_a": "#55a868", "base_b": "#dd8452"}
STROKE = {"top": "#2b4a76", "base_a": "#2f6b3c", "base_b": "#9c5220"}
LABEL_PREFIX = {"top": "t", "base_a": "a", "base_b": "b"}
WIDTH = 720.0  # figure width in pixels; the height follows the aspect ratio
MARGIN = 24.0  # blank border around the drawing, in pixels

# Shear taking the right-angle coordinate frame to the equilateral one.
_EQ = (1.0, -0.5, 0.0, math.sqrt(3.0) / 2.0)

def render_svg(cover: CoverSpec, equilateral: bool = False, labels: bool = False) -> str:
    """Render the target outline and every cover element as translucent polygons."""
    if cover.d != 2:
        raise ValueError(f"rendering supports d = 2 only, got d = {cover.d}")
    big, rows = cover.rows()

    def to_plane(p: IntVector) -> tuple[float, float]:
        x, y = p[0] / big, p[1] / big
        if equilateral:
            return (_EQ[0] * x + _EQ[1] * y, _EQ[2] * x + _EQ[3] * y)
        return (x, y)

    # each distinct vertex, by numerators, gets the next position in ``plane``;
    # vertex k adds L to the anchor numerators on the first k indices of perm
    index: dict[IntVector, int] = {}
    position = index.setdefault
    perms: set[Permutation] = set()
    polygons: list[tuple[str, list[int]]] = []
    for kind, _, perm, nums in rows:
        if perm not in perms:
            if not is_permutation(perm, len(nums)):
                raise ValueError(f"perm {perm} is not a permutation of 1..{len(nums)}")
            perms.add(perm)
        cur = list(nums)
        poly = [position(nums, len(index))]
        for j in perm:
            cur[j - 1] += big
            poly.append(position(tuple(cur), len(index)))
        polygons.append((kind, poly))
    plane = [to_plane(p) for p in index]
    del index  # the numerators are not needed past here; free them before the lines
    top = cover.n * big + big // (cover.n + 2)  # n + delta
    outline_xy = [to_plane(p) for p in ((0, 0), (top, 0), (top, top))]

    all_pts = plane + outline_xy
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

    pts = ["%.3f,%.3f" % screen(pt) for pt in plane]
    ends = {
        kind: f'" fill="{FILL[kind]}" fill-opacity="0.45" stroke="{STROKE[kind]}" stroke-width="1"/>'
        for kind in FILL
    }
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{height:.3f}" viewBox="0 0 {WIDTH:.0f} {height:.3f}">',
        f"<!-- cover figure: d={cover.d} n={cover.n} delta={cover.delta} "
        f"equilateral={'true' if equilateral else 'false'} -->",
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    for kind, poly in polygons:
        lines.append('<polygon points="' + " ".join(map(pts.__getitem__, poly)) + ends[kind])
    outline = " ".join("%.3f,%.3f" % screen(pt) for pt in outline_xy)
    lines.append(
        f'<polygon points="{outline}" fill="none" stroke="#222222" '
        'stroke-width="1.5" stroke-dasharray="6 4"/>'
    )
    if labels:
        xs, ys = [p[0] for p in plane], [p[1] for p in plane]
        for idx, (kind, poly) in enumerate(polygons):
            cx = sum(map(xs.__getitem__, poly)) / len(poly)
            cy = sum(map(ys.__getitem__, poly)) / len(poly)
            sx, sy = screen((cx, cy))
            lines.append(
                f'<text x="{sx:.3f}" y="{sy:.3f}" font-size="11" font-family="sans-serif" '
                f'text-anchor="middle" fill="#1a1a1a">{LABEL_PREFIX[kind]}{idx}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
