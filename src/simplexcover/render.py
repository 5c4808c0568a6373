"""Static SVG figures of two-dimensional covers, written as a stream of chunks.

The only floating point in the package lives here, and it starts from
integers.  Each element is read as a row of the cover's ``rows``: its kind,
its permutation and its anchor numerators over one denominator ``L`` (n+2 for
the canonical cover, which makes no element; ``ExplicitCover`` checks the
elements it is given).
Vertex k of an element is its anchor numerators plus ``L`` on the first k
indices of its permutation.  Each distinct vertex is converted once, by
``int / L`` true division (correctly rounded, so the float
``float(Fraction(a, L))`` would give), optionally sheared so right simplices
draw as equilateral triangles, and formatted once; a polygon joins its
vertices' strings.  No ``Fraction``, ``CoverElement`` or
``KuhnSimplex`` is made per element.  Output is deterministic for fixed inputs.

``svg_chunks`` streams the figure.  The header needs the figure's height, so
on the call, before the first chunk, it checks d = 2, walks every row once and
keeps what the lines are made from: each polygon's kind and vertex numbers (a
flat list, three per triangle), each vertex's formatted screen text and, for
the labels, its plane coordinates.  No line is made then.  The chunks are the header, the polygons
``CHUNK_LINES`` lines at a time, the target outline, the labels in the same
batches, and the closing tag; each line ends with a newline.  ``render_svg``
joins them.
"""

from __future__ import annotations

import math
from typing import Iterator

from .arith import IntVector
from .cover import Cover

FILL = {"top": "#4c72b0", "base_a": "#55a868", "base_b": "#dd8452"}
STROKE = {"top": "#2b4a76", "base_a": "#2f6b3c", "base_b": "#9c5220"}
LABEL_PREFIX = {"top": "t", "base_a": "a", "base_b": "b"}
WIDTH = 720.0  # figure width in pixels; the height follows the aspect ratio
MARGIN = 24.0  # blank border around the drawing, in pixels
CHUNK_LINES = 256  # polygon or label lines per chunk; a chunk stays under 64 KiB

# Shear taking the right-angle coordinate frame to the equilateral one.
_EQ = (1.0, -0.5, 0.0, math.sqrt(3.0) / 2.0)


def render_svg(cover: Cover, equilateral: bool = False, labels: bool = False) -> str:
    """Render the target outline and every cover element as translucent polygons."""
    return "".join(svg_chunks(cover, equilateral, labels))


def svg_chunks(cover: Cover, equilateral: bool = False, labels: bool = False) -> Iterator[str]:
    """``render_svg``'s text as a stream of chunks of at most ``CHUNK_LINES``
    lines.  A cover of d other than 2 is a ValueError on the call, and the
    rows are read then too, so the stream itself only formats text."""
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
    kinds: list[str] = []
    corners: list[int] = []  # three vertex positions per polygon, in order
    for kind, _, (i, j), (a, b) in rows:
        kinds.append(kind)
        corners.append(position((a, b), len(index)))
        a, b = (a + big, b) if i == 1 else (a, b + big)
        corners.append(position((a, b), len(index)))
        a, b = (a + big, b) if j == 1 else (a, b + big)
        corners.append(position((a, b), len(index)))
    plane = [to_plane(p) for p in index]
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
    xs, ys = ([p[0] for p in plane], [p[1] for p in plane]) if labels else ((), ())
    header = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{height:.3f}" viewBox="0 0 {WIDTH:.0f} {height:.3f}">\n'
        f"<!-- cover figure: d={cover.d} n={cover.n} delta={cover.delta} "
        f"equilateral={'true' if equilateral else 'false'} -->\n"
        '<rect width="100%" height="100%" fill="#ffffff"/>\n'
    )
    outline = " ".join("%.3f,%.3f" % screen(pt) for pt in outline_xy)
    ends = {
        kind: f'" fill="{FILL[kind]}" fill-opacity="0.45" '
        f'stroke="{STROKE[kind]}" stroke-width="1"/>\n'
        for kind in FILL
    }

    def chunks() -> Iterator[str]:
        yield header
        for lo in range(0, len(kinds), CHUNK_LINES):
            hi = lo + CHUNK_LINES
            vs = iter(corners[3 * lo : 3 * hi])
            yield "".join(
                f'<polygon points="{pts[a]} {pts[b]} {pts[c]}{ends[kind]}'
                for kind, a, b, c in zip(kinds[lo:hi], vs, vs, vs)
            )
        yield (
            f'<polygon points="{outline}" fill="none" stroke="#222222" '
            'stroke-width="1.5" stroke-dasharray="6 4"/>\n'
        )
        if labels:
            for lo in range(0, len(kinds), CHUNK_LINES):
                hi = lo + CHUNK_LINES
                vs = iter(corners[3 * lo : 3 * hi])
                lines = []
                for idx, kind, a, b, c in zip(range(lo, hi), kinds[lo:hi], vs, vs, vs):
                    # the centroid by sum(), which Python 3.12 made compensated for floats
                    cx = sum((xs[a], xs[b], xs[c])) / 3
                    cy = sum((ys[a], ys[b], ys[c])) / 3
                    sx, sy = screen((cx, cy))
                    lines.append(
                        f'<text x="{sx:.3f}" y="{sy:.3f}" font-size="11" font-family="sans-serif" '
                        f'text-anchor="middle" fill="#1a1a1a">{LABEL_PREFIX[kind]}{idx}</text>\n'
                    )
                yield "".join(lines)
        yield "</svg>\n"

    return chunks()
