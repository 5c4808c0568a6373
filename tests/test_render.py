import math
import re
import tracemalloc
from fractions import Fraction

import pytest

from oracles import render_svg_fractions, replace
from simplexcover.cover import CoverElement, ExplicitCover, build_cover
from simplexcover.render import CHUNK_LINES, render_svg, svg_chunks

POINTS_RE = re.compile(r'<polygon points="([^"]+)"')


def polygon_points(svg):
    polys = []
    for match in POINTS_RE.finditer(svg):
        pts = []
        for pair in match.group(1).split():
            sx, sy = pair.split(",")
            pts.append((float(sx), float(sy)))
        polys.append(pts)
    return polys


def test_polygon_counts():
    svg = render_svg(build_cover(2, 2))
    assert svg.count("<polygon") == 6 + 1
    svg = render_svg(build_cover(2, 1))
    assert svg.count("<polygon") == 3 + 1


def test_provenance_comment_and_determinism():
    cover = build_cover(2, 2)
    svg = render_svg(cover)
    assert "<!-- cover figure: d=2 n=2 delta=1/4 equilateral=false -->" in svg
    assert render_svg(cover) == svg
    eq = render_svg(cover, equilateral=True)
    assert "equilateral=true -->" in eq
    assert eq != svg


def test_labels_toggle():
    cover = build_cover(2, 1)
    assert "<text" not in render_svg(cover)
    labelled = render_svg(cover, labels=True)
    assert labelled.count("<text") == 3
    assert ">a0<" in labelled
    assert ">b2<" in labelled


def test_rejects_higher_dimensions():
    with pytest.raises(ValueError):
        render_svg(build_cover(3, 1))


def test_the_stream_refuses_higher_dimensions_on_the_call():
    # refused before a generator exists, so no output file is opened for it
    with pytest.raises(ValueError, match="rendering supports d = 2 only, got d = 3"):
        svg_chunks(build_cover(3, 1))


FLAGS = [(False, False), (False, True), (True, False), (True, True)]


@pytest.mark.parametrize("equilateral,labels", FLAGS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 17])
def test_matches_the_fraction_render(n, equilateral, labels):
    expected = render_svg_fractions(build_cover(2, n), equilateral, labels)
    assert render_svg(build_cover(2, n), equilateral, labels) == expected
    read = build_cover(2, n)
    assert read.elements  # a canonical cover that holds its elements
    assert render_svg(read, equilateral, labels) == expected


def off_grid(elements):
    """The elements with the first one's anchor moved off Z/(n+2), by (1/7, -1/3)."""
    first = elements[0]
    anchor = (first.anchor[0] + Fraction(1, 7), first.anchor[1] - Fraction(1, 3))
    return (replace(first, anchor=anchor), *elements[1:])


@pytest.mark.parametrize("equilateral,labels", FLAGS)
@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda els: els[:2] + els[3:], id="dropped"),
        pytest.param(lambda els: els[::-1], id="reversed"),
        pytest.param(off_grid, id="off-grid"),
    ],
)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_explicit_covers_match_the_fraction_render(n, edit, equilateral, labels):
    cover = build_cover(2, n)
    explicit = ExplicitCover(2, n, edit(cover.elements))
    expected = render_svg_fractions(explicit, equilateral, labels)
    assert render_svg(explicit, equilateral, labels) == expected
    assert render_svg(explicit, equilateral, labels) != render_svg(cover, equilateral, labels)


def test_canonical_render_makes_no_element(monkeypatch):
    made = []
    monkeypatch.setattr(CoverElement, "__post_init__", lambda el: made.append(el))
    cover = build_cover(2, 50)
    svg = render_svg(cover, equilateral=True, labels=True)
    assert "elements" not in cover.__dict__  # the cached_property was never read
    assert made == []
    assert svg.count("<polygon") == 51**2 + 49**2 - 50**2 + 1


@pytest.mark.parametrize(
    "perm,anchor",
    [
        pytest.param((1, 1), (0, 0), id="repeated"),
        pytest.param((2, 3), (0, 0), id="out-of-range"),
        pytest.param((1, 2, 3), (0, 0), id="longer-than-anchor"),
        pytest.param((1,), (0, 0), id="shorter-than-anchor"),
    ],
)
def test_rejects_an_element_whose_perm_is_not_a_permutation(perm, anchor):
    # refused when the cover is made, so no such cover reaches render
    cover = build_cover(2, 2)
    bad = CoverElement("base_a", (0, 0), perm, tuple(Fraction(c) for c in anchor))
    with pytest.raises(ValueError, match="is not a permutation of 1..2"):
        ExplicitCover(2, 2, (*cover.elements, bad))


def test_an_element_of_another_dimension_is_refused_before_drawing():
    # a 3-dimensional element used to be drawn from its first two coordinates
    cover = build_cover(2, 2)
    bad = CoverElement("base_a", (0, 0, 0), (1, 2, 3), (0, 0, 0))
    with pytest.raises(ValueError, match="element 6 is not of dimension d = 2"):
        ExplicitCover(2, 2, (*cover.elements, bad))


def side_lengths(poly):
    out = []
    for i in range(len(poly)):
        (x1, y1), (x2, y2) = poly[i], poly[(i + 1) % len(poly)]
        out.append(math.hypot(x2 - x1, y2 - y1))
    return out


def test_equilateral_polygons_have_equal_sides():
    svg = render_svg(build_cover(2, 2), equilateral=True)
    polys = polygon_points(svg)
    for poly in polys[:-1]:  # last polygon is the dashed target outline
        a, b, c = side_lengths(poly)
        assert abs(a - b) < 1e-2 * a
        assert abs(b - c) < 1e-2 * a


def test_right_polygons_are_not_equilateral():
    svg = render_svg(build_cover(2, 1))
    poly = polygon_points(svg)[0]
    a, b, c = side_lengths(poly)
    longest, shortest = max(a, b, c), min(a, b, c)
    assert longest > 1.3 * shortest  # hypotenuse sqrt(2) vs legs


def test_viewbox_and_background_present():
    svg = render_svg(build_cover(2, 3))
    assert 'viewBox="0 0 720' in svg
    assert '<rect width="100%" height="100%" fill="#ffffff"/>' in svg
    assert svg.rstrip().endswith("</svg>")


# n = 40 draws 1,602 triangles: seven polygon batches and seven label batches
STREAM_N = 40
MAX_CHUNK_CHARS = 64 * 1024


@pytest.mark.parametrize("labels", [False, True])
@pytest.mark.parametrize("explicit", [False, True], ids=["canonical", "explicit"])
def test_the_stream_joins_to_the_figure(explicit, labels):
    cover = build_cover(2, STREAM_N)
    if explicit:
        cover = ExplicitCover(2, STREAM_N, off_grid(cover.elements)[::-1])
    chunks = list(svg_chunks(cover, True, labels))
    assert len(cover.elements) > 6 * CHUNK_LINES
    assert "".join(chunks) == render_svg(cover, True, labels)
    assert "".join(chunks) == render_svg_fractions(cover, True, labels)
    assert len(chunks) == 3 + 7 * (2 if labels else 1)  # header, batches, outline, end
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert max(map(len, chunks)) <= MAX_CHUNK_CHARS


def test_the_stream_of_a_large_figure_holds_no_copy_of_it():
    # n = 100, with labels, is a 2.56 MB figure: consuming the stream holds
    # neither a list of its lines nor their join
    cover = build_cover(2, 100)
    tracemalloc.start()
    try:
        chars = longest = 0
        for chunk in svg_chunks(cover, True, True):
            chars += len(chunk)
            longest = max(longest, len(chunk))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chars == 2_558_027
    assert longest <= MAX_CHUNK_CHARS
    assert peak <= 5 * 1024 * 1024
