"""Reference oracles the tests check the package against: slow, independent
restatements that no package code, CLI command or benchmark runs.  Tests import
them as ``from oracles import ...``; pytest puts ``tests/`` on ``sys.path``.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, floor
from typing import Iterable, Iterator, Sequence

from simplexcover.arith import IntVector, Permutation, Point
from simplexcover.cover import (
    KIND_TOP,
    Cover,
    CoverElement,
    anchor_coordinate,
    anchor_numerators,
    element_kind,
)
from simplexcover.render import _EQ, FILL, LABEL_PREFIX, MARGIN, STROKE, WIDTH
from simplexcover.samplers import RANDOM_GRID, in_domain
from simplexcover.simplex import KuhnSimplex, contains, contains_oracle, vertices
from simplexcover.triangulation import Cell, check_dn, is_admissible
from simplexcover.verifier import ROUTE_FALLBACK, UncoveredPointError


def unit_volume(d: int) -> Fraction:
    """Volume 1/d! of any unit right d-simplex."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    return Fraction(1, factorial(d))


def rank_descending(values: Sequence[Fraction] | Sequence[int]) -> Permutation:
    """Indices 1..d ordered by value, largest first; ties keep ascending index.

    Sorting is stable, also in reverse, so equal values come out in ascending
    original-index order.  ``verifier._placer`` gets the same order by
    sorting the prefix residuals ranked with their index and placing index d
    after its ties.
    """
    return tuple(sorted(range(1, len(values) + 1), key=(0, *values).__getitem__, reverse=True))


def gram_squared_length(u: Point) -> Fraction:
    """Squared length of a 2-vector under the equilateral metric: u1^2 - u1*u2 + u2^2.

    This is the Gram matrix of the shear taking right 2-simplices to
    equilateral triangles.  The shear itself has an irrational entry; its Gram
    matrix does not, so squared lengths stay rational.
    """
    if len(u) != 2:
        raise ValueError(f"expected a 2-dimensional vector, got dimension {len(u)}")
    a, b = u
    return a * a - a * b + b * b


def strictly_contains(simplex: KuhnSimplex, x: Point) -> bool:
    """Interior membership: 1 > (x-u)_{pi(1)} > ... > (x-u)_{pi(d)} > 0."""
    if len(x) != simplex.dim:
        raise ValueError(f"point has dimension {len(x)}, simplex has {simplex.dim}")
    prev = Fraction(1)
    for j in simplex.perm:
        c = x[j - 1] - simplex.anchor[j - 1]
        if c >= prev:
            return False
        prev = c
    return prev > 0


def make_element(top: bool, v: IntVector, perm: Permutation, n: int) -> CoverElement:
    """The element on Kuhn cell (v, perm), its anchor over n+2 made exact."""
    kind = element_kind(top, perm)
    anchor = tuple(anchor_coordinate(num, n) for num in anchor_numerators(kind, v, n))
    return CoverElement(kind, v, perm, anchor)


def tie_respecting_perms_filtered(v: IntVector, n: int) -> list[Permutation]:
    """Filter all d! permutations through is_admissible.

    O(d!) per anchor; cross-checks the constructive generator.
    """
    d = len(v)
    return [p for p in itertools.permutations(range(1, d + 1)) if is_admissible(v, p, n)]


def weakly_decreasing_vectors_recursive(d: int, bound: int) -> Iterator[IntVector]:
    """All integer vectors with bound >= v_1 >= ... >= v_d >= 0, ascending lex,
    by recursion on the first entry; cross-checks the iterative enumerator."""
    if d == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in weakly_decreasing_vectors_recursive(d - 1, first):
            yield (first, *rest)


def enumerate_cube_triangulation(d: int) -> Iterator[Cell]:
    """The d! cells (0, pi) partitioning the unit cube."""
    check_dn(d, 1)  # the cube is the unit-scale case: only d is checked
    zero = (0,) * d
    return ((zero, perm) for perm in itertools.permutations(range(1, d + 1)))


@dataclass
class PartitionReport:
    simplex_count: int
    volume_expected: Fraction
    volume_ok: bool
    samples_total: int
    bad_points: tuple[tuple[Point, int], ...]

    @property
    def success(self) -> bool:
        return self.volume_ok and not self.bad_points


def bruteforce_containing(cover: Cover, x: Point) -> tuple[CoverElement, ...]:
    """All cover elements containing x, decided by the barycentric oracle."""
    return tuple(el for el in cover.elements if contains_oracle(el.simplex, x))


def _generic_candidate(x: Point) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Anchor and permutation of the only simplex that can strictly contain a
    generic point: strict containment forces every residual into (0, 1), hence
    v = floor(x) and pi = the descending order of the fractional parts."""
    v: list[int] = []
    fracs: list[Fraction] = []
    for xi in x:
        fi = floor(xi)
        frac = xi - fi
        if frac == 0:
            raise ValueError(f"non-generic sample (integer coordinate): {x}")
        v.append(fi)
        fracs.append(frac)
    if len(set(fracs)) != len(fracs):
        raise ValueError(f"non-generic sample (integer coordinate difference): {x}")
    return tuple(v), rank_descending(fracs)


def partition_check(
    cells: Iterable[Cell],
    d: int,
    region_volume: Fraction,
    samples: Iterable[Point],
) -> PartitionReport:
    """Check that the (v, perm) cells tile a region: exact volume accounting
    plus strict containment multiplicity exactly 1 at each generic interior
    sample."""
    cell_list = list(cells)
    keys = set(cell_list)
    if len(keys) != len(cell_list):
        raise ValueError("duplicate (v, perm) cells in triangulation")
    volume_ok = len(cell_list) * unit_volume(d) == region_volume
    bad: list[tuple[Point, int]] = []
    total = 0
    for x in samples:
        total += 1
        v, perm = _generic_candidate(x)
        multiplicity = 0
        if (v, perm) in keys:
            cell = KuhnSimplex(tuple(Fraction(c) for c in v), perm)
            if strictly_contains(cell, x):
                multiplicity = 1
        if multiplicity != 1:
            bad.append((x, multiplicity))
    return PartitionReport(
        simplex_count=len(cell_list),
        volume_expected=region_volume,
        volume_ok=volume_ok,
        samples_total=total,
        bad_points=tuple(bad),
    )


def generic_interior_simplex_samples(
    d: int,
    scale: int,
    count: int,
    seed: int,
    below: Fraction | None = None,
) -> list[Point]:
    """Seeded generic interior points of S^scale: strictly inside, no integer
    coordinate, no integer coordinate difference (so exactly one triangulation
    cell contains each strictly).  ``below`` additionally bounds x_d (slab use).
    Non-generic draws are rejected and redrawn."""
    rng = random.Random(seed)
    out: list[Point] = []
    hi = scale * RANDOM_GRID - 1
    while len(out) < count:
        draws = sorted((rng.randint(1, hi) for _ in range(d)), reverse=True)
        if any(a % RANDOM_GRID == 0 for a in draws):
            continue
        if len({a % RANDOM_GRID for a in draws}) != d:
            continue
        x = tuple(Fraction(a, RANDOM_GRID) for a in draws)
        if below is not None and x[-1] >= below:
            continue
        out.append(x)
    return out


def generic_interior_cube_samples(d: int, count: int, seed: int) -> list[Point]:
    """Seeded generic interior points of the unit cube (coordinates distinct,
    strictly inside), unsorted."""
    rng = random.Random(seed)
    out: list[Point] = []
    while len(out) < count:
        draws = [rng.randint(1, RANDOM_GRID - 1) for _ in range(d)]
        if len(set(draws)) != d:
            continue
        out.append(tuple(Fraction(a, RANDOM_GRID) for a in draws))
    return out


def locate_two_pass(
    X: Sequence[int], n: int, big: int, unit: int
) -> tuple[bool, IntVector, Permutation]:
    """The routing rule of ``verifier._placer`` in two passes over the whole
    row, the reference for its split into prefix and last coordinate:
    ``(above_seam, v, perm)`` for an in-domain x given as numerators X over
    ``big``, with ``unit`` = big/(n+2).  The type-(a) residuals are all made before the type-(b) test,
    and ``rank_descending`` orders all d of them."""
    xd = X[-1]
    seam = big + unit
    if n >= 2 and xd >= seam:
        # u lies in S^{n-1}; flooring picks the containing cell.  The clamp only
        # fires when u_j = n-1 exactly, where the residual must be 1, not 0.
        u = [xj - seam for xj in X]
        v = tuple(min(uj // big, n - 2) for uj in u)
        return True, v, rank_descending([uj - vj * big for uj, vj in zip(u, v)])
    shrink = (n + 1) * unit
    va: list[int] = []
    wa: list[int] = []
    for xj in X[:-1]:
        vj, wj = divmod(xj, shrink)
        if vj > 0 and wj <= unit:
            # one decrement restores the residual to [1-delta, 1]
            vj -= 1
            wj += shrink
        va.append(vj)
        wa.append(wj)
    if xd > big or any(xd > wj for wj in wa):
        va = [(xj - unit) // shrink for xj in X[:-1]]
        wa = [xj - shrink * vj for xj, vj in zip(X, va)]
    return False, (*va, 0), rank_descending((*wa, xd))


def _locate(
    x: Point, d: int, n: int, dl: Fraction
) -> tuple[bool, IntVector, Permutation, Point]:
    """The single routing pass: ``(above_seam, v, perm, w)`` for an in-domain x."""
    xd = x[d - 1]
    if n >= 2 and xd >= 1 + dl:
        # u lies in S^{n-1}; flooring picks the containing cell.  The clamp only
        # fires when u_j = n-1 exactly, where the residual must be 1, not 0.
        u = [xj - (1 + dl) for xj in x]
        v = tuple(min(floor(uj), n - 2) for uj in u)
        w = tuple(uj - vj for uj, vj in zip(u, v))
        return True, v, rank_descending(w), w
    shrink = 1 - dl
    va: list[int] = []
    wa: list[Fraction] = []
    for xj in x[: d - 1]:
        vj = floor(xj / shrink)
        wj = xj - shrink * vj
        if vj > 0 and wj <= dl:
            # one decrement restores the residual to [1-delta, 1]
            vj -= 1
            wj += shrink
        va.append(vj)
        wa.append(wj)
    if xd > 1 or any(xd > wj for wj in wa):
        va = [floor((xj - dl) / shrink) for xj in x[: d - 1]]
        wa = [xj - shrink * vj for xj, vj in zip(x, va)]
    v = (*va, 0)
    w = (*wa, xd)
    return False, v, rank_descending(w), w


def fraction_witness(
    x: Point, d: int, n: int, cover: Cover
) -> tuple[str, CoverElement, Point, str | None]:
    """Point location entirely on Fractions, the way ``witness`` decided it
    before its integer kernel: ``(route, element, w, fallback_reason)``, with
    ``w`` computed by the routing pass (or by the fallback) rather than derived.
    Raises ValueError and UncoveredPointError where ``witness`` does."""
    if len(x) != d or cover.d != d or cover.n != n:
        raise ValueError("point/cover dimension or scale mismatch")
    dl = cover.delta
    if not in_domain(x, n, dl):
        raise ValueError(f"{x} is outside the target simplex")
    above, v, perm, w = _locate(x, d, n, dl)
    formula = make_element(above, v, perm, n)
    known = cover.element_index.get(formula.key)
    if not (above or v[0] <= n):
        reason = "v1_bound"
    elif known is None:
        reason = "missing"
    elif known != formula:
        reason = "anchor"
    elif not contains(known.simplex, x):
        reason = "not_contained"
    else:
        return known.kind, known, w, None
    for el in cover.elements:
        if contains(el.simplex, x):
            if el.kind == KIND_TOP:
                w = tuple(xj - aj for xj, aj in zip(x, el.anchor))
            else:
                w = tuple(xj - (1 - dl) * vj for xj, vj in zip(x, el.v))
            return ROUTE_FALLBACK, el, w, reason
    raise UncoveredPointError(f"no cover element contains in-domain point {x}")


def _to_plane(p: tuple[Fraction, Fraction], equilateral: bool) -> tuple[float, float]:
    x, y = float(p[0]), float(p[1])
    if equilateral:
        return (_EQ[0] * x + _EQ[1] * y, _EQ[2] * x + _EQ[3] * y)
    return (x, y)


def render_svg_fractions(cover: Cover, equilateral: bool = False, labels: bool = False) -> str:
    """``render.render_svg`` on Fractions, the reference for its integer rows:
    every element's ``vertices`` converted with ``float`` one by one, and every
    vertex of every polygon formatted on its own."""
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
