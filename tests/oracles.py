"""Reference oracles the tests check the package against: slow, independent
restatements that no package code, CLI command or benchmark runs.  Tests import
them as ``from oracles import ...``; pytest puts ``tests/`` on ``sys.path``.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, floor
from typing import Iterable, Iterator

from simplexcover.arith import IntVector, Permutation, Point, rank_descending
from simplexcover.cover import (
    KIND_TOP,
    CoverElement,
    CoverSpec,
    anchor_coordinate,
    anchor_numerators,
    element_kind,
)
from simplexcover.simplex import KuhnSimplex, contains, contains_oracle
from simplexcover.triangulation import Cell, check_dn, is_admissible
from simplexcover.verifier import RANDOM_GRID
from simplexcover.witness import ROUTE_FALLBACK, UncoveredPointError, in_domain


def unit_volume(d: int) -> Fraction:
    """Volume 1/d! of any unit right d-simplex."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    return Fraction(1, factorial(d))


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


def bruteforce_containing(cover: CoverSpec, x: Point) -> tuple[CoverElement, ...]:
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
    x: Point, d: int, n: int, cover: CoverSpec
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
