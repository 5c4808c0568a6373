"""Unit right d-simplices anchored on a point and a coordinate order.

A unit right simplex ``k(u, pi)`` is the convex hull of the path
``u, u + e^{pi(1)}, u + e^{pi(1)} + e^{pi(2)}, ..., u + e``.  Membership has a
closed form as a chain of coordinate inequalities; an independent barycentric
oracle (exact linear solve) is kept alongside it for cross-checking.

That chain, ``top >= s_1 >= ... >= s_d >= 0``, is written once, in
``_descends``: ``contains`` runs it on Fraction residuals,
``samplers.in_domain`` on the coordinates themselves, and ``verifier._router``'s
step on integer numerators over a common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .arith import Permutation, Point, is_permutation

ONE = Fraction(1)


@dataclass(frozen=True)
class KuhnSimplex:
    """The unit right simplex with base vertex ``anchor`` and edge order ``perm``."""

    anchor: Point
    perm: Permutation

    def __post_init__(self) -> None:
        if not is_permutation(self.perm, len(self.anchor)):
            raise ValueError(f"perm {self.perm} is not a permutation of 1..{len(self.anchor)}")

    @property
    def dim(self) -> int:
        return len(self.anchor)


def vertices(simplex: KuhnSimplex) -> tuple[Point, ...]:
    """The d+1 vertices in path order, from the anchor up to anchor + e."""
    pts = [simplex.anchor]
    cur = list(simplex.anchor)
    for j in simplex.perm:
        cur[j - 1] = cur[j - 1] + 1
        pts.append(tuple(cur))
    return tuple(pts)


def _descends(top: Fraction | int, values: Iterable[Fraction] | Iterable[int]) -> bool:
    """The chain ``top >= s_1 >= ... >= s_d >= 0`` over ``values`` (Fractions or
    ints alike)."""
    prev = top
    for c in values:
        if c > prev:
            return False
        prev = c
    return prev >= 0


def contains(simplex: KuhnSimplex, x: Point) -> bool:
    """Exact membership: 1 >= (x-u)_{pi(1)} >= ... >= (x-u)_{pi(d)} >= 0."""
    if len(x) != simplex.dim:
        raise ValueError(f"point has dimension {len(x)}, simplex has {simplex.dim}")
    u = simplex.anchor
    return _descends(ONE, (x[j - 1] - u[j - 1] for j in simplex.perm))


def _solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan elimination over Fractions; raises on a singular system."""
    n = len(rows)
    m = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [v / inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def barycentric(simplex: KuhnSimplex, x: Point) -> tuple[Fraction, ...]:
    """Exact barycentric coordinates of x with respect to vertices(simplex)."""
    if len(x) != simplex.dim:
        raise ValueError(f"point has dimension {len(x)}, simplex has {simplex.dim}")
    verts = vertices(simplex)
    d = simplex.dim
    rows = [[verts[k][i] for k in range(d + 1)] for i in range(d)]
    rows.append([ONE] * (d + 1))
    rhs = [x[i] for i in range(d)] + [ONE]
    return tuple(_solve_linear(rows, rhs))


def contains_oracle(simplex: KuhnSimplex, x: Point) -> bool:
    """Independent membership test: solve for barycentric coordinates and check
    they are all nonnegative.  Must agree with ``contains`` everywhere."""
    return all(lam >= 0 for lam in barycentric(simplex, x))
