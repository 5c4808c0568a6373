"""The explicit cover of S^{n+delta} by unit right simplices.

With ``delta = 1/(n+2)`` the target splits at the seam ``x_d = 1 + delta``:

* the piece above the seam is a translate of S^{n-1} and is tiled by the
  (n-1)^d triangulation cells, shifted by ``(1+delta)e`` ("top" elements);
* the slab below it is covered by reanchoring the (n+1)^d - n^d slab cells of
  S^{n+1}: a cell whose permutation ends with index d keeps anchor
  ``(1-delta)v`` ("base_a"), any other cell gets ``(1-delta)v + delta*e``
  ("base_b").

Every anchor lies on the grid ``Z/(n+2)``.  ``element_kind`` states the kind
rule and ``anchor_numerators`` the three anchor formulas, once, as integer
numerators over n+2: ``(v_j+1)(n+2)+1`` (top), ``(n+1)v_j`` (base_a) and
``(n+1)v_j+1`` (base_b).  ``make_element`` wraps them as ``Fraction(num, n+2)``
and ``iter_cover`` streams the elements through it in canonical order;
``witness`` matches its routing result against the same numerators directly.

Total: (n+1)^d + (n-1)^d - n^d elements.  Covers may overlap and overhang the
target; nothing here asserts containment in S^{n+delta}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterator

from .arith import IntVector, Permutation, Point
from .simplex import KuhnSimplex
from .triangulation import check_dn, enumerate_base_slab, enumerate_simplex_triangulation

KIND_TOP = "top"
KIND_BASE_A = "base_a"
KIND_BASE_B = "base_b"
KINDS = (KIND_TOP, KIND_BASE_A, KIND_BASE_B)


@dataclass(frozen=True)
class CoverElement:
    """One simplex of the cover: its kind, lattice data, and explicit anchor."""

    kind: str
    v: IntVector
    perm: Permutation
    anchor: Point

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")

    @property
    def simplex(self) -> KuhnSimplex:
        return KuhnSimplex(self.anchor, self.perm)

    @property
    def key(self) -> tuple[str, IntVector, Permutation]:
        return (self.kind, self.v, self.perm)


@dataclass(frozen=True)
class CoverSpec:
    """A full cover of S^{n+delta}, elements in canonical order (top, then base)."""

    d: int
    n: int
    elements: tuple[CoverElement, ...]

    @cached_property
    def delta(self) -> Fraction:
        """The margin 1/(n+2), derived from n so it cannot contradict it."""
        return delta(self.n)

    @cached_property
    def element_index(self) -> dict[tuple[str, IntVector, Permutation], CoverElement]:
        return {el.key: el for el in self.elements}


def delta(n: int) -> Fraction:
    """The squeeze margin 1/(n+2)."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return Fraction(1, n + 2)


def cover_split(d: int, n: int) -> tuple[int, int]:
    """Element counts by side of the seam: (n-1)^d top, (n+1)^d - n^d base."""
    check_dn(d, n)
    return (n - 1) ** d, (n + 1) ** d - n**d


def cover_count(d: int, n: int) -> int:
    """Number of cover elements: (n+1)^d + (n-1)^d - n^d."""
    return sum(cover_split(d, n))


def element_kind(top: bool, perm: Permutation) -> str:
    """Top above the seam, else base_a exactly when perm ends with d."""
    if top:
        return KIND_TOP
    return KIND_BASE_A if perm[-1] == len(perm) else KIND_BASE_B


def anchor_numerators(kind: str, v: IntVector, n: int) -> IntVector:
    """The anchor of the kind-``kind`` element on v, as numerators over n+2:
    ``v + (1+delta)e`` (top), ``(1-delta)v`` (base_a), ``(1-delta)v + delta*e``
    (base_b)."""
    if kind == KIND_TOP:
        return tuple((v_j + 1) * (n + 2) + 1 for v_j in v)
    if kind == KIND_BASE_A:
        return tuple((n + 1) * v_j for v_j in v)
    return tuple((n + 1) * v_j + 1 for v_j in v)


def make_element(top: bool, v: IntVector, perm: Permutation, n: int) -> CoverElement:
    """The element on Kuhn cell (v, perm), its anchor over n+2 made exact."""
    kind = element_kind(top, perm)
    anchor = tuple(Fraction(a, n + 2) for a in anchor_numerators(kind, v, n))
    return CoverElement(kind, v, perm, anchor)


def iter_cover(d: int, n: int) -> Iterator[CoverElement]:
    """The cover's elements in canonical order (top, then base), one at a time.

    (d, n) is checked on the call, before the first element is made.
    """
    check_dn(d, n)
    top = enumerate_simplex_triangulation(d, n - 1) if n >= 2 else ()
    return chain(
        (make_element(True, v, perm, n) for v, perm in top),
        (make_element(False, v, perm, n) for v, perm in enumerate_base_slab(d, n + 1)),
    )


def build_cover(d: int, n: int) -> CoverSpec:
    """Construct the cover, invariant-complete and canonically ordered."""
    elements = tuple(iter_cover(d, n))
    return CoverSpec(d=d, n=n, elements=elements)
