"""The explicit cover of S^{n+delta} by unit right simplices.

With ``delta = 1/(n+2)`` the target splits at the seam ``x_d = 1 + delta``:

* the piece above the seam is a translate of S^{n-1} and is tiled by the
  (n-1)^d triangulation cells, shifted by ``(1+delta)e`` ("top" elements);
* the slab below it is covered by reanchoring the (n+1)^d - n^d slab cells of
  S^{n+1}: a cell whose permutation ends with index d keeps anchor
  ``(1-delta)v`` ("base_a"), any other cell gets ``(1-delta)v + delta*e``
  ("base_b").

``make_element`` is the only place that states this kind rule and the three
anchor formulas; ``iter_cover`` streams the elements through it in canonical
order, and ``witness`` checks its routing result against it.

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


def make_element(top: bool, v: IntVector, perm: Permutation, dl: Fraction) -> CoverElement:
    """The element on Kuhn cell (v, perm): top above the seam, else base_a
    exactly when perm ends with d, each kind with its anchor formula."""
    if top:
        return CoverElement(KIND_TOP, v, perm, tuple(v_j + 1 + dl for v_j in v))
    shrink = 1 - dl
    if perm[-1] == len(perm):
        return CoverElement(KIND_BASE_A, v, perm, tuple(shrink * v_j for v_j in v))
    return CoverElement(KIND_BASE_B, v, perm, tuple(shrink * v_j + dl for v_j in v))


def iter_cover(d: int, n: int) -> Iterator[CoverElement]:
    """The cover's elements in canonical order (top, then base), one at a time.

    (d, n) is checked on the call, before the first element is made.
    """
    check_dn(d, n)
    dl = delta(n)
    top = enumerate_simplex_triangulation(d, n - 1) if n >= 2 else ()
    return chain(
        (make_element(True, v, perm, dl) for v, perm in top),
        (make_element(False, v, perm, dl) for v, perm in enumerate_base_slab(d, n + 1)),
    )


def build_cover(d: int, n: int) -> CoverSpec:
    """Construct the cover, invariant-complete and canonically ordered."""
    elements = tuple(iter_cover(d, n))
    return CoverSpec(d=d, n=n, elements=elements)
