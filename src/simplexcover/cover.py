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
``(n+1)v_j+1`` (base_b).  ``cover_groups`` streams the cover one lattice
anchor at a time, as ``(top, v, perms)``: the elements on v, in canonical
order.  An element's kind depends on (top, perm) and its anchor on (kind, v)
only, so ``iter_cover`` makes each anchor tuple once per (kind, v) and shares
it between those elements, with one ``Fraction`` per distinct numerator: a
cover at d=5, n=10 has 120,100 elements on 2,288 anchors, and 31 distinct
numerators.  ``cover`` formats each anchor's line text once per kind from the
same stream.

A ``CoverSpec`` is canonical or explicit.  ``build_cover(d, n)`` returns the
canonical cover of (d, n), which makes no element until ``elements`` is read:
``CoverSpec.member`` decides a key ``(kind, v, perm)`` by the construction's
rule instead (the kind is ``element_kind``, a top key is a cell of the S^{n-1}
triangulation, a base key a cell of the base slab of S^{n+1}) and makes that
one element from ``anchor_numerators``.  An explicit cover, ``CoverSpec(d, n,
elements)`` or ``replace(cover, elements=...)``, holds the tuple it was given,
and ``member`` looks keys up in it, so a dropped or altered element is caught.
Point location (``verifier._route``, for ``witness`` and ``verify`` alike)
asks ``member`` once per key, matches the element against the same
numerators, and keeps its verdict on each key on the cover.

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
from .triangulation import base_slab_groups, check_dn, is_admissible, simplex_groups

KIND_TOP = "top"
KIND_BASE_A = "base_a"
KIND_BASE_B = "base_b"
KINDS = (KIND_TOP, KIND_BASE_A, KIND_BASE_B)

AnchorGroup = tuple[bool, IntVector, tuple[Permutation, ...]]  # top, v, perms
Key = tuple[str, IntVector, Permutation]  # kind, v, perm


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
    def key(self) -> Key:
        return (self.kind, self.v, self.perm)


# verifier._check_key's verdict on a key: the element and its anchor numerators,
# or None and the failed check
Verdict = tuple[CoverElement, IntVector] | tuple[None, str]


class _Elements:
    """``CoverSpec.elements``: the tuple an explicit cover was given, or the
    canonical cover's elements, made on first read and kept."""

    def __get__(
        self, cover: CoverSpec | None, owner: type | None = None
    ) -> tuple[CoverElement, ...] | None:
        if cover is None:
            return None  # the field's default: a canonical cover
        elements = cover.__dict__["elements"]
        if elements is None:
            elements = cover.__dict__["elements"] = cover._canonical_elements()
        return elements

    def __set__(self, cover: CoverSpec, elements: tuple[CoverElement, ...] | None) -> None:
        cover.__dict__["elements"] = elements


@dataclass(frozen=True)
class CoverSpec:
    """A cover of S^{n+delta}: canonical (``elements`` not given, made from
    the construction when first read) or explicit (the ``elements`` given).
    Either way ``elements`` reads as a tuple; a canonical cover's is in
    canonical order (top, then base)."""

    d: int
    n: int
    elements: tuple[CoverElement, ...] = _Elements()  # type: ignore[assignment]

    def __post_init__(self) -> None:
        check_dn(self.d, self.n)

    @cached_property
    def delta(self) -> Fraction:
        """The margin 1/(n+2), derived from n so it cannot contradict it."""
        return delta(self.n)

    @cached_property
    def element_index(self) -> dict[Key, CoverElement]:
        return {el.key: el for el in self.elements}

    def member(self, key: Key) -> CoverElement | None:
        """The cover's element with this key, or None if it has none.

        Once ``elements`` exists (an explicit cover, or a canonical one that
        was read) this is the ``element_index`` lookup.  Before that, a
        canonical cover decides by the construction's rule and makes the
        element, with the anchor tuple and Fractions ``elements`` will share;
        ``verifier._check_key`` asks once per key and keeps the element in
        its verdict, and ``elements`` reuses it.
        """
        if self.__dict__["elements"] is not None:
            return self.element_index.get(key)
        kind, v, perm = key
        n = self.n
        top = kind == KIND_TOP
        if (
            len(v) != self.d
            or not (
                is_admissible(v, perm, n - 1)
                if top
                else v[-1] == 0 and is_admissible(v, perm, n + 1)
            )
            or kind != element_kind(top, perm)
        ):
            return None
        anchor = self._anchors.get((kind, v))
        if anchor is None:
            nums = anchor_numerators(kind, v, n)
            anchor = self._anchors[kind, v] = _anchor(nums, n, self._coordinates)
        return CoverElement(kind, v, perm, anchor)

    def _canonical_elements(self) -> tuple[CoverElement, ...]:
        # the elements ``member`` made for routed keys stay the cover's own;
        # with none made, no element's key is built
        made = {el.key: el for el, _ in self._verdicts.values() if el is not None}
        elements = _elements(cover_groups(self.d, self.n), self.n, self._coordinates, self._anchors)
        return tuple(made.get(el.key, el) for el in elements) if made else tuple(elements)

    @cached_property
    def _coordinates(self) -> dict[int, Fraction]:
        """A canonical cover's anchor coordinates, by numerator over n+2."""
        return {}

    @cached_property
    def _anchors(self) -> dict[tuple[str, IntVector], Point]:
        """The anchor tuples ``member`` made, by (kind, v)."""
        return {}

    @cached_property
    def _verdicts(self) -> dict[Key, Verdict]:
        """``verifier._check_key``'s verdict per key, filled as points are routed.
        A verdict depends on this frozen cover and the key alone, so a failed
        one is kept too; ``replace(cover, ...)`` starts with none."""
        return {}


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


def anchor_coordinate(num: int, n: int) -> Fraction:
    """The anchor coordinate with numerator ``num`` over n+2, made exact."""
    return Fraction(num, n + 2)


def _anchor(nums: IntVector, n: int, coordinates: dict[int, Fraction]) -> Point:
    """The anchor with numerators ``nums`` over n+2.  ``coordinates`` maps each
    numerator to its Fraction; missing ones are made and added."""
    anchor = []
    for num in nums:
        c = coordinates.get(num)
        if c is None:
            c = coordinates[num] = anchor_coordinate(num, n)
        anchor.append(c)
    return tuple(anchor)


def cover_groups(d: int, n: int) -> Iterator[AnchorGroup]:
    """``(top, v, perms)`` for each lattice anchor v of the cover, in canonical
    order (top, then base).  Its elements are, for each perm in order, the
    ``element_kind(top, perm)`` element on (v, perm); base_a and base_b
    elements interleave in it.

    (d, n) is checked on the call, before the first group is made.
    """
    check_dn(d, n)
    top = simplex_groups(d, n - 1) if n >= 2 else ()
    return chain(
        ((True, v, perms) for v, perms in top),
        ((False, v, perms) for v, perms in base_slab_groups(d, n + 1)),
    )


def iter_cover(d: int, n: int) -> Iterator[CoverElement]:
    """The cover's elements in canonical order (top, then base), one at a time.

    (d, n) is checked on the call, before the first element is made.
    """
    return _elements(cover_groups(d, n), n, {}, {})


def _elements(
    groups: Iterator[AnchorGroup],
    n: int,
    coordinates: dict[int, Fraction],
    shared: dict[tuple[str, IntVector], Point],
) -> Iterator[CoverElement]:
    # the elements of one kind on one anchor share a single anchor tuple: the
    # one in ``shared`` for that (kind, v), if any; ``coordinates`` is _anchor's
    for top, v, perms in groups:
        anchors: dict[str, Point] = {}
        for perm in perms:
            kind = element_kind(top, perm)
            anchor = anchors.get(kind)
            if anchor is None:
                anchor = anchors[kind] = shared.get((kind, v)) or _anchor(
                    anchor_numerators(kind, v, n), n, coordinates
                )
            yield CoverElement(kind, v, perm, anchor)


def build_cover(d: int, n: int) -> CoverSpec:
    """The canonical cover of (d, n).  It makes no element until ``elements``
    is read; point location asks ``CoverSpec.member`` per key instead.

    (d, n) is checked on the call."""
    return CoverSpec(d, n)
