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
``(n+1)v_j+1`` (base_b).  ``cover_groups`` streams the lattice anchors as
``(top, v, perms)``, in canonical order, and ``CoverSpec.rows`` walks it into
element rows ``(kind, v, perm, anchor numerators)``, the numerators made once
per (kind, v); ``iter_cover``, ``elements`` and ``render`` read those rows.
The elements of one (kind, v) share one anchor tuple, with one ``Fraction`` per
distinct numerator: a cover at d=5, n=10 has 120,100 elements on 2,288
anchors, and 31 distinct numerators.

A ``CoverSpec`` is canonical or explicit.  ``build_cover(d, n)`` returns the
canonical cover of (d, n), which makes no element until ``elements`` is read:
``CoverSpec.member`` decides a key ``(kind, v, perm)`` by the construction's
rule instead (a top key is a cell of the S^{n-1} triangulation, a base key a
cell of the base slab of S^{n+1}) and makes that one element, with the anchor
tuple ``elements`` will share.  An explicit cover, ``CoverSpec(d, n,
elements)`` or ``replace(cover, elements=...)``, holds the tuple it was given,
and ``member`` looks keys up in it, so a dropped or altered element is caught.
Each given element must have dimension d and a permutation of 1..d.  A
canonical cover's ``elements`` carry its (d, n), and a cover of another (d, n)
refuses them: ``replace(build_cover(2, 2), n=3)`` would otherwise hold the 6
elements of n = 2 as an explicit n = 3 cover.
Point location (``verifier._router``'s step) asks ``member`` once per key and
keeps its verdict on the cover.

Total: (n+1)^d + (n-1)^d - n^d elements.  Covers may overlap and overhang the
target; nothing here asserts containment in S^{n+delta}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

from .arith import IntVector, Permutation, Point, _scale, is_permutation
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
Row = tuple[str, IntVector, Permutation, IntVector]  # kind, v, perm, anchor numerators over L


class _Elements:
    """``CoverSpec.elements``: the tuple an explicit cover was given, or the
    canonical cover's elements, made on first read and kept."""

    def __get__(
        self, cover: CoverSpec | None, owner: type | None = None
    ) -> tuple[CoverElement, ...] | None:
        if cover is None:
            return None  # the field's default: a canonical cover
        given = cover.__dict__["elements"]
        return cover._canonical_elements if given is None else given

    def __set__(self, cover: CoverSpec, elements: tuple[CoverElement, ...] | None) -> None:
        cover.__dict__["elements"] = elements


class _CanonicalElements(tuple):
    """A canonical cover's elements, tagged with its (d, n) as ``dn``."""

    def __new__(cls, elements: Iterable[CoverElement], d: int, n: int) -> _CanonicalElements:
        tagged = super().__new__(cls, elements)
        tagged.dn = (d, n)
        return tagged


@dataclass(frozen=True)
class CoverSpec:
    """A cover of S^{n+delta}: canonical (``elements`` not given, made from
    the construction when first read) or explicit (the ``elements`` given).
    Either way ``elements`` reads as a tuple; a canonical cover's is in
    canonical order (top, then base).  A canonical cover is identified by
    (d, n), so its ``repr``, ``hash`` and ``==`` make no element; an explicit
    cover compares by its elements."""

    d: int
    n: int
    elements: tuple[CoverElement, ...] = _Elements()  # type: ignore[assignment]

    def __post_init__(self) -> None:
        check_dn(self.d, self.n)
        given = self.__dict__["elements"]
        if isinstance(given, _CanonicalElements) and given.dn != (self.d, self.n):
            d, n = given.dn
            raise ValueError(
                f"elements are those of build_cover({d}, {n}), given for d = {self.d}, "
                f"n = {self.n}; the canonical cover of that (d, n) is build_cover({self.d}, {self.n})"
            )
        for i, el in enumerate(given or ()):
            if len(el.v) != self.d or len(el.anchor) != self.d:
                raise ValueError(f"element {i} is not of dimension d = {self.d}: {el}")
            if not is_permutation(el.perm, self.d):
                raise ValueError(f"element {i} perm {el.perm} is not a permutation of 1..{self.d}")

    def __repr__(self) -> str:
        given = self.__dict__["elements"]
        tail = "" if given is None else f", elements={given!r}"
        return f"CoverSpec(d={self.d!r}, n={self.n!r}{tail})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverSpec):
            return NotImplemented
        # only a canonical cover compared with an explicit one reads its elements
        canonical = self.__dict__["elements"] is None and other.__dict__["elements"] is None
        same = (self.d, self.n) == (other.d, other.n)
        return same and (canonical or self.elements == other.elements)

    def __hash__(self) -> int:
        # an explicit cover may equal a canonical one, so neither hashes its elements
        return hash((self.d, self.n))

    @cached_property
    def delta(self) -> Fraction:
        """The margin 1/(n+2), derived from n so it cannot contradict it."""
        return delta(self.n)

    @cached_property
    def element_index(self) -> dict[Key, CoverElement]:
        return {el.key: el for el in self.elements}

    def rows(self) -> tuple[int, Iterator[Row]]:
        """``(L, rows)``: the cover's elements, in order, as integer rows
        ``(kind, v, perm, anchor numerators over L)``.  A canonical cover
        streams the construction over ``L = n + 2`` and makes no element; an
        explicit cover's anchors are scaled to ``L = lcm(n + 2, their
        denominators)``."""
        given = self.__dict__["elements"]
        if given is None:
            return self.n + 2, _canonical_rows(cover_groups(self.d, self.n), self.n)
        big, anchors = _scale([el.anchor for el in given], self.n)
        return big, ((el.kind, el.v, el.perm, tuple(nums)) for el, nums in zip(given, anchors))

    def member(self, key: Key) -> CoverElement | None:
        """The cover's element with this key, or None if it has none: the
        ``element_index`` lookup once the cover holds its elements, else the
        construction's rule, which makes the element with the anchor tuple
        ``elements`` will share.  ``verifier._check_key`` asks once per key and
        keeps the element in its verdict, and ``elements`` reuses it."""
        if self._held() is not None:
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
        anchor = self._anchors[kind, v] = self._anchor(kind, v, anchor_numerators(kind, v, n))
        return CoverElement(kind, v, perm, anchor)

    def _held(self) -> tuple[CoverElement, ...] | None:
        """The elements given, or a canonical cover's once read, else None."""
        given = self.__dict__["elements"]
        return self.__dict__.get("_canonical_elements") if given is None else given

    def _anchor(self, kind: str, v: IntVector, nums: IntVector) -> Point:
        """The anchor of the canonical (kind, v) elements, numerators ``nums`` over
        n+2: the one ``member`` made, else a new tuple of ``_coordinates``."""
        anchor = self._anchors.get((kind, v))
        if anchor is None:
            coordinates = self._coordinates
            for num in nums:
                if num not in coordinates:
                    coordinates[num] = anchor_coordinate(num, self.n)
            anchor = tuple(map(coordinates.__getitem__, nums))
        return anchor

    def _canonical_stream(self) -> Iterator[CoverElement]:
        # the construction's rows on one lattice anchor share its v, so
        # ``_anchor`` is asked once per kind on each v
        last = None
        for kind, v, perm, nums in self.rows()[1]:
            if v is not last:
                last, anchors = v, {}
            a = anchors.get(kind)
            if a is None:
                a = anchors[kind] = self._anchor(kind, v, nums)
            yield CoverElement(kind, v, perm, a)

    @cached_property
    def _canonical_elements(self) -> _CanonicalElements:
        # the elements ``member`` made for routed keys stay the cover's own;
        # with none made, no element's key is built
        made = {el.key: el for el, _ in self._verdicts.values() if el is not None}
        elements = self._canonical_stream()
        if made:
            elements = (made.get(el.key, el) for el in elements)
        return _CanonicalElements(elements, self.d, self.n)

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
    return CoverSpec(d, n)._canonical_stream()


def _canonical_rows(groups: Iterator[AnchorGroup], n: int) -> Iterator[Row]:
    # the construction's rows over n+2; the numerators are made once per (kind, v)
    for top, v, perms in groups:
        anchors: dict[str, IntVector] = {}
        for perm in perms:
            kind = element_kind(top, perm)
            nums = anchors.get(kind)
            if nums is None:
                nums = anchors[kind] = anchor_numerators(kind, v, n)
            yield kind, v, perm, nums


def build_cover(d: int, n: int) -> CoverSpec:
    """The canonical cover of (d, n).  It makes no element until ``elements``
    is read; point location asks ``CoverSpec.member`` per key instead.

    (d, n) is checked on the call."""
    return CoverSpec(d, n)
