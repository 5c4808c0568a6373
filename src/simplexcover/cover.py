"""The explicit cover of S^{n+delta} by unit right simplices.

With ``delta = 1/(n+2)`` the target splits at the seam ``x_d = 1 + delta``:

* the piece above the seam is a translate of S^{n-1} and is tiled by the
  (n-1)^d triangulation cells, shifted by ``(1+delta)e`` ("top" elements);
* the slab below it is covered by reanchoring the (n+1)^d - n^d slab cells of
  S^{n+1}: a cell whose permutation ends with index d keeps anchor
  ``(1-delta)v`` ("base_a"), any other cell gets ``(1-delta)v + delta*e``
  ("base_b").

Every anchor lies on the grid ``Z/(n+2)``.  ``element_kind`` states the kind
rule and ``anchor_numerator`` the three anchor formulas, once, one coordinate
at a time, as integer numerators over n+2: ``(v_j+1)(n+2)+1`` (top),
``(n+1)v_j`` (base_a) and ``(n+1)v_j+1`` (base_b); ``anchor_numerators``
applies it to each coordinate of v.  ``cover_groups`` streams the lattice anchors as
``(top, v, perms)``, in canonical order, and ``CoverSpec.rows`` walks it into
element rows ``(kind, v, perm, anchor numerators)``, the numerators made once
per (kind, v); ``iter_cover``, ``elements`` and ``render`` read those rows.
The elements of one (kind, v) share one anchor tuple, with one ``Fraction`` per
distinct numerator: a cover at d=5, n=10 has 120,100 elements on 2,288
anchors, and 31 distinct numerators.

``build_cover(d, n)`` returns the canonical cover ``CoverSpec(d, n)``,
identified by (d, n) alone: its ``rows`` stream the construction over n+2, and
it makes no element until ``elements`` is read.  ``CoverSpec.member`` decides
a key ``(kind, v, perm)`` by the construction's rule instead (a top key is a
cell of the S^{n-1} triangulation, a base key a cell of the base slab of
S^{n+1}) and makes that one element, with the anchor tuple ``elements`` will
share.  ``ExplicitCover(d, n, elements)`` holds the elements given, as a
tuple, and ``member`` looks keys up in them, so a dropped or altered element
is caught; each must have dimension d and a permutation of 1..d.  Both are
frozen value classes (``arith._Frozen``) that compare, hash and print by their
fields: ``build_cover(2, 2).__replace__(n=3)`` (``copy.replace`` from Python
3.13) is ``build_cover(2, 3)``, and no explicit cover equals a canonical one.
Point location (``locate._router``'s step) asks ``member`` once per key and
keeps the check it makes of the answer on the cover, in ``_checks``:
one per key routed to, none per point or denominator; ``elements`` reuses
the elements those checks hold.  ``cli`` keeps the cover of the last (d, n)
that ``witness`` or ``verify`` ran at, checks and all, so repeated calls in
one process check each key once; a call at another (d, n) releases it.

Total: (n+1)^d + (n-1)^d - n^d elements.  Covers may overlap and overhang the
target; nothing here asserts containment in S^{n+delta}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

from .arith import IntVector, Permutation, Point, _Frozen, _scale, _set, is_permutation
from .simplex import KuhnSimplex
from .triangulation import base_slab_groups, check_dn, is_admissible, simplex_groups

KIND_TOP = "top"
KIND_BASE_A = "base_a"
KIND_BASE_B = "base_b"
KINDS = (KIND_TOP, KIND_BASE_A, KIND_BASE_B)

AnchorGroup = tuple[bool, IntVector, tuple[Permutation, ...]]  # top, v, perms
Key = tuple[str, IntVector, Permutation]  # kind, v, perm


class CoverElement(_Frozen):
    """One simplex of the cover: its kind, lattice data, and explicit anchor."""

    __match_args__ = ("kind", "v", "perm", "anchor")

    def __init__(self, kind: str, v: IntVector, perm: Permutation, anchor: Point) -> None:
        _set(self, "kind", kind)
        _set(self, "v", v)
        _set(self, "perm", perm)
        _set(self, "anchor", anchor)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")

    @property
    def simplex(self) -> KuhnSimplex:
        return KuhnSimplex(self.anchor, self.perm)

    @property
    def key(self) -> Key:
        return (self.kind, self.v, self.perm)


Row = tuple[str, IntVector, Permutation, IntVector]  # kind, v, perm, anchor numerators over L


class _Cover(_Frozen):
    """What a cover derives from its (d, n) and elements, made on first read."""

    @cached_property
    def delta(self) -> Fraction:
        """The margin 1/(n+2), derived from n so it cannot contradict it."""
        return delta(self.n)

    @cached_property
    def element_index(self) -> dict[Key, CoverElement]:
        return {el.key: el for el in self.elements}

    @cached_property
    def _checks(self) -> dict[tuple, tuple]:
        """``locate._check_of``'s check per placement routed to, filled as
        points are routed: the element (or None) first, and nothing that
        depends on a denominator.  A placement names one key, so this holds
        one entry per key routed to; a check depends on this frozen cover and
        the key alone, so a failed one is kept too; ``cover.__replace__(...)``
        starts with none."""
        return {}


class CoverSpec(_Cover):
    """The canonical cover of (d, n); ``elements`` is made from the
    construction when first read, in canonical order (top, then base)."""

    __match_args__ = ("d", "n")

    def __init__(self, d: int, n: int) -> None:
        _set(self, "d", d)
        _set(self, "n", n)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_dn(self.d, self.n)

    @cached_property
    def elements(self) -> tuple[CoverElement, ...]:
        # the elements ``member`` made for routed keys stay the cover's own;
        # with none made, no element's key is built
        made = {el.key: el for el, *_ in self._checks.values() if el is not None}
        elements = self._stream()
        if made:
            elements = (made.get(el.key, el) for el in elements)
        return tuple(elements)

    def rows(self) -> tuple[int, Iterator[Row]]:
        """``(L, rows)``: the elements, in order, as integer rows ``(kind, v,
        perm, anchor numerators over L)``, streamed from the construction over
        ``L = n + 2``; no element is made."""
        return self.n + 2, _canonical_rows(cover_groups(self.d, self.n), self.n)

    def member(self, key: Key) -> CoverElement | None:
        """The element with this key, or None if the cover has none: the
        ``element_index`` lookup once ``elements`` is read, else the
        construction's rule, which makes the element with the anchor tuple
        ``elements`` will share.  ``locate._check_key`` asks once per key and
        keeps the element in its check, and ``elements`` reuses it."""
        if "elements" in self.__dict__:
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

    def _anchor(self, kind: str, v: IntVector, nums: IntVector) -> Point:
        """The anchor of the (kind, v) elements, numerators ``nums`` over n+2:
        the one ``member`` made, else a new tuple of ``_coordinates``."""
        anchor = self._anchors.get((kind, v))
        if anchor is None:
            coordinates = self._coordinates
            for num in nums:
                if num not in coordinates:
                    coordinates[num] = anchor_coordinate(num, self.n)
            anchor = tuple(map(coordinates.__getitem__, nums))
        return anchor

    def _stream(self) -> Iterator[CoverElement]:
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
    def _coordinates(self) -> dict[int, Fraction]:
        """The anchor coordinates, by numerator over n+2."""
        return {}

    @cached_property
    def _anchors(self) -> dict[tuple[str, IntVector], Point]:
        """The anchor tuples ``member`` made, by (kind, v)."""
        return {}


class ExplicitCover(_Cover):
    """A cover given as its elements, kept in the given order as a tuple."""

    __match_args__ = ("d", "n", "elements")

    def __init__(self, d: int, n: int, elements: Iterable[CoverElement]) -> None:
        _set(self, "d", d)
        _set(self, "n", n)
        _set(self, "elements", tuple(elements))  # a generator is read once, here
        self.__post_init__()

    def __post_init__(self) -> None:
        check_dn(self.d, self.n)
        for i, el in enumerate(self.elements):
            if len(el.v) != self.d or len(el.anchor) != self.d:
                raise ValueError(f"element {i} is not of dimension d = {self.d}: {el}")
            if not is_permutation(el.perm, self.d):
                raise ValueError(f"element {i} perm {el.perm} is not a permutation of 1..{self.d}")

    def rows(self) -> tuple[int, Iterator[Row]]:
        """``(L, rows)``: the elements, in order, as integer rows ``(kind, v,
        perm, anchor numerators over L)``, with ``L = lcm(n + 2, the anchors'
        denominators)``."""
        big, anchors = _scale([el.anchor for el in self.elements], self.n)
        return big, ((el.kind, el.v, el.perm, tuple(nums)) for el, nums in zip(self.elements, anchors))

    def member(self, key: Key) -> CoverElement | None:
        """The element with this key, or None if the cover has none."""
        return self.element_index.get(key)


Cover = CoverSpec | ExplicitCover


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


def anchor_numerator(kind: str, v_j: int, n: int) -> int:
    """Coordinate j of the kind-``kind`` anchor on v, from ``v_j`` alone, as a
    numerator over n+2: ``v_j + 1 + delta`` (top), ``(1-delta)v_j`` (base_a),
    ``(1-delta)v_j + delta`` (base_b)."""
    if kind == KIND_TOP:
        return (v_j + 1) * (n + 2) + 1
    if kind == KIND_BASE_A:
        return (n + 1) * v_j
    return (n + 1) * v_j + 1


def anchor_numerators(kind: str, v: IntVector, n: int) -> IntVector:
    """The anchor of the kind-``kind`` element on v, as numerators over n+2:
    ``anchor_numerator`` on each coordinate of v."""
    return tuple([anchor_numerator(kind, v_j, n) for v_j in v])


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
    return CoverSpec(d, n)._stream()


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
