"""Deterministic point location: find a cover element containing a given point.

Every predicate of point location is the sign of an affine form on the grid
``Z/(n+2)`` the anchors live on, so it is decided on plain ints.  The point is
scaled once to numerators ``X_j = x_j * L`` over ``L = lcm(n+2, denominators
of x)``; with ``D = L/(n+2)``, delta is ``D``, ``1-delta`` is ``(n+1)D``, the
seam ``1+delta`` is ``L+D`` and the target side ``n+delta`` is ``nL+D``.
``Fraction`` appears only where x comes in and the result goes out.

One pass of floor divisions plus one descending sort reads off the containing
Kuhn cell ``(v, perm)`` and whether it lies above the seam, from the residual
``w`` whose order gives ``perm``.  Above the seam (``x_d >= 1 + delta``,
possible only for n >= 2) it floors ``x - (1+delta)e``.  Below it, it tries the
type-(a) anchor ``v_j = floor(x_j / (1-delta))``, decremented once when that
leaves a residual at or below delta (so positive anchors always keep their
residual above delta).  If ``x_d`` then exceeds 1 or some residual, index d
cannot sort last, and the type-(b) anchor ``v_j = floor((x_j - delta)/(1-delta))``
is used instead; it lands every residual in [delta, 1).  The kind and the
anchor numerators come from ``cover.element_kind`` and
``cover.anchor_numerators``, the rule the cover is built with.

The formula element is then checked: a base anchor must have ``v_1 <= n``
(``v1_bound``), the cover must hold an element with its key (``missing``) whose
anchor equals the formula (``anchor``, compared by cross-multiplying), and that
element must exactly contain x (``not_contained``).  A failed check (an
implementation defect, never observed) falls back to an exhaustive scan of the
cover so the function stays total; the result is flagged as ``fallback`` and
names the check in ``fallback_reason``.

One private step, ``_route``, takes a point already scaled to an integer row
``X`` over ``L`` and does all of the above, the scan included.  The first
three checks depend on the key ``(kind, v, perm)`` alone: ``_check_key`` makes
that verdict once per key and cover, and it is kept on the cover, failed or
not.  Containment runs for every point.  ``witness`` scales x and builds the
result; ``verifier.tally`` routes a whole campaign's rows and makes no
``Fraction`` unless a point must be scanned or shown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .arith import IntVector, Permutation, Point, rank_descending
from .cover import (
    KIND_BASE_A,
    KIND_BASE_B,
    KIND_TOP,
    CoverElement,
    CoverSpec,
    Key,
    Verdict,
    anchor_numerators,
    element_kind,
)
from .simplex import _descends, contains

ROUTE_FALLBACK = "fallback"
ROUTES = (KIND_TOP, KIND_BASE_A, KIND_BASE_B, ROUTE_FALLBACK)


class UncoveredPointError(RuntimeError):
    """No cover element contains an in-domain point.  Seeing this would
    contradict the covering theorem; it exists to make failures loud."""


@dataclass(frozen=True)
class WitnessResult:
    element: CoverElement
    route: str
    x: Point
    delta: Fraction
    # on the fallback route, the failed check: v1_bound, missing, anchor or not_contained
    fallback_reason: str | None = None

    @cached_property
    def w(self) -> Point:
        """The residual x - anchor (top) or x - (1-delta)v (base); diagnostic only."""
        el = self.element
        if el.kind == KIND_TOP:
            return tuple(xj - aj for xj, aj in zip(self.x, el.anchor))
        shrink = 1 - self.delta
        return tuple(xj - shrink * vj for xj, vj in zip(self.x, el.v))


def in_domain(x: Point, n: int, eps: Fraction) -> bool:
    """Exact test for n+eps >= x_1 >= ... >= x_d >= 0."""
    return _descends(n + eps, x)


def _locate(X: Sequence[int], n: int, big: int, unit: int) -> tuple[bool, IntVector, Permutation]:
    """The single routing pass: ``(above_seam, v, perm)`` for an in-domain x
    given as numerators X over ``big`` (L above), with ``unit`` = D = big/(n+2)."""
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


def _scale(points: Sequence[Point], n: int) -> tuple[int, list[list[int]]]:
    """The points as integer rows over one common denominator
    ``L = lcm(n+2, denominators of the points)``: ``(L, [X, ...])``."""
    big = math.lcm(n + 2, *(c.denominator for x in points for c in x))
    return big, [[c.numerator * (big // c.denominator) for c in x] for x in points]


def _point(X: Sequence[int], big: int) -> Point:
    """The point with numerators X over ``big``, made exact."""
    return tuple(Fraction(c, big) for c in X)


def _check_key(cover: CoverSpec, key: Key) -> Verdict:
    """The checks that depend on the key alone: ``(element, anchor numerators)``
    when the key passes ``v1_bound``, ``missing`` and ``anchor``, else
    ``(None, the failed check)``."""
    kind, v, _ = key
    n = cover.n
    if kind != KIND_TOP and v[0] > n:
        return None, "v1_bound"
    known = cover.element_index.get(key)
    if known is None:
        return None, "missing"
    nums = anchor_numerators(kind, v, n)
    if len(known.anchor) != len(v) or any(
        a.numerator * (n + 2) != num * a.denominator for a, num in zip(known.anchor, nums)
    ):
        return None, "anchor"
    return known, nums


def _route(X: Sequence[int], big: int, cover: CoverSpec) -> tuple[CoverElement, str, str | None]:
    """Locate the point with numerators X over ``big`` (a multiple of
    ``cover.n + 2``) in the cover: ``(element, route, fallback_reason)``.

    The formula element is returned on its kind's route when its key's
    verdict (``_check_key``, made once per key and kept on the cover) and
    exact containment pass.  Otherwise the exhaustive scan finds the element,
    on the ``fallback`` route with the failed check as its reason.  Raises
    UncoveredPointError when no element contains the point, and ValueError
    for a point outside the target simplex.
    """
    n = cover.n
    unit = big // (n + 2)
    if not _descends(n * big + unit, X):
        raise ValueError(f"{_point(X, big)} is outside the target simplex")
    above, v, perm = _locate(X, n, big, unit)
    key = (element_kind(above, perm), v, perm)
    verdicts = cover._verdicts
    verdict = verdicts.get(key)
    if verdict is None:
        verdict = verdicts[key] = _check_key(cover, key)
    known, nums = verdict  # a failed verdict holds its check in place of nums
    if known is not None and _descends(big, (X[j - 1] - nums[j - 1] * unit for j in perm)):
        return known, known.kind, None
    reason = nums if known is None else "not_contained"
    x = _point(X, big)
    for el in cover.elements:
        if contains(el.simplex, x):
            return el, ROUTE_FALLBACK, reason
    raise UncoveredPointError(f"no cover element contains in-domain point {x}")


def witness(x: Point, d: int, n: int, cover: CoverSpec) -> WitnessResult:
    """Produce a cover element exactly containing x, with its route.

    The element returned is always the cover's own instance.  Routes other
    than ``fallback`` are the element's kind; ``fallback`` marks a defensive
    exhaustive scan and signals a defect in the routing pass.
    """
    if len(x) != d or cover.d != d or cover.n != n:
        raise ValueError("point/cover dimension or scale mismatch")
    big, (X,) = _scale((x,), n)
    element, route, reason = _route(X, big, cover)
    return WitnessResult(element, route, x, cover.delta, reason)
