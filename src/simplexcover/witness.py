"""Deterministic point location: find a cover element containing a given point.

For x in S^{n+delta} one pass of floor arithmetic plus one descending sort
reads off the containing Kuhn cell ``(v, perm)``, whether it lies above the
seam, and the residual ``w`` whose order gives ``perm``.  Above the seam
(``x_d >= 1 + delta``, possible only for n >= 2) it floors ``x - (1+delta)e``.
Below it, it tries the type-(a) anchor ``v_j = floor(x_j / (1-delta))``,
decremented once when that leaves a residual at or below delta (so positive
anchors always keep their residual above delta).  If ``x_d`` then exceeds 1 or
some residual, index d cannot sort last, and the type-(b) anchor
``v_j = floor((x_j - delta)/(1-delta))`` is used instead; it lands every
residual in [delta, 1).  The kind and anchor are not decided here:
``cover.make_element`` turns the cell into the formula element, the same
function the cover is built with.

The formula element is then checked: a base anchor must have ``v_1 <= n``,
the cover must hold an element equal to it (same key and same anchor), and
that element must exactly contain x.  Any failed check (an implementation
defect, never observed) falls back to an exhaustive scan of the cover so the
function stays total, and the result is flagged as ``fallback``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import IntVector, Permutation, Point, rank_descending, rat_floor
from .cover import KIND_BASE_A, KIND_BASE_B, KIND_TOP, CoverElement, CoverSpec, make_element
from .simplex import contains

ROUTE_FALLBACK = "fallback"
ROUTES = (KIND_TOP, KIND_BASE_A, KIND_BASE_B, ROUTE_FALLBACK)


class UncoveredPointError(RuntimeError):
    """No cover element contains an in-domain point.  Seeing this would
    contradict the covering theorem; it exists to make failures loud."""


@dataclass(frozen=True)
class WitnessResult:
    element: CoverElement
    route: str
    w: Point  # residual x - (1-delta)v (base) or x - anchor (top); diagnostic only


def in_domain(x: Point, n: int, eps: Fraction) -> bool:
    """Exact test for n+eps >= x_1 >= ... >= x_d >= 0."""
    prev = n + eps
    for xi in x:
        if xi > prev:
            return False
        prev = xi
    return prev >= 0


def _locate(
    x: Point, d: int, n: int, dl: Fraction
) -> tuple[bool, IntVector, Permutation, Point]:
    """The single routing pass: ``(above_seam, v, perm, w)`` for an in-domain x."""
    xd = x[d - 1]
    if n >= 2 and xd >= 1 + dl:
        # u lies in S^{n-1}; flooring picks the containing cell.  The clamp only
        # fires when u_j = n-1 exactly, where the residual must be 1, not 0.
        u = [xj - (1 + dl) for xj in x]
        v = tuple(min(rat_floor(uj), n - 2) for uj in u)
        w = tuple(uj - vj for uj, vj in zip(u, v))
        return True, v, rank_descending(w), w
    shrink = 1 - dl
    va: list[int] = []
    wa: list[Fraction] = []
    for xj in x[: d - 1]:
        vj = rat_floor(xj / shrink)
        wj = xj - shrink * vj
        if vj > 0 and wj <= dl:
            # one decrement restores the residual to [1-delta, 1]
            vj -= 1
            wj += shrink
        va.append(vj)
        wa.append(wj)
    if xd > 1 or any(xd > wj for wj in wa):
        va = [rat_floor((xj - dl) / shrink) for xj in x[: d - 1]]
        wa = [xj - shrink * vj for xj, vj in zip(x, va)]
    v = (*va, 0)
    w = (*wa, xd)
    return False, v, rank_descending(w), w


def witness(x: Point, d: int, n: int, cover: CoverSpec) -> WitnessResult:
    """Produce a cover element exactly containing x, with its route.

    The element returned is always the cover's own instance.  Routes other
    than ``fallback`` are the element's kind; ``fallback`` marks a defensive
    exhaustive scan and signals a defect in the routing pass.
    """
    if len(x) != d or cover.d != d or cover.n != n:
        raise ValueError("point/cover dimension or scale mismatch")
    dl = cover.delta
    if not in_domain(x, n, dl):
        raise ValueError(f"{x} is outside the target simplex")
    above, v, perm, w = _locate(x, d, n, dl)
    formula = make_element(above, v, perm, dl)
    known = cover.element_index.get(formula.key)
    if (above or v[0] <= n) and known == formula and contains(known.simplex, x):
        return WitnessResult(element=known, route=known.kind, w=w)
    for el in cover.elements:
        if contains(el.simplex, x):
            if el.kind == KIND_TOP:
                w = tuple(xj - aj for xj, aj in zip(x, el.anchor))
            else:
                w = tuple(xj - (1 - dl) * vj for xj, vj in zip(x, el.v))
            return WitnessResult(element=el, route=ROUTE_FALLBACK, w=w)
    raise UncoveredPointError(f"no cover element contains in-domain point {x}")
