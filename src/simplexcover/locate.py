"""Point location on integer rows: the route step and ``witness``.

A point is located in the cover element the construction predicts, and that
element is verified exactly.  Every predicate of point location is the sign of
an affine form on the grid ``Z/(n+2)`` the anchors live on, so it is decided on
plain ints.  A point travels as an integer row: numerators ``X_j = x_j * L``
over one denominator ``L``, a multiple of n+2 (``_scale`` makes the rows of
Fraction points, ``_point`` makes a row exact).  With ``D = L/(n+2)``, delta is
``D``, ``1-delta`` is ``(n+1)D``, the seam ``1+delta`` is ``L+D`` and the
target side ``n+delta`` is ``nL+D``.  ``Fraction`` appears only where a point
comes in and a result goes out.

Points are located a plane segment at a time (``triangulation.Segment``): the
rows ``Q + (y, x)`` that share a prefix ``Q`` of the first d-2 coordinates,
with ``y = x_(d-1)`` over a range and ``x = x_d`` from 0 up to y.
``_placer`` reads off the containing Kuhn cell ``(v, perm)``, and whether it
lies above the seam, in two parts: floors of the prefix give the anchor and
the descending order of its residuals gives perm, for each regime (above the
seam, type (a), type (b)) the rows reach; the last coordinate picks the
regime and places index d in that order.  Across a plane every predicate is
affine in ``(y, x_d)``, so a segment splits into bands of y over which the
cells stay fixed, and each band into patches, one cell each.  README ("How
the cover is built") gives the whole argument.  The kind and the anchor
numerators come from ``cover.element_kind`` and ``cover.anchor_numerators``,
the rule the cover is built with.

The formula element is then checked: a base anchor must have ``v_1 <= n``
(``v1_bound``), the cover must hold an element with its key (``missing``:
the cover's ``member``: the construction's rule for ``CoverSpec``, a lookup
for ``ExplicitCover``) whose anchor equals the formula (``anchor``, compared by
cross-multiplying), and that element must exactly contain x
(``not_contained``).  A failed check (an implementation defect, never
observed) falls back to an exhaustive scan of the cover so location stays
total; the result is flagged as ``fallback`` and names the check in
``fallback_reason``.

One private step does all of the above for a segment, the scan included:
``_router(cover, L)`` makes it for the segments over ``L``.  It is the one
place a row is checked: a length other than d, a segment that holds no row,
or a point outside the target, is a ValueError.  A patch's containment is
decided on its first and last rows.  ``witness`` routes its point as a
segment of one row (``_run``).

``_check_key`` makes a key's verdict once per key and cover, and
``_check_of`` makes from it the check of the placement that names the key,
free of any denominator.  The cover keeps that check by placement
(``_checks``), and each ``_router`` scales it to its own L.  So what a cover
keeps grows with the keys routed to (at most one per element when the routing
rule is sound), never with the points or the denominators; a router and its
scaled checks end with the call that made it.  ``cli`` keeps the cover of the
last (d, n) only.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, sub
from typing import Callable, Sequence

from .arith import IntVector, Permutation, Point, _point, _scale, point_format
from .cover import (
    KIND_BASE_A,
    KIND_BASE_B,
    KIND_TOP,
    Cover,
    CoverElement,
    Key,
    anchor_numerators,
    element_kind,
)
from .simplex import _descends, contains
from .triangulation import Segment

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
        """The residual x - anchor (top) or x - (1-delta)v (base); diagnostic only.
        Each coordinate is one Fraction made from ints, a/b - c/e = (ae - cb)/(be),
        at about 40% of the cost of Fraction arithmetic."""
        el = self.element
        if el.kind == KIND_TOP:
            return tuple(
                Fraction(
                    xj.numerator * aj.denominator - aj.numerator * xj.denominator,
                    xj.denominator * aj.denominator,
                )
                for xj, aj in zip(self.x, el.anchor)
            )
        q = self.delta.denominator  # 1 - delta = p/q
        p = q - self.delta.numerator
        return tuple(
            Fraction(xj.numerator * q - p * vj * xj.denominator, xj.denominator * q)
            for xj, vj in zip(self.x, el.v)
        )


Cell = tuple[bool, IntVector, Permutation]  # above the seam, v, perm
# above the seam, the prefix's anchor entries and residual order, v_d, and the
# number of prefix indices that index d goes after
Placed = tuple[bool, IntVector, Permutation, int, int]
# a band's first and last y, the first row's x_d from and to (exclusive), the
# last row's, and where those rows land
Placement = tuple[int, int, int, int, int, int, Placed]


def _placer(
    d: int, n: int, big: int, unit: int
) -> Callable[[Sequence[int], int, int, int], list[Placement]]:
    """The routing rule for rows of length d over ``big`` (L above), with
    ``unit`` = D = big/(n+2): ``place(P, y1, lo, hi)`` splits the plane
    segment of rows ``Q + (y, x)`` (``triangulation.Segment``: ``P = Q +
    (y0,)``, y0 <= y <= y1, x from lo on the first row and up to hi - 1 on
    the last, 0..y on the others) into patches ``(ya, yb, x0, x1, u0, u1,
    placed)``: for ya <= y <= yb, the rows with ``x0 <= x < x1`` on row ya
    and ``u0 <= x < u1`` on row yb, in between each end affine in y with
    slope 0 or 1, land in one cell, ``_cell(placed)``.  The patches come
    band by band in y order and, within a band, in x order.

    Each regime (named by its kind) floors the prefix and sorts its
    residuals once per segment that reaches it, on the first row it reaches,
    and moves y's entry to each later band's y: the anchor entries
    v_1..v_{d-1}, and each index j's residual ranked as ``j - w_j d``,
    sorted.  That is a stable descending sort of the residuals; ``rank % d``
    gives j back and ``-(rank // d)`` gives w_j.  Index d goes after the
    ``at`` prefix indices whose residual is at or above its own ``w_d``,
    those ranked below ``(1 - w_d) d``, so ``at`` falls by one each time
    ``w_d`` passes a prefix residual.  The regimes split x_d at the
    breakpoints: type (a) while x_d is at most 1 and at most every type-(a)
    prefix residual (``at = d-1``), type (b) after it up to the seam, then
    above the seam (n >= 2), in blocks of L per ``v_d`` up to ``v_d =
    n-2``.  Type (b) and each top block break again at each prefix
    residual, plus one.

    A band is a range of full rows (x from 0 to y) over which the cells and
    their order stay fixed.  Along it every breakpoint is fixed (Q's, the
    seam, the v_d blocks) or moves with y (y's residual plus one, and the
    row's end y + 1).  Six cuts keep the cells: y's floor stays in each
    regime, y's residual passes none of Q's in type (a) and above the seam,
    and y + 1 stays at or below the seam.  Type (b) needs only its floor: a
    full row always places type (a) (no type-(a) residual is below its first
    x, 0), rows with y < D never reach type (b), and y's type-(a) and
    type-(b) residuals are equal except on rows with y = D (mod (n+1)D),
    where type (a)'s floor already ends the band.  So type (a)'s residual
    cut is type (b)'s too, and y's type-(b) breakpoint can sit under type
    (a)'s end only on those rows.  The order stays while no piece closes up:
    a piece whose start moves and whose end does not ends the band its width
    minus one rows after y.  A band ends at the first y a cut names, found
    from its first row alone; a cut first or last row is a band of its own.
    """
    seam = big + unit  # 1 + delta
    shrink = (n + 1) * unit  # 1 - delta
    last = d - 1  # y's index, the last of the prefix

    def place(P: Sequence[int], y1: int, lo: int, hi: int) -> list[Placement]:
        y = P[-1]
        # Each regime's anchor entries and sorted ranks of the row's prefix,
        # and y's rank among them: made on the first row that reaches the
        # regime, then moved to each later band's y.
        va = ra = vb = rb = vu = ru = None
        out = []
        x, top, R = lo, (hi if y == y1 else y + 1), P
        while True:
            span = 0  # the band's rows after y; a cut row is a band of its own
            if x == 0 and top > y:
                span = (y1 if hi > y1 else y1 - 1) - y
                first, moves = len(out), []  # the band's first piece; whether each end moves
            if ra is not None:  # a later row, from x = 0: move y's rank
                vy = y // shrink
                if vy > 0 and y - vy * shrink <= unit:
                    # one decrement restores the residual to [1-delta, 1]
                    vy -= 1
                wa = y - vy * shrink
                ra.remove(ka)
                ka = last - wa * d
                insort(ra, ka)
                va[-1] = vy
            elif x <= big:  # type (a) while no type-(a) residual is below x_d: d sorts last
                v, ranks, j = [], [], 0
                for xj in R:
                    j += 1
                    vj = xj // shrink
                    if vj > 0 and xj - vj * shrink <= unit:
                        vj -= 1
                    wa = xj - vj * shrink  # y's, the last
                    if wa < x:
                        break
                    v.append(vj)
                    ranks.append(j - wa * d)
                else:
                    ranks.sort()
                    va, ra, ka = v, ranks, last - wa * d
            if ra is not None:
                least = -(ra[-1] // d)  # the least residual: Q's, unless it is y's
                end = least + 1 if least < top else top
                perm = tuple([r % d for r in ra])
                out.append((y, y, x, end, x, end, (False, tuple(va), perm, 0, last)))
                x = end
                if span:
                    moves.append(ra[-1] == ka)  # type (a) ends on y's residual
                    ia = bisect_left(ra, ka)
                    if big - wa < span:  # y's floor
                        span = big - wa
                    if ia and -(ra[ia - 1] // d) - wa < span:  # y's residual passes one of Q's
                        span = -(ra[ia - 1] // d) - wa
            if x < top and (x < seam or n < 2):  # type (b): every residual lands in [delta, 1)
                vy = (y - unit) // shrink
                w = y - vy * shrink
                ry = last - w * d
                if rb is not None:
                    rb.remove(kb)
                    insort(rb, ry)
                    vb[-1] = vy
                else:
                    vb, rb, j = [], [], 0
                    for xj in R:
                        j += 1
                        vj = (xj - unit) // shrink
                        vb.append(vj)
                        rb.append(j - (xj - vj * shrink) * d)
                    rb.sort()
                kb = ry
                stop = seam if n >= 2 and seam < top else top
                if big - 1 - w < span:  # y's floor
                    span = big - 1 - w
                vt, perm = tuple(vb), tuple([r % d for r in rb])
                while x < stop:
                    at = bisect_left(rb, (1 - x) * d)
                    if at:
                        rank = rb[at - 1]
                        end, move = 1 - rank // d, rank == ry
                    if not at or end >= stop:
                        end, move = stop, stop == top
                    out.append((y, y, x, end, x, end, (False, vt, perm, 0, at)))
                    x = end
                    if span:
                        moves.append(move)
            if span and n >= 2 and y < seam and seam - 1 - y < span:
                span = seam - 1 - y  # the rows would reach the seam
            if x < top:  # above the seam
                uy = y - seam
                vy = min(uy // big, n - 2)
                w = uy - vy * big
                ry = last - w * d
                if ru is not None:
                    ru.remove(ku)
                    insort(ru, ry)
                    vu[-1] = vy
                else:
                    # u = x - (1+delta)e lies in S^{n-1}; flooring picks the containing cell.  The
                    # clamp only fires when u_j = n-1 exactly, where the residual must be 1, not 0.
                    vu, ru, j = [], [], 0
                    for xj in R:
                        j += 1
                        uj = xj - seam
                        vj = min(uj // big, n - 2)
                        vu.append(vj)
                        ru.append(j - (uj - vj * big) * d)
                    ru.sort()
                ku = ry
                if span:
                    iu = bisect_left(ru, ry)
                    if vy < n - 2 and big - 1 - w < span:  # y's floor
                        span = big - 1 - w
                    if iu and -(ru[iu - 1] // d) - w < span:  # y's residual passes one of Q's
                        span = -(ru[iu - 1] // d) - w
                vt, perm = tuple(vu), tuple([r % d for r in ru])
                while x < top:
                    vd = min((x - seam) // big, n - 2)
                    base = seam + vd * big
                    stop = base + big if vd < n - 2 and base + big < top else top
                    at = bisect_left(ru, (1 + base - x) * d)
                    if at:
                        rank = ru[at - 1]
                        end, move = base + 1 - rank // d, rank == ry
                    if not at or end >= stop:
                        end, move = stop, stop == top
                    out.append((y, y, x, end, x, end, (True, vt, perm, vd, at)))
                    x = end
                    if span:
                        moves.append(move)
            if span:  # a piece whose start moves and whose end does not closes up
                moved = False  # the first piece starts at x = 0
                for i, move in enumerate(moves, first):
                    if moved and not move:
                        width = out[i][3] - out[i][2]
                        if width <= span:
                            span = width - 1
                    moved = move
            if span:  # each end on the band's last row is the first row's, plus span if it moves
                yb = y + span
                moved = False  # the first piece starts at x = 0
                for i, move in enumerate(moves, first):
                    _, _, x0, x1, _, _, placed = out[i]
                    u0, u1 = x0 + span if moved else x0, x1 + span if move else x1
                    out[i] = y, yb, x0, x1, u0, u1, placed
                    moved = move
                y = yb
            y += 1
            if y > y1:
                return out
            x, top, R = 0, (hi if y == y1 else y + 1), (*P[:-1], y)

    return place


def _cell(placed: Placed) -> Cell:
    """The Kuhn cell ``(above_seam, v, perm)`` of a placement."""
    above, v, perm, vd, at = placed
    return above, (*v, vd), (*perm[:at], len(perm) + 1, *perm[at:])


# _check_key's verdict on a key: the element and its anchor numerators, or
# None and the failed check
Verdict = tuple[CoverElement, IntVector] | tuple[None, str]
# a placement's check, over no denominator: the element, its kind, the getter
# of the prefix entries in perm order, their anchor numerators, index d's
# numerator, index d's place in perm and y's place in the chain ``[L, prefix
# residuals in perm order, 0]``; for a failed verdict, None, the failed check
# and five Nones
Check = tuple


def _check_key(cover: Cover, key: Key) -> Verdict:
    """The checks that depend on the key alone: ``(element, anchor numerators)``
    when the key passes ``v1_bound``, ``missing`` and ``anchor``, else
    ``(None, the failed check)``."""
    kind, v, _ = key
    n = cover.n
    if kind != KIND_TOP and v[0] > n:
        return None, "v1_bound"
    known = cover.member(key)
    if known is None:
        return None, "missing"
    nums = anchor_numerators(kind, v, n)
    # a cover's elements have d coordinates (ExplicitCover checks), so zip drops none
    if any(a.numerator * (n + 2) != num * a.denominator for a, num in zip(known.anchor, nums)):
        return None, "anchor"
    return known, nums


def _check_of(cover: Cover, placed: Placed) -> Check:
    """The check of the cell ``placed`` lands in, from its key's verdict: a
    placement names one cell and a cell one key, so a cover keeps one check
    per key routed to."""
    above, v, perm = _cell(placed)
    known, nums = _check_key(cover, (element_kind(above, perm), v, perm))
    if known is None:  # a failed verdict holds its check in place of nums
        return None, nums, None, None, None, None, None
    d = len(perm)
    rest = [j - 1 for j in perm if j != d]
    pick = itemgetter(*rest) if d > 2 else itemgetter(slice(1))  # a sequence either way
    prefix = tuple([nums[i] for i in rest])
    return known, known.kind, pick, prefix, nums[d - 1], perm.index(d), rest.index(d - 2) + 1


# a band's first and last y, the first row's x_d from and to (exclusive), the
# last row's, element, route, fallback_reason; the element and route are None
# for rows that no element contains
Patch = tuple[int, int, int, int, int, int, CoverElement | None, str | None, str | None]
Route = Callable[[Sequence[int], int, int, int], list[Patch]]  # route(P, y1, lo, hi)


def _run(X: Sequence[int]) -> Segment:
    """The row as a one-row segment; under two entries, an empty prefix the route step refuses."""
    P, x = X[:-1], (X[-1] if X else 0)
    return P, (P[-1] if P else 0), x, x + 1


def _router(cover: Cover, big: int) -> Route:
    """The step that locates a plane segment of points with numerators over
    ``big`` (a positive multiple of ``cover.n + 2``, else a ValueError) in the
    cover: ``route(P, y1, lo, hi)`` routes the rows of the segment
    (``_placer``, ``triangulation.Segment``) and returns their patches
    ``(ya, yb, x0, x1, u0, u1, element, route, fallback_reason)``, which tile
    it: band by band in y order, and within a band in x order.  A run, the
    rows ``P + (x,)`` for ``lo <= x < hi``, is the segment of one row ``(P,
    P[-1], lo, hi)``.

    A patch is a piece of a band, a range of rows in one cell that passes
    one exact check.  The cell's element is returned on its kind's route
    when its placement's check (``_check_of``, made once per placement and
    kept on the cover) passes and every row of the patch is contained in it.
    Containment is the cell's chain on a row's residuals over ``big``: ``s =
    [big, *prefix residuals in perm order, 0]`` descends, and index d, at
    place ``at`` in perm with anchor numerator ``od``, lies in ``od +
    s[at+1] <= x_d <= od + s[at]``.  Every link is affine in ``(y, x_d)``, so
    the chain holds on the whole patch when it holds at its four corners: on
    the patch's first row, then on its last, where only y's entry ``s[p]``
    has grown, so only its link ``s[p] <= s[p-1]`` and index d's bounds are
    checked again.  A patch that fails goes row by row in one pass: on
    each y, the x_d the chain still holds come back as one patch on the
    element's route, and every other x_d, in x order, goes to the exhaustive
    scan, which finds another element (a one-row patch on the ``fallback``
    route with the failed check as its reason) or none.

    ``route`` refuses a segment with a ValueError, in this order: a prefix
    whose length is not ``d - 1``; a segment that holds no row (``y1 < y0``,
    or ``hi <= lo`` when ``y1 == y0``), named whole; then the domain test,
    which names the first row outside the target: the first row, unless
    ``P`` descends from ``side`` and ``0 <= lo <= y0``; the first row past
    ``y = P_{d-2}`` (``side`` for d = 2), if ``y1`` is past it; and the last
    row's ``x_d = y1 + 1``, if ``hi`` is past it.  The constants of ``big``
    and the routing rule are set up once here, and each placement's check is
    scaled to ``big`` the first time a band lands in it: the cover's check
    with its anchor numerators times ``big/(n+2)``, or, for a failed
    verdict, as it is.
    """
    d, n = cover.d, cover.n
    if big <= 0 or big % (n + 2):
        raise ValueError("point/cover dimension or scale mismatch")
    unit = big // (n + 2)
    side = n * big + unit
    kept = cover._checks
    place = _placer(d, n, big, unit)
    checks: dict[Placed, Check] = {}

    def outside(row: Sequence[int]) -> ValueError:
        return ValueError(f"point {point_format(_point(row, big))} is outside the target simplex")

    def check_of(placed: Placed) -> Check:
        check = kept.get(placed)
        if check is None:
            check = kept[placed] = _check_of(cover, placed)
        known, kind, pick, prefix, od, at, p = check
        if known is None:
            return check
        return known, kind, pick, tuple([num * unit for num in prefix]), od * unit, at, p

    def scan(R: Sequence[int], x: int, reason: str) -> Patch:
        y = R[-1]
        point = _point((*R, x), big)
        for el in cover.elements:
            if contains(el.simplex, point):
                return y, y, x, x + 1, x, x + 1, el, ROUTE_FALLBACK, reason
        return y, y, x, x + 1, x, x + 1, None, None, reason

    def route(P: Sequence[int], y1: int, lo: int, hi: int) -> list[Patch]:
        if len(P) != d - 1:
            raise ValueError("point/cover dimension or scale mismatch")
        y0 = P[-1]
        if y1 < y0 or y1 == y0 and hi <= lo:
            raise ValueError(f"plane segment {(tuple(P), y1, lo, hi)} holds no row")
        if not (_descends(side, P) and 0 <= lo <= y0):  # the first row
            raise outside((*P, lo))
        top = P[-2] if d > 2 else side  # the greatest y inside
        if y1 > top:
            raise outside((*P[:-1], top + 1, 0))
        if hi > y1 + 1:
            raise outside((*P[:-1], y1, y1 + 1))
        patches = []
        for ya, yb, x0, x1, u0, u1, placed in place(P, y1, lo, hi):
            check = checks.get(placed)
            if check is None:
                check = checks[placed] = check_of(placed)
            known, kind, pick, offsets, od, at, p = check
            if known is None:
                reason = kind  # a failed check holds its reason in place of the kind
            else:
                # the chain on the patch's first row, then on its last, where
                # only y's entry has moved
                s = [big, *map(sub, pick(P if ya == y0 else (*P[:-1], ya)), offsets), 0]
                if _descends(big, s) and od + s[at + 1] <= x0 and x1 <= od + s[at] + 1:
                    s[p] += yb - ya
                    if ya == yb or s[p] <= s[p - 1] and od + s[at + 1] <= u0 and u1 <= od + s[at] + 1:
                        patches.append((ya, yb, x0, x1, u0, u1, known, kind, None))
                        continue
                reason = "not_contained"
            for y in range(ya, yb + 1):  # row by row: the x_d the chain holds, and scans
                R = (*P[:-1], y)
                a = x0 if u0 == x0 else x0 + y - ya
                b = x1 if u1 == x1 else x1 + y - ya
                c = e = b  # the chain holds for c <= x_d < e: none of the row, unless
                if known is not None and _descends(big, s := [big, *map(sub, pick(R), offsets), 0]):
                    c = min(max(a, od + s[at + 1]), b)
                    e = max(min(b, od + s[at] + 1), c)
                patches += [scan(R, x, reason) for x in range(a, c)]
                if c < e:
                    patches.append((y, y, c, e, c, e, known, kind, None))
                patches += [scan(R, x, reason) for x in range(e, b)]
        return patches

    return route


def witness(x: Point, d: int, n: int, cover: Cover) -> WitnessResult:
    """Produce a cover element exactly containing x, with its route.

    The element returned is always the cover's own instance.  Routes other
    than ``fallback`` are the element's kind; ``fallback`` marks a defensive
    exhaustive scan and signals a defect in the routing rule.
    """
    if cover.d != d or cover.n != n:
        raise ValueError("point/cover dimension or scale mismatch")
    big, (X,) = _scale((x,), n)
    ((_, _, _, _, _, _, element, route, reason),) = _router(cover, big)(*_run(X))
    if element is None:
        raise UncoveredPointError(
            f"no cover element contains in-domain point {point_format(_point(X, big))}"
        )
    return WitnessResult(element, route, x, cover.delta, reason)
