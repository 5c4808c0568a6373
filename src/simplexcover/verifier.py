"""Point location and coverage campaigns, on integer rows.

A point is located in the cover element the construction predicts, and that
element is verified exactly.  Every predicate of point location is the sign of
an affine form on the grid ``Z/(n+2)`` the anchors live on, so it is decided on
plain ints.  A point travels as an integer row: numerators ``X_j = x_j * L``
over one denominator ``L``, a multiple of n+2 (``_scale`` makes the rows of
Fraction points, ``_point`` makes a row exact).  With ``D = L/(n+2)``, delta is
``D``, ``1-delta`` is ``(n+1)D``, the seam ``1+delta`` is ``L+D`` and the
target side ``n+delta`` is ``nL+D``.  ``Fraction`` appears only where a point
comes in and a result goes out.

Points are located a plane segment at a time.  A segment holds rows
``Q + (y, x)`` that share a prefix ``Q`` of the first d-2 coordinates, with
``y = x_(d-1)`` over a range y0..y1 and ``x = x_d`` over 0..y, from ``lo`` on
the first row and up to ``hi - 1`` on the last (``triangulation.Segment``): a
lattice stream is made of planes, cut at block boundaries, and the rows of
any other stream are merged into runs, segments of one y.  The containing
Kuhn cell ``(v, perm)``, and whether it lies above the seam, is read off in
two parts (``_placer``): floors give the anchor v, and the descending order
of the residual ``w`` gives ``perm``.  The first part depends on the prefix
``Q + (y,)`` alone: for each regime a row reaches, it floors the prefix
coordinates and sorts their residuals.  Above the seam (``x_d >= 1 +
delta``, possible only for n >= 2) it floors ``x - (1+delta)e``.  Below it,
the type-(a) anchor is ``v_j = floor(x_j / (1-delta))``, decremented once
when that leaves a residual at or below delta (so positive anchors always
keep their residual above delta), and the type-(b) anchor is ``v_j =
floor((x_j - delta)/(1-delta))``, which lands every residual in [delta, 1).
The second part is the last coordinate: it picks the regime (above the seam,
else type (a) when ``x_d`` is at most 1 and at most every type-(a) prefix
residual, so that index d sorts last, else type (b)) and places index d in
the prefix's order, after every residual at or above its own: the sort is
stable.  Along a row each of these predicates is the sign of an affine form
in ``x_d`` alone, so a row crosses few cells: it breaks only at the seam, at
each ``v_d`` block above it, at the end of type (a) and where ``x_d`` passes
a prefix residual; its pieces are ranges of x_d in one cell.  Across a plane
every predicate is affine in ``(y, x_d)``, and consecutive rows cross the
same cells: a band is a range of y over which the cells and their order stay
fixed and each piece end moves by 0 or 1 per step of y.  The placer places
each band once, from its first row, with y's entry moved in the prefix's
floors and order, and ends it where y's floor changes, y's residual passes
one of Q's, or y + 1 passes a fixed breakpoint.  A patch is one piece swept
over a band.  The (5,2) q = 2 lattice of the benchmark's campaign is 33,649
rows in 1,330 planes, 2,981 bands and 6,519 patches (7,315 rows of one y and
11,821 pieces of rows).  The kind and the anchor numerators come from
``cover.element_kind`` and ``cover.anchor_numerators``, the rule the cover is
built with.

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
``_router(cover, L)`` makes it for the segments over ``L``, which must be a
positive multiple of n+2, and sets up what ``L`` fixes (D, the seam, the
target side, ``1-delta``) once.  It is the one place a row is checked: a
length other than d, or a point outside the target, is a ValueError; for a
segment the domain test is the first row's chain, ``y1 <= x_(d-2)`` and
``hi - 1 <= y1``.  The first three checks depend on the key ``(kind, v,
perm)`` alone: ``_check_key`` makes that verdict once per key and cover, and it is
kept on the cover, failed or not.  On a cell's first patch over an L, the step
turns the verdict into that L's containment check, the cell's chain with index
d's two links solved for x_d.  Every link is affine in ``(y, x_d)``, so a
patch runs it on its first and last rows, whose corners decide every row
between them: the prefix links, then ``lower <= x_d <= upper`` for each row's
ends.  A patch that fails goes one y at a time, and a row's piece that fails
goes row by row to the scan.  The step has two callers: ``witness`` routes its
one scaled point as a segment of one row and builds its ``WitnessResult``;
``tally`` makes one per L and worker, counts each patch's rows in closed form
in the ``CoverageReport`` and makes no ``Fraction`` unless a point must be
scanned or shown.

``tally`` uses every CPU this process may run on.  It takes sized streams
only, whose rows are a list, a tuple or a ``Rows`` (``samplers``).  It splits
a campaign into blocks of ``BLOCK_ROWS`` consecutive rows, counted across
streams, and gives block b to worker ``b % jobs``; a segment that a block
boundary falls inside is cut there.  Worker 0 is the calling process; it
forks the others before the walk, one for each block up to ``jobs`` that the
streams reach.  A worker makes only the rows of its own blocks: it reads a
lattice ``Rows`` as plane segments and slices a list, a tuple or another
``Rows`` at each of its blocks, stepping over the others' blocks in O(1).
The rows of every stream but a lattice are merged into runs where
consecutive rows share a prefix and step x_d by 1.  A forked worker sends
its counts back over a pipe; between its blocks the caller takes in the
counts that have come, and stops once one holds an error at a row before its
next block.  The merged report is the one a single worker makes, down to the
row order of failures and the error raised.

Coverage of the target is certified by sampling: exhaustive rational lattices
where tractable, seeded random streams plus a boundary suite elsewhere.  The
samplers make their points as streams ``(L, rows)`` in ``samplers``.
``coverage_report`` scales each Fraction point to its own row and feeds
``tally`` consecutive points over one L as one list.
"""

from __future__ import annotations

import os
import select
import sys
import time
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, groupby
from operator import itemgetter, sub
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from .arith import IntVector, Permutation, Point, _point, _scale, point_format
from .cover import (
    KIND_BASE_A,
    KIND_BASE_B,
    KIND_TOP,
    Cover,
    CoverElement,
    Key,
    Verdict,
    anchor_numerators,
    element_kind,
)
from .samplers import Rows, Stream, _check_plan, in_domain
from .simplex import _descends, contains
from .triangulation import Segment

ROUTE_FALLBACK = "fallback"
ROUTES = (KIND_TOP, KIND_BASE_A, KIND_BASE_B, ROUTE_FALLBACK)
FORMAT_POINTS_LIMIT = 5  # points shown before "(+k more)"


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
    row's end y + 1), so a band holds while, in each regime, y's floor
    stays, y's residual passes no residual of Q, and no moving breakpoint
    passes a fixed one: y + 1 the seam, type (a)'s end on y's residual a
    type-(b) breakpoint of Q, y's type-(b) breakpoint type (a)'s end on Q's.
    Where a piece would close up as y's residual meets one of Q's, the band
    ends just before.  Each band ends at the first such y, worked out from
    the values the placement holds; no row inside it is placed.  The first
    and last rows of a segment, when cut, are bands of their own.
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
                moving = ra[-1] == ka  # type (a) ends on y's residual
                end = least + 1 if least < top else top
                perm = tuple([r % d for r in ra])
                out.append((y, y, x, end, x, end, (False, tuple(va), perm, 0, last)))
                x = end
                if span:
                    moves.append(moving)
                    ia = bisect_left(ra, ka)
                    if big - wa < span:  # y's floor
                        span = big - wa
                    if ia and -(ra[ia - 1] // d) - wa < span:  # y's residual passes one of Q's
                        span = -(ra[ia - 1] // d) - wa
                    if moving and seam - 2 - wa < span and wa < seam - 1:
                        span = seam - 2 - wa  # type (a) would end at the seam, leaving no type (b)
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
                if span:
                    ib = bisect_left(rb, ry)
                    if big - 1 - w < span:  # y's floor
                        span = big - 1 - w
                    if ib:  # y's residual passes one of Q's; where y's breakpoint lies
                        q = -(rb[ib - 1] // d)  # inside, the piece between them closes first
                        cut = (q - w - 1 if q > w else 0) if w >= x and vy > 0 else q - w
                        if cut < span:
                            span = cut
                    if moving:  # type (a)'s end passes the breakpoint of one of Q's
                        k = bisect_left(rb, -wa * d)  # the residuals above wa, y's maybe
                        if k > (ib < k):
                            cut = -(rb[k - 1 if ib != k - 1 else k - 2] // d) - 1 - wa
                            if cut < span:
                                span = cut
                    elif w <= least and least - w < span:  # y's breakpoint passes type (a)'s end
                        span = least - w
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
                    inside = vy > 0 and w + 1 < big  # y's breakpoints in the blocks below
                    if inside and big - 2 - w < span:
                        span = big - 2 - w
                    if iu:  # y's residual passes one of Q's
                        q = -(ru[iu - 1] // d)
                        cut = (q - w - 1 if q > w else 0) if inside else q - w
                        if cut < span:
                            span = cut
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


# a band's first and last y, the first row's x_d from and to (exclusive), the
# last row's, element, route, fallback_reason; the element and route are None
# for rows that no element contains
Patch = tuple[int, int, int, int, int, int, CoverElement | None, str | None, str | None]
Route = Callable[[Sequence[int], int, int, int], list[Patch]]  # route(P, y1, lo, hi)


def _router(cover: Cover, big: int) -> Route:
    """The step that locates a plane segment of points with numerators over
    ``big`` (a positive multiple of ``cover.n + 2``, else a ValueError) in the
    cover: ``route(P, y1, lo, hi)`` routes the rows of the segment
    (``_placer``, ``triangulation.Segment``) and returns their patches
    ``(ya, yb, x0, x1, u0, u1, element, route, fallback_reason)``, which tile
    it: band by band in y order, and within a band in x order.  A run, the rows ``P + (x,)`` for ``lo <= x < hi``, is
    the segment of one row ``(P, P[-1], lo, hi)``.

    A patch is a piece of a band, a range of rows in one cell that passes
    one exact check.  The cell's element is returned on its kind's route
    when its key's verdict (``_check_key``, made once per key and kept on the
    cover) passes and every row of the patch is contained in it.
    Containment is the cell's chain: the links between prefix entries, and
    index d's two links solved for x_d, ``lower <= x_d <= upper``.  Every
    link is affine in ``(y, x_d)``, so the chain holds on the whole patch
    when it holds at its four corners: the piece check, run on the patch's
    first and last rows.  A patch that fails goes one y at a time, each row
    a piece that runs the check again; a piece that fails goes row by row:
    a row still inside the chain keeps the element; the exhaustive scan
    finds another one's element, a one-row patch on the ``fallback`` route
    with the failed check as its reason, or none.

    ``route`` raises ValueError for a segment whose prefix length is not ``d
    - 1``, or with a row outside the target (the domain test: the first
    row's chain ``side >= P_1 >= ... >= P_{d-1} >= lo >= 0``, ``y1 <=
    P_{d-2}`` (``side`` for d = 2) and ``hi - 1 <= y1``); the message names
    the first such row.  The constants of ``big`` and the routing rule are
    set up once here, and each placement's check the first time a band
    lands in it: the element and its kind, the prefix indices in perm order
    with their anchor numerators over ``big``, index d's numerator and its
    place in perm, and y's place among the prefix indices; or, for a failed
    verdict, None and the failed check.
    """
    d, n = cover.d, cover.n
    if big <= 0 or big % (n + 2):
        raise ValueError("point/cover dimension or scale mismatch")
    unit = big // (n + 2)
    side = n * big + unit
    verdicts = cover._verdicts
    last = d - 1  # the prefix entries, and index d's place when it sorts last
    place = _placer(d, n, big, unit)
    checks: dict[Placed, tuple] = {}

    def outside(row: Sequence[int]) -> ValueError:
        return ValueError(f"point {point_format(_point(row, big))} is outside the target simplex")

    def check_of(placed: Placed) -> tuple:
        above, v, perm = _cell(placed)
        key = (element_kind(above, perm), v, perm)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = _check_key(cover, key)
        known, nums = verdict  # a failed verdict holds its check in place of nums
        if known is None:
            return None, nums, None, None, None, None, None
        rest = [j - 1 for j in perm if j != d]
        pick = itemgetter(*rest) if d > 2 else itemgetter(slice(1))  # a sequence either way
        offsets = tuple([nums[i] * unit for i in rest])
        od, at, p = nums[d - 1] * unit, perm.index(d), rest.index(d - 2)
        return known, known.kind, pick, offsets, od, at, p

    def scan(R: Sequence[int], x: int, reason: str) -> Patch:
        y = R[-1]
        point = _point((*R, x), big)
        for el in cover.elements:
            if contains(el.simplex, point):
                return y, y, x, x + 1, x, x + 1, el, ROUTE_FALLBACK, reason
        return y, y, x, x + 1, x, x + 1, None, None, reason

    def route(P: Sequence[int], y1: int, lo: int, hi: int) -> list[Patch]:
        if len(P) != last:
            raise ValueError("point/cover dimension or scale mismatch")
        y0 = P[-1]
        top = P[-2] if d > 2 else side  # the greatest y inside
        if not (
            _descends(side, P)
            and 0 <= lo
            and hi <= y1 + 1
            and (y1 == y0 or lo <= y0 and y1 <= top)
        ):
            if not (_descends(side, P) and 0 <= lo <= y0):  # the first row
                raise outside((*P, lo))
            if y1 > top:  # the rows up to y = top are inside
                raise outside((*P[:-1], top + 1, 0))
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
                # only y's entry has moved: the links between prefix entries,
                # then index d's two links solved for x_d
                s = [*map(sub, pick(P if ya == y0 else (*P[:-1], ya)), offsets)]
                if (
                    _descends(big, s)
                    and (od + s[at] if at < last else od) <= x0
                    and x1 <= od + (s[at - 1] if at else big) + 1
                ):
                    if ya == yb:
                        patches.append((ya, yb, x0, x1, u0, u1, known, kind, None))
                        continue
                    s[p] += yb - ya
                    if (
                        s[p] <= (s[p - 1] if p else big)
                        and (od + s[at] if at < last else od) <= u0
                        and u1 <= od + (s[at - 1] if at else big) + 1
                    ):
                        patches.append((ya, yb, x0, x1, u0, u1, known, kind, None))
                        continue
                reason = "not_contained"
            for y in range(ya, yb + 1):  # one y at a time, each row a piece of a run
                R = (*P[:-1], y)
                a = x0 if u0 == x0 else x0 + y - ya
                b = x1 if u1 == x1 else x1 + y - ya
                lower, upper = b, a  # no row of the piece is inside, unless:
                if known is not None:
                    s = [*map(sub, pick(R), offsets)]
                    if _descends(big, s):
                        lower = od + s[at] if at < last else od
                        upper = od + (s[at - 1] if at else big)
                    if lower <= a and b <= upper + 1:
                        patches.append((y, y, a, b, a, b, known, kind, None))
                        continue
                for x in range(a, b):
                    if lower <= x <= upper:
                        patches.append((y, y, x, x + 1, x, x + 1, known, kind, None))
                    else:
                        patches.append(scan(R, x, reason))
        return patches

    return route


def witness(x: Point, d: int, n: int, cover: Cover) -> WitnessResult:
    """Produce a cover element exactly containing x, with its route.

    The element returned is always the cover's own instance.  Routes other
    than ``fallback`` are the element's kind; ``fallback`` marks a defensive
    exhaustive scan and signals a defect in the routing rule.
    """
    if cover.d != d or cover.n != n or len(x) != d:
        raise ValueError("point/cover dimension or scale mismatch")
    big, (X,) = _scale((x,), n)
    ((_, _, _, _, _, _, element, route, reason),) = _router(cover, big)(
        X[:-1], X[-2], X[-1], X[-1] + 1
    )
    if element is None:
        raise UncoveredPointError(f"no cover element contains in-domain point {_point(X, big)}")
    return WitnessResult(element, route, x, cover.delta, reason)


@dataclass
class CoverageReport:
    total: int
    covered: int
    routes: dict[str, int]
    failures: tuple[Point, ...]
    elapsed_ms: int
    sliver_violations: tuple[Point, ...] = field(default=())
    fallback_reasons: dict[str, int] = field(default_factory=dict)  # not serialized

    @property
    def success(self) -> bool:
        return (
            self.covered == self.total
            and self.routes.get(ROUTE_FALLBACK, 0) == 0
            and not self.sliver_violations
        )

    def to_json(self) -> dict:
        """Stable wire form; field order and rational formatting are canonical."""
        return {
            "total": self.total,
            "covered": self.covered,
            "routes": {route: self.routes.get(route, 0) for route in ROUTES},
            "failures": [[str(c) for c in p] for p in self.failures],
            "elapsed_ms": self.elapsed_ms,
        }


BLOCK_ROWS = 2048  # rows per block of a campaign; block b goes to worker b % jobs


def _jobs() -> int:
    """The workers of a tally: one per CPU this process may run on, or 1 where
    it cannot fork, or runs a second Python thread that a fork would lose."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading is not None and threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


class _Share:
    """A worker's part of a tally: the rows it routed, counted by route and
    fallback reason; its failures and sliver violations as ``(row index,
    point)``; the first error it met as ``(row index, exception)``, and in a
    forked worker that error's traceback as text (a traceback does not
    pickle)."""

    def __init__(self) -> None:
        self.routes = dict.fromkeys(ROUTES, 0)
        self.reasons: Counter[str] = Counter()
        self.failures: list[tuple[int, Point]] = []
        self.slivers: list[tuple[int, Point]] = []
        self.error: tuple[int, Exception] | None = None
        self.trace: str | None = None


class _WorkerTraceback(Exception):
    """The traceback of an error a forked tally worker met, as text; ``tally``
    raises the error from it, as ``concurrent.futures`` does."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


Child = tuple[int, BinaryIO]  # a forked worker's pid, and the read end of its pipe


def _fork(children: list[Child]) -> int | None:
    """Fork a worker: the write end of its pipe in the worker, None in this
    process, which adds the worker to ``children``."""
    import pickle  # noqa: F401  (loaded here once, not in every worker)

    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        os.close(read)
        return write
    os.close(write)
    children.append((pid, open(read, "rb")))
    return None


class _RowError(Exception):
    """Ends a walk at its cause, the error of the rows from index ``args[0]``."""


class _WorkerFailed(RuntimeError):
    """A forked tally worker ended without sending its share: the tally
    fails with it, and no row's error stands in for it."""


def _runs_of(rows: Iterable[Sequence[int]]) -> Iterator[Segment]:
    """The rows as runs, segments of one y ``(prefix, prefix[-1], low,
    high)``: consecutive rows that share a prefix and step x_d by 1 form one.
    An empty or one-entry row is a run with an empty prefix, which the route
    step refuses."""
    prefix: Sequence[int] | None = None
    lo = hi = 0
    for X in rows:
        P = X[:-1]
        if P == prefix and X[-1] == hi:
            hi += 1
            continue
        if prefix is not None:
            yield prefix, (prefix[-1] if prefix else 0), lo, hi
        prefix, lo = P, (X[-1] if X else 0)
        hi = lo + 1
    if prefix is not None:
        yield prefix, (prefix[-1] if prefix else 0), lo, hi


def _receive(children: list[Child], child: Child) -> _Share:
    """Read a forked worker's share from its pipe, reap the worker and drop
    it from ``children``."""
    import pickle

    pid, fh = child
    data = fh.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    children.remove(child)
    fh.close()
    if status != 0 or not data:
        raise _WorkerFailed(f"a tally worker failed (exit status {status})")
    return pickle.loads(data)


def _walk(
    cover: Cover,
    streams: list[Stream],
    jobs: int,
    children: list[Child],
    received: list[_Share],
) -> tuple[_Share, int | None]:
    """Walk the rows of ``streams`` in blocks of BLOCK_ROWS, counted across
    streams; route the rows of this worker's blocks as plane segments and
    skip the others.

    The caller, worker 0, first forks worker k for each block k < jobs that
    the streams reach; worker k routes the blocks ``b % jobs == k``, or,
    where its fork fails, worker 0 routes them too.  A ``Rows`` that gives
    plane segments (the lattice) is read as segments, cut where a block
    boundary falls inside one; any other stream is sliced at each of this
    worker's blocks and its rows merged into runs, segments of one y
    (``_runs_of``); a random row is a run of one.  Another worker's block is
    skipped in O(1) and its rows are never made.  Before each of its blocks
    the caller takes in, into ``received``, the share of every forked worker
    that has sent it, without waiting; it stops its walk once one of them
    holds an error at a row before that block.  Returns this worker's share
    and, in a forked worker, the write end of its pipe.  An error stops the
    walk; it is kept in the share with the index of its row, of the first
    row of its segment, or, for an L that has no router, of its stream:
    each orders it among the workers' errors, as a segment lies in one
    block."""
    share = _Share()
    m = cover.n + 2
    base_a = KIND_BASE_A
    mine = {0}  # the workers whose blocks this one routes
    pipe = None
    routers: dict[int, Route] = {}
    index = 0  # the rows walked so far
    blocks = -(-sum(len(rows) for _, rows in streams) // BLOCK_ROWS)
    for k in range(1, min(jobs, blocks)):
        try:
            pipe = _fork(children)
        except OSError:
            mine.add(k)
            continue
        if pipe is not None:  # worker k, which routes its own blocks alone
            mine = {k}
            break

    def stopped(start: int) -> bool:
        """In the caller: whether a forked worker's share holds an error at
        a row before ``start``, after taking in those that are ready."""
        if pipe is not None or not children:
            return False
        poller = select.poll()  # not select.select, which refuses a descriptor past FD_SETSIZE
        for _, fh in children:
            poller.register(fh, select.POLLIN)
        ready = {fd for fd, _ in poller.poll(0)}  # written to, or closed
        for child in [child for child in children if child[1].fileno() in ready]:
            received.append(_receive(children, child))
        return any(done.error is not None and done.error[0] < start for done in received)

    def count_segments(route: Route, big: int, segments: Iterable[Segment], start: int) -> None:
        """Route the segments, the first row with index ``start``, and count
        their rows.  A patch's rows are counted in closed form, and listed
        only as failures or sliver violations.  An error is kept with the
        index of its segment's first row, in the block of the row that
        raised it."""
        routes, reasons = share.routes, share.reasons
        failures, slivers = share.failures, share.slivers
        plane = big // m  # the sliver plane x_d = delta
        try:
            for P, y1, lo, hi in segments:
                for ya, yb, x0, x1, u0, u1, element, kind, reason in route(P, y1, lo, hi):
                    if element is None:
                        listed, cap = failures, x1
                    else:
                        rows = x1 - x0 if ya == yb else (yb - ya + 1) * (x1 - x0 + u1 - u0) // 2
                        routes[kind] += rows
                        if reason is not None:
                            reasons[reason] += rows
                        if x0 > plane or kind == base_a:
                            continue
                        listed, cap = slivers, plane + 1
                    Q, y0 = P[:-1], P[-1]
                    for y in range(ya, yb + 1):
                        # row (y, x) comes y(y+1)/2 + x - y0(y0+1)/2 - lo rows after the first
                        row = start + (y - y0) * (y + y0 + 1) // 2 - lo
                        a = x0 if u0 == x0 else x0 + y - ya
                        b = min(x1 if u1 == x1 else x1 + y - ya, cap)
                        listed += [(row + x, _point((*Q, y, x), big)) for x in range(a, b)]
                y0 = P[-1]
                start += hi - lo if y1 == y0 else (y1 - y0) * (y1 + y0 + 1) // 2 + hi - lo
        except Exception as exc:  # a segment was refused
            raise _RowError(start) from exc

    try:
        for big, rows in streams:
            route = routers.get(big)
            if route is None:
                route = routers[big] = _router(cover, big)
            first, end = index, index + len(rows)
            planes = rows.planes if isinstance(rows, Rows) else None
            while index < end:
                block = index // BLOCK_ROWS
                stop = min(end, (block + 1) * BLOCK_ROWS)
                if block % jobs in mine:
                    if stopped(index):
                        return share, pipe
                    i, j = index - first, stop - first
                    part = _runs_of(rows[i:j]) if planes is None else planes(i, j)
                    count_segments(route, big, part, index)
                index = stop
    except _WorkerFailed:  # a forked worker's failure is no row's error
        raise
    except _RowError as err:
        share.error = err.args[0], err.__cause__
    except Exception as exc:  # no router for the stream's L, or no slice of its rows
        share.error = index, exc
    return share, pipe


def tally(cover: Cover, streams: Iterable[Stream]) -> CoverageReport:
    """Route every row of every ``(L, rows)`` stream through the cover, verify
    membership exactly, aggregate the outcome.

    The run succeeds iff every sample is covered, no witness fell back to
    exhaustive search, and every point at or below the sliver plane
    (``X_d (n+2) <= L``) came back on the base_a route.  Sliver violations fail
    the run, and fallbacks are counted by their failed check; neither is
    serialized: the report stays on the pinned wire schema.  A point is made
    exact only to be scanned (a fallback) or shown (a failure, a sliver
    violation).  Streams over one L share one ``_router`` per worker, which
    routes the rows as plane segments and checks each; keys are checked once
    per cover and worker, and containment once per patch of a band, which
    decides it for every point of the patch, whose rows are counted in
    closed form.

    Each stream's rows must be a list, a tuple or a ``Rows`` (what
    ``lattice_rows`` and ``random_rows`` give), else this raises TypeError
    before any worker is forked.  The rows go in blocks of BLOCK_ROWS,
    counted across streams, to one worker per CPU this process may run on
    (``_jobs``, ``_walk``), and each worker makes only its own blocks' rows.
    Worker 0 is this process; a forked worker sends its share back over a
    pipe and ends with ``os._exit``, and every one is reaped before this
    returns or raises.  Worker 0 takes in each share as it comes, between
    its blocks, and stops its walk once one holds an error at a row before
    its next block.  Merged, the shares give the report of one worker:
    failures and sliver violations in row order, and the error of the
    earliest failing row, with its type and message; a forked worker's error
    is raised from its traceback, sent as text.
    """
    t0 = time.perf_counter()
    streams = list(streams)
    for _, rows in streams:
        if not isinstance(rows, (list, tuple, Rows)):
            kind = type(rows).__name__
            raise TypeError(f"tally takes rows as a list, a tuple or a Rows, not {kind}")
    caller = os.getpid()
    children: list[Child] = []
    try:
        received: list[_Share] = []
        share, pipe = _walk(cover, streams, _jobs(), children, received)
        if pipe is not None:  # a forked worker: hand the share over and end
            import pickle

            if share.error is not None:
                import traceback

                share.trace = "".join(traceback.format_exception(share.error[1]))
            with open(pipe, "wb") as fh:
                pickle.dump(share, fh)
            os._exit(0)
        shares = [share, *received]
        while children:
            shares.append(_receive(children, children[0]))
    finally:
        if os.getpid() != caller:
            os._exit(1)  # a forked worker never returns to the caller's code
        for pid, fh in children:  # on an error or an interrupt: stop the rest
            fh.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    errors = [(*share.error, share.trace) for share in shares if share.error is not None]
    if errors:
        _, exc, trace = min(errors, key=itemgetter(0))
        if trace is None:
            raise exc
        raise exc from _WorkerTraceback(trace)
    failures = sorted(chain.from_iterable(share.failures for share in shares))
    routes = {route: sum(share.routes[route] for share in shares) for route in ROUTES}
    covered = sum(routes.values())
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return CoverageReport(
        total=covered + len(failures),
        covered=covered,
        routes=routes,
        failures=tuple(x for _, x in failures),
        elapsed_ms=elapsed_ms,
        sliver_violations=tuple(
            x for _, x in sorted(chain.from_iterable(share.slivers for share in shares))
        ),
        fallback_reasons=dict(sorted(sum((share.reasons for share in shares), Counter()).items())),
    )


def coverage_report(
    cover: Cover, samples: Iterable[Point], eps: Fraction | None = None
) -> CoverageReport:
    """``tally`` over Fraction points, each scaled to its own row over its own
    L; consecutive points over one L go as one list, made before any fork.

    Passing ``eps`` asserts the caller's sampling contract — every sample must
    lie in S^{n+eps} — before any point is routed.
    """
    if eps is not None:
        _check_plan(cover.d, cover.n, eps)
        samples = list(samples)
        for x in samples:
            if not in_domain(x, cover.n, eps):
                raise ValueError(f"sample {x} violates the S^(n+eps) precondition")
    scaled = (_scale((x,), cover.n) for x in samples)
    return tally(
        cover, [(big, [X for _, (X,) in run]) for big, run in groupby(scaled, itemgetter(0))]
    )


def format_points(points: tuple[Point, ...]) -> str:
    shown = ", ".join(point_format(p) for p in points[:FORMAT_POINTS_LIMIT])
    extra = len(points) - FORMAT_POINTS_LIMIT
    return shown + (f" (+{extra} more)" if extra > 0 else "")
