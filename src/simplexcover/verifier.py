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

Points are located a run at a time.  A run is a prefix ``P = X[:-1]`` and a
range ``lo <= x_d < hi`` of last coordinates: a lattice stream is made of runs,
and any other row is a run of one.  The containing Kuhn cell ``(v, perm)``,
and whether it lies above the seam, is read off in two parts (``_placer``):
floors give the anchor v, and the descending order of the residual ``w`` gives
``perm``.  The first part depends on the prefix alone: for each regime a run
reaches, it floors the prefix coordinates and sorts their residuals.  Above
the seam (``x_d >= 1 + delta``, possible only for n >= 2) it floors ``x -
(1+delta)e``.  Below it, the type-(a) anchor is ``v_j = floor(x_j /
(1-delta))``, decremented once when that leaves a residual at or below delta
(so positive anchors always keep their residual above delta), and the type-(b)
anchor is ``v_j = floor((x_j - delta)/(1-delta))``, which lands every residual
in [delta, 1).  The second part is the last coordinate: it picks the regime
(above the seam, else type (a) when ``x_d`` is at most 1 and at most every
type-(a) prefix residual, so that index d sorts last, else type (b)) and
places index d in the prefix's order, after every residual at or above its
own: the sort is stable.  Along a run each of these predicates is the sign of
an affine form in ``x_d`` alone, so a run crosses few cells: it breaks only at
the seam, at each ``v_d`` block above it, at the end of type (a) and where
``x_d`` passes a prefix residual.  The run splits there into pieces, ranges of
x_d in one cell.  The kind and the anchor numerators come from
``cover.element_kind`` and ``cover.anchor_numerators``, the rule the cover is
built with.

The formula element is then checked: a base anchor must have ``v_1 <= n``
(``v1_bound``), the cover must hold an element with its key (``missing``:
``CoverSpec.member``, the construction's rule for a canonical cover, a lookup
for an explicit one) whose anchor equals the formula (``anchor``, compared by
cross-multiplying), and that element must exactly contain x
(``not_contained``).  A failed check (an implementation defect, never
observed) falls back to an exhaustive scan of the cover so location stays
total; the result is flagged as ``fallback`` and names the check in
``fallback_reason``.

One private step does all of the above for a run, the scan included:
``_router(cover, L)`` makes it for the runs over ``L`` and sets up what ``L``
fixes (D, the seam, the target side, ``1-delta``) once.  It is the one place a
row is checked: a length other than d, or a point outside the target, is a
ValueError; for a run the domain test is the prefix chain and ``0 <= lo``,
``hi - 1 <= x_{d-1}``.  The first three checks depend on the key ``(kind, v,
perm)`` alone: ``_check_key`` makes that verdict once per key and cover, and
it is kept on the cover, failed or not.  On a cell's first piece over an L,
the step turns the verdict into that L's containment check, the cell's chain
with index d's two links solved for x_d, and each piece runs it once: the
prefix links, then ``lower <= x_d <= upper`` for its ends, which is the chain
of every row in it.  A piece that fails goes row by row to the scan.  The step
has two callers: ``witness`` routes its one scaled point as a run of one and
builds its ``WitnessResult``; ``tally`` makes one per L and worker, counts
each piece's rows in the ``CoverageReport`` and makes no ``Fraction`` unless a
point must be scanned or shown.

``tally`` uses every CPU this process may run on.  It splits a campaign into
blocks of ``BLOCK_ROWS`` consecutive rows, counted across streams, and gives
block b to worker ``b % jobs``; a run that a block boundary falls inside is
cut there.  Worker 0 is the calling process; it forks the others as soon as
it enters a stream of known length that holds their first block, or, in any
other iterable, when it reaches that block.  A worker makes only the rows of
its own blocks when it can: it reads a lattice ``Rows`` (``samplers``) as
runs and slices a list, a tuple or another ``Rows`` at each of its blocks,
stepping over the others' blocks in O(1).  It pulls any other iterable's rows
in C and drops those of the others' blocks.  The rows of every stream but a
lattice are merged into runs where consecutive rows share a prefix and step
x_d by 1.  A forked worker sends its counts back over a pipe.  The merged
report is the one a single worker makes, down to the row order of failures
and the error raised.  Since a fork copies each stream's state, the streams
must be in-memory iterables: forked workers would share an open file's offset.

Coverage of the target is certified by sampling: exhaustive rational lattices
where tractable, seeded random streams plus a boundary suite elsewhere.  The
samplers make their points as streams ``(L, rows)`` in ``samplers``, and the
names are importable from here too.  ``coverage_report`` scales each Fraction
point to its own row and feeds ``tally`` consecutive points over one L as one
stream.
"""

from __future__ import annotations

import os
import sys
import time
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, count, groupby, islice
from operator import itemgetter, sub
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from .arith import IntVector, Permutation, Point, _point, _scale, point_format
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
from .samplers import (  # the samplers stay importable from here
    RANDOM_GRID,
    Rows,
    Stream,
    _check_plan,
    boundary_rows,
    boundary_suite,
    in_domain,
    lattice_rows,
    lattice_samples,
    random_rows,
    random_samples,
)
from .simplex import _descends, contains
from .triangulation import Run

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
Placement = tuple[int, int, Placed]  # x_d from, x_d to (exclusive), and where those rows land


def _placer(
    d: int, n: int, big: int, unit: int
) -> Callable[[Sequence[int], int, int], list[Placement]]:
    """The routing rule for rows of length d over ``big`` (L above), with
    ``unit`` = D = big/(n+2): ``place(P, lo, hi)`` splits the run of rows
    ``P + (x,)``, ``lo <= x < hi``, into the ranges of x that land in one
    cell, ``(x0, x1, placed)``, in order; ``_cell(placed)`` is that cell.

    Each regime (named by its kind) floors the prefix ``P`` and sorts its
    residuals once per run that reaches it: the anchor entries v_1..v_{d-1},
    and each index j's residual ranked as ``j - w_j d``, sorted.  That is a
    stable descending sort of the residuals; ``rank % d`` gives j back and
    ``-(rank // d)`` gives w_j.  Index d goes after the ``at`` prefix indices
    whose residual is at or above its own ``w_d``, those ranked below ``(1 -
    w_d) d``, so ``at`` falls by one each time ``w_d`` passes a prefix
    residual.  The regimes split x_d at the breakpoints: type (a) while x_d
    is at most 1 and at most every type-(a) prefix residual (``at = d-1``),
    type (b) after it up to the seam, then above the seam (n >= 2), in blocks
    of L per ``v_d`` up to ``v_d = n-2``.  Type (b) and each top block break
    again at each prefix residual, plus one.
    """
    seam = big + unit  # 1 + delta
    shrink = (n + 1) * unit  # 1 - delta

    def place(P: Sequence[int], lo: int, hi: int) -> list[Placement]:
        out = []
        x = lo
        if x <= big:  # type (a) while no type-(a) residual is below x_d: d sorts last
            v, ranks, j = [], [], 0
            for xj in P:
                j += 1
                vj = xj // shrink
                if vj > 0 and xj - vj * shrink <= unit:
                    # one decrement restores the residual to [1-delta, 1]
                    vj -= 1
                wj = xj - vj * shrink
                if wj < x:
                    break
                v.append(vj)
                ranks.append(j - wj * d)
            else:
                ranks.sort()
                end = 1 - ranks[-1] // d  # the last rank holds the least residual
                if end > big:
                    end = big + 1
                if end > hi:
                    end = hi
                perm = tuple([rank % d for rank in ranks])
                out.append((x, end, (False, tuple(v), perm, 0, d - 1)))
                x = end
        if x < hi and (x < seam or n < 2):  # type (b): every residual lands in [delta, 1)
            v, ranks, j = [], [], 0
            for xj in P:
                j += 1
                vj = (xj - unit) // shrink
                v.append(vj)
                ranks.append(j - (xj - vj * shrink) * d)
            ranks.sort()
            vt, perm = tuple(v), tuple([rank % d for rank in ranks])
            stop = seam if n >= 2 and seam < hi else hi
            while x < stop:
                at = bisect_left(ranks, (1 - x) * d)
                end = 1 - ranks[at - 1] // d if at else stop
                if end > stop:
                    end = stop
                out.append((x, end, (False, vt, perm, 0, at)))
                x = end
        if x < hi:  # above the seam
            # u = x - (1+delta)e lies in S^{n-1}; flooring picks the containing cell.  The
            # clamp only fires when u_j = n-1 exactly, where the residual must be 1, not 0.
            v, ranks, j = [], [], 0
            for xj in P:
                j += 1
                uj = xj - seam
                vj = min(uj // big, n - 2)
                v.append(vj)
                ranks.append(j - (uj - vj * big) * d)
            ranks.sort()
            vt, perm = tuple(v), tuple([rank % d for rank in ranks])
            while x < hi:
                vd = min((x - seam) // big, n - 2)
                base = seam + vd * big
                stop = min(hi, base + big) if vd < n - 2 else hi
                at = bisect_left(ranks, (1 + base - x) * d)
                end = base + 1 - ranks[at - 1] // d if at else stop
                if end > stop:
                    end = stop
                out.append((x, end, (True, vt, perm, vd, at)))
                x = end
        return out

    return place


def _cell(placed: Placed) -> Cell:
    """The Kuhn cell ``(above_seam, v, perm)`` of a placement."""
    above, v, perm, vd, at = placed
    return above, (*v, vd), (*perm[:at], len(perm) + 1, *perm[at:])


def _locate(X: Sequence[int], n: int, big: int, unit: int) -> Cell:
    """The routing rule on one row, the piece of a run of one:
    ``(above_seam, v, perm)`` for an in-domain x given as numerators X over
    ``big``, with ``unit`` = D = big/(n+2)."""
    ((_, _, placed),) = _placer(len(X), n, big, unit)(X[:-1], X[-1], X[-1] + 1)
    return _cell(placed)


def _check_key(cover: CoverSpec, key: Key) -> Verdict:
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
    # a cover's elements have d coordinates (CoverSpec checks), so zip drops none
    if any(a.numerator * (n + 2) != num * a.denominator for a, num in zip(known.anchor, nums)):
        return None, "anchor"
    return known, nums


# x_d from, x_d to (exclusive), element, route, fallback_reason; the element
# and route are None for rows that no element contains
Piece = tuple[int, int, CoverElement | None, str | None, str | None]
Route = Callable[[Sequence[int], int, int], list[Piece]]  # route(P, lo, hi): a run's pieces


def _router(cover: CoverSpec, big: int) -> Route:
    """The step that locates a run of points with numerators over ``big`` (a
    multiple of ``cover.n + 2``) in the cover: ``route(P, lo, hi)`` routes the
    rows ``P + (x,)`` for ``lo <= x < hi`` and returns their pieces ``(x0,
    x1, element, route, fallback_reason)``, in order, covering lo..hi-1.

    A piece is a range of x_d in one cell (``_placer``) that passes one exact
    check.  The cell's element is returned on its kind's route when its key's
    verdict (``_check_key``, made once per key and kept on the cover) passes
    and every row of the piece is contained in it.  Containment is the cell's
    chain: the links between prefix entries are run once per piece, and
    index d's two links, solved for x_d, give ``lower <= x_d <= upper``.  A
    piece that fails goes row by row: a row still inside the chain keeps the
    element; the exhaustive scan finds another one's element, a one-row piece
    on the ``fallback`` route with the failed check as its reason, or none.

    ``route`` raises ValueError for a run whose prefix length is not ``d -
    1``, or with a row outside the target (the domain test: the prefix chain
    ``side >= P_1 >= ... >= P_{d-1}``, ``0 <= lo`` and ``hi - 1 <=
    P_{d-1}``); the message names the first such row.  The constants of
    ``big`` and the routing rule are set up once here, and each placement's
    check the first time a run lands in it: the element, the prefix indices
    in perm order with their anchor numerators over ``big``, index d's
    numerator and its place in perm, or, for a failed verdict, None and the
    failed check.
    """
    d, n = cover.d, cover.n
    unit = big // (n + 2)
    side = n * big + unit
    verdicts = cover._verdicts
    place = _placer(d, n, big, unit)
    checks: dict[Placed, tuple] = {}

    def outside(P: Sequence[int], x: int) -> ValueError:
        point = point_format(_point((*P, x), big))
        return ValueError(f"point {point} is outside the target simplex")

    def check_of(placed: Placed) -> tuple:
        above, v, perm = _cell(placed)
        key = (element_kind(above, perm), v, perm)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = _check_key(cover, key)
        known, nums = verdict  # a failed verdict holds its check in place of nums
        if known is None:
            return None, nums, None, None, None
        rest = [j - 1 for j in perm if j != d]
        pick = itemgetter(*rest) if d > 2 else itemgetter(slice(1))  # a sequence either way
        offsets = tuple([nums[i] * unit for i in rest])
        return known, pick, offsets, nums[d - 1] * unit, perm.index(d)

    def scan(P: Sequence[int], x: int, reason: str) -> Piece:
        point = _point((*P, x), big)
        for el in cover.elements:
            if contains(el.simplex, point):
                return x, x + 1, el, ROUTE_FALLBACK, reason
        return x, x + 1, None, None, reason

    def route(P: Sequence[int], lo: int, hi: int) -> list[Piece]:
        if len(P) != d - 1:
            raise ValueError("point/cover dimension or scale mismatch")
        if not (_descends(side, P) and 0 <= lo and hi <= P[-1] + 1):
            first = _descends(side, P) and 0 <= lo <= P[-1]  # the run's first row is inside
            raise outside(P, P[-1] + 1 if first else lo)
        pieces = []
        for x0, x1, placed in place(P, lo, hi):
            check = checks.get(placed)
            if check is None:
                check = checks[placed] = check_of(placed)
            known, pick, offsets, od, at = check  # a failed check holds its reason in place of pick
            if known is None:
                lower, upper, reason = x1, x0, pick
            else:
                s = [*map(sub, pick(P), offsets)]
                if _descends(big, s):  # the links between prefix entries
                    lower = od + s[at] if at < d - 1 else od
                    upper = od + (s[at - 1] if at else big)
                    if lower <= x0 and x1 <= upper + 1:
                        pieces.append((x0, x1, known, known.kind, None))
                        continue
                else:
                    lower, upper = x1, x0
                reason = "not_contained"
            for x in range(x0, x1):
                if lower <= x <= upper:
                    pieces.append((x, x + 1, known, known.kind, None))
                else:
                    pieces.append(scan(P, x, reason))
        return pieces

    return route


def witness(x: Point, d: int, n: int, cover: CoverSpec) -> WitnessResult:
    """Produce a cover element exactly containing x, with its route.

    The element returned is always the cover's own instance.  Routes other
    than ``fallback`` are the element's kind; ``fallback`` marks a defensive
    exhaustive scan and signals a defect in the routing rule.
    """
    if cover.d != d or cover.n != n or len(x) != d:
        raise ValueError("point/cover dimension or scale mismatch")
    big, (X,) = _scale((x,), n)
    ((_, _, element, route, reason),) = _router(cover, big)(X[:-1], X[-1], X[-1] + 1)
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


def _runs_of(rows: Iterable[Sequence[int]]) -> Iterator[Run]:
    """The rows as runs ``(prefix, low, high)``: consecutive rows that share a
    prefix and step x_d by 1 form one.  An empty row is a run with an empty
    prefix, which the route step refuses.  If pulling a row fails, the run
    before it comes first, then the error."""
    prefix: Sequence[int] | None = None
    lo = hi = 0
    try:
        for X in rows:
            P = X[:-1]
            if P == prefix and X[-1] == hi:
                hi += 1
                continue
            if prefix is not None:
                yield prefix, lo, hi
            prefix, lo = P, (X[-1] if X else 0)
            hi = lo + 1
    except Exception:
        if prefix is not None:
            yield prefix, lo, hi
        raise
    if prefix is not None:
        yield prefix, lo, hi


def _walk(
    cover: CoverSpec, streams: Iterable[Stream], jobs: int, children: list[Child]
) -> tuple[_Share, int | None]:
    """Walk the rows of ``streams`` in blocks of BLOCK_ROWS, counted across
    streams; route the rows of this worker's blocks as runs and skip the
    others.

    A run is a prefix and a range of last coordinates (``_router``).  A
    ``Rows`` that gives runs (the lattice) is read as runs, a run cut where a
    block boundary falls inside it.  The rows of any other stream are merged
    into runs (``_runs_of``); a random row is a run of one.  A ``Rows``, list
    or tuple is sliced at each of this worker's blocks, so another worker's
    block is skipped in O(1) and its rows are never made; the rows of any
    other iterable are pulled in C.  The caller is worker 0.  It forks worker
    k < jobs as soon as its walk enters a ``Rows``, list or tuple that holds
    the first row of block k, or, in any other iterable, when it reaches that
    row; worker k goes on from there.  If the fork fails, worker 0 routes
    block k's rows too.  Returns this worker's share and, in a forked worker,
    the write end of its pipe.  An error stops the walk; it is kept in the
    share with the index of its row, or of the first row of its run: either
    orders it among the workers' errors, as a run lies in one block."""
    share = _Share()
    m = cover.n + 2
    base_a = KIND_BASE_A
    mine = {0}  # the workers whose blocks this one routes
    spawn = 1  # the next worker to fork
    pipe = None
    routers: dict[int, Route] = {}
    index = 0  # the rows walked so far

    def fork(block: int) -> None:
        nonlocal mine, spawn, share, pipe
        spawn += 1
        try:
            pipe = _fork(children)
        except OSError:
            mine.add(block)
            return
        if pipe is not None:  # worker `block`: its share starts here
            mine, spawn, share = {block}, jobs, _Share()

    def count_runs(route: Route, big: int, runs: Iterable[Run], start: int) -> int:
        """Route the runs, the first row with index ``start``, and count them;
        returns the index after the last row.  An error is kept with the
        index of its run's first row, in the block of the row that raised it."""
        routes, reasons = share.routes, share.reasons
        failures, slivers = share.failures, share.slivers
        plane = big // m  # the sliver plane x_d = delta
        try:
            for P, lo, hi in runs:
                for x0, x1, element, kind, reason in route(P, lo, hi):
                    if element is None:
                        failures += [(start + x - lo, _point((*P, x), big)) for x in range(x0, x1)]
                        continue
                    routes[kind] += x1 - x0
                    if reason is not None:
                        reasons[reason] += x1 - x0
                    if x0 <= plane and kind != base_a:
                        slivers += [
                            (start + x - lo, _point((*P, x), big))
                            for x in range(x0, min(x1, plane + 1))
                        ]
                start += hi - lo
        except Exception as exc:  # a run was refused, or the stream failed to give a row
            raise _RowError(start) from exc
        return start

    try:
        for big, rows in streams:
            route = routers.get(big)
            if route is None:
                route = routers[big] = _router(cover, big)
            if isinstance(rows, (Rows, list, tuple)):
                first, end = index, index + len(rows)
                while spawn < jobs and spawn * BLOCK_ROWS < end:
                    fork(spawn)
                runs = rows.runs if isinstance(rows, Rows) else None
                while index < end:
                    block = index // BLOCK_ROWS
                    stop = min(end, (block + 1) * BLOCK_ROWS)
                    if block % jobs in mine:
                        i, j = index - first, stop - first
                        part = _runs_of(rows[i:j]) if runs is None else runs(i, j)
                        count_runs(route, big, part, index)
                    index = stop
                continue
            rows = iter(rows)
            while True:
                block, offset = divmod(index, BLOCK_ROWS)
                take = BLOCK_ROWS - offset
                segment = islice(rows, take)
                if block == spawn < jobs:
                    try:
                        head = next(segment, None)
                    except Exception as exc:
                        raise _RowError(index) from exc
                    if head is None:
                        break
                    segment = chain((head,), segment)
                    fork(block)
                if block % jobs in mine:
                    end = count_runs(route, big, _runs_of(segment), index)
                else:
                    counter = count(index)
                    try:
                        deque(zip(segment, counter), maxlen=0)  # pulls the block in C
                    except Exception as exc:
                        raise _RowError(next(counter)) from exc
                    end = next(counter)
                pulled, index = end - index, end
                if pulled < take:
                    break
    except _RowError as err:
        share.error = err.args[0], err.__cause__
    except Exception as exc:  # the streams failed between rows
        share.error = index, exc
    return share, pipe


def _receive(children: list[Child]) -> _Share:
    """Read the first forked worker's share from its pipe, reap the worker and
    drop it from ``children``."""
    import pickle

    pid, fh = children[0]
    data = fh.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    children.pop(0)[1].close()
    if status != 0 or not data:
        raise RuntimeError(f"a tally worker failed (exit status {status})")
    return pickle.loads(data)


def tally(cover: CoverSpec, streams: Iterable[Stream]) -> CoverageReport:
    """Route every row of every ``(L, rows)`` stream through the cover, verify
    membership exactly, aggregate the outcome.

    The run succeeds iff every sample is covered, no witness fell back to
    exhaustive search, and every point at or below the sliver plane
    (``X_d (n+2) <= L``) came back on the base_a route.  Sliver violations fail
    the run, and fallbacks are counted by their failed check; neither is
    serialized: the report stays on the pinned wire schema.  A point is made
    exact only to be scanned (a fallback) or shown (a failure, a sliver
    violation).  Streams over one L share one ``_router`` per worker, which
    routes the rows as runs and checks each; keys are checked once per cover
    and worker, and containment once per piece of a run, which decides it
    for every point of the piece.

    The rows go in blocks of BLOCK_ROWS, counted across streams, to one
    worker per CPU this process may run on (``_jobs``, ``_walk``).  A worker
    makes only its own blocks' rows of a list, a tuple or a ``Rows`` (what
    ``lattice_rows`` and ``random_rows`` give; the lattice's come as runs);
    it pulls and drops the rest of any other iterable.  A worker is forked
    as soon as the walk enters a stream of known length that holds its first
    block.  Worker 0 is this process; a forked worker sends
    its share back over a pipe and ends with ``os._exit``, and every one is
    reaped before this returns or raises.  Merged, the shares give the
    report of one worker: failures and sliver violations in row order, and
    the error of the earliest failing row, with its type and message; a
    forked worker's error is raised from its traceback, sent as text.  The
    streams must be in-memory iterables: a fork copies their state, so every
    worker sees the same rows, but workers reading one open file would share
    its offset.
    """
    t0 = time.perf_counter()
    caller = os.getpid()
    children: list[Child] = []
    try:
        share, pipe = _walk(cover, streams, _jobs(), children)
        if pipe is not None:  # a forked worker: hand the share over and end
            import pickle

            if share.error is not None:
                import traceback

                share.trace = "".join(traceback.format_exception(share.error[1]))
            with open(pipe, "wb") as fh:
                pickle.dump(share, fh)
            os._exit(0)
        shares = [share]
        while children:
            shares.append(_receive(children))
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
    cover: CoverSpec, samples: Iterable[Point], eps: Fraction | None = None
) -> CoverageReport:
    """``tally`` over Fraction points, each scaled to its own row over its own
    L; consecutive points over one L go as one stream.

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
        cover, ((big, (X for _, (X,) in run)) for big, run in groupby(scaled, itemgetter(0)))
    )


def format_points(points: tuple[Point, ...]) -> str:
    shown = ", ".join(point_format(p) for p in points[:FORMAT_POINTS_LIMIT])
    extra = len(points) - FORMAT_POINTS_LIMIT
    return shown + (f" (+{extra} more)" if extra > 0 else "")
