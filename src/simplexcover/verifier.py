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

The containing Kuhn cell ``(v, perm)``, and whether it lies above the seam,
is read off in two parts (``_placer``): floors give the anchor v, and the
descending order of the residual ``w`` gives ``perm``.  The first part depends
on the prefix ``X[:-1]`` alone: for each regime a row needs, it floors the
prefix coordinates and sorts their residuals.  Above the seam (``x_d >= 1 +
delta``, possible only for n >= 2) it floors ``x - (1+delta)e``.  Below it, the
type-(a) anchor is ``v_j = floor(x_j / (1-delta))``, decremented once when that
leaves a residual at or below delta (so positive anchors always keep their
residual above delta), and the type-(b) anchor is ``v_j = floor((x_j -
delta)/(1-delta))``, which lands every residual in [delta, 1).  The second part
is the last coordinate: it picks the regime (above the seam, else type (a) when
``x_d`` is at most 1 and at most every type-(a) prefix residual, so that index d
sorts last, else type (b)) and places index d in the prefix's order, after
every residual at or above its own: the sort is stable.  The kind and the
anchor numerators come from ``cover.element_kind`` and
``cover.anchor_numerators``, the rule the cover is built with.

The formula element is then checked: a base anchor must have ``v_1 <= n``
(``v1_bound``), the cover must hold an element with its key (``missing``:
``CoverSpec.member``, the construction's rule for a canonical cover, a lookup
for an explicit one) whose anchor equals the formula (``anchor``, compared by
cross-multiplying), and that element must exactly contain x
(``not_contained``).  A failed check (an implementation defect, never
observed) falls back to an exhaustive scan of the cover so location stays
total; the result is flagged as ``fallback`` and names the check in
``fallback_reason``.

One private step does all of the above for a row, the scan included:
``_router(cover, L)`` makes it for the rows over ``L`` and sets up what ``L``
fixes (D, the seam, the target side, ``1-delta``) once.  It is the one place a
row is checked: a length other than d, or a point outside the target, is a
ValueError.  It keeps the last prefix's parts, so a row that repeats that
prefix (lattice rows do, in runs; random rows almost never) runs the second
part only and tests ``0 <= x_d <= x_{d-1}`` for its domain.  The first three
checks depend on the key ``(kind, v, perm)`` alone: ``_check_key`` makes that
verdict once per key and cover, and it is kept on the cover, failed or not.  On
a key's first point over an L, the step turns the verdict into that L's
containment check (the perm's order of X and the anchor numerators over L in
that order), which every point of the key then runs.  The step has two
callers: ``witness`` makes one for its one scaled point and builds its
``WitnessResult``; ``tally`` makes one per L and worker, aggregates the
``CoverageReport`` and makes no ``Fraction`` unless a point must be scanned or
shown.

``tally`` uses every CPU this process may run on.  It splits a campaign into
blocks of ``BLOCK_ROWS`` consecutive rows, counted across streams, and gives
block b to worker ``b % jobs``.  Worker 0 is the calling process; the others
are forked when the campaign reaches their first block.  A worker makes only
the rows of its own blocks when it can: it slices a list, a tuple or a
sampler's ``Rows`` (``samplers``) at each of its blocks and steps over the
others' blocks in O(1).  It pulls any other iterable's rows in C and drops
those of the others' blocks.  A forked worker sends its counts back over a
pipe.  The merged report is the one a single worker makes, down to the row
order of failures and the error raised.  Since a fork copies each stream's
state, the streams must be in-memory iterables: forked workers would share an
open file's offset.

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
from typing import BinaryIO, Callable, Iterable, Sequence

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


Placed = tuple[str, int, int]  # regime, v_d, number of prefix indices d goes after
Cell = tuple[bool, IntVector, Permutation]  # above the seam, v, perm
Plan = dict[str | Placed, tuple]  # a prefix's parts by regime, the router's checks by placement


def _placer(d: int, n: int, big: int, unit: int) -> Callable[[Sequence[int], Plan, int], Placed]:
    """The routing rule for rows of length d over ``big`` (L above), with
    ``unit`` = D = big/(n+2): ``place(P, plan, xd)`` is the placement
    ``(regime, v_d, at)`` of the row ``P + (xd,)``, and ``_cell`` its cell.

    Part one depends on the prefix ``P`` alone, per regime (named by its
    kind), and is kept in ``plan`` once a row needs it: ``(v, ranks)``, the
    anchor entries v_1..v_{d-1} and each index j's residual ranked as
    ``j - w_j d``, sorted.  That is a stable descending sort of the
    residuals, and ``rank % d`` gives j back.  Part two picks the regime from
    x_d and puts index d after the ``at`` prefix indices whose residual is at
    or above its own ``w_d``, those ranked below ``(1 - w_d) d``; a type-(a)
    row has ``at = d-1``.  Making the type-(a) part stops at the first
    residual below x_d, as the row is then type (b), and keeps no part.
    """
    seam = big + unit  # 1 + delta
    shrink = (n + 1) * unit  # 1 - delta

    def place(P: Sequence[int], plan: Plan, xd: int) -> Placed:
        if n >= 2 and xd >= seam:
            vd = min((xd - seam) // big, n - 2)
            wd = xd - seam - vd * big
            part = plan.get(KIND_TOP)
            if part is None:
                # u lies in S^{n-1}; flooring picks the containing cell.  The clamp
                # only fires when u_j = n-1 exactly, where the residual must be 1, not 0.
                v, ranks, j = [], [], 0
                for xj in P:
                    j += 1
                    uj = xj - seam
                    vj = min(uj // big, n - 2)
                    v.append(vj)
                    ranks.append(j - (uj - vj * big) * d)
                ranks.sort()
                part = plan[KIND_TOP] = v, ranks
            return KIND_TOP, vd, bisect_left(part[1], (1 - wd) * d)
        if xd <= big:  # type (a) if no type-(a) residual is below x_d: d sorts last
            part = plan.get(KIND_BASE_A)
            if part is None:
                v, ranks, j = [], [], 0
                for xj in P:
                    j += 1
                    vj = xj // shrink
                    if vj > 0 and xj - vj * shrink <= unit:
                        # one decrement restores the residual to [1-delta, 1]
                        vj -= 1
                    wj = xj - vj * shrink
                    if wj < xd:
                        break
                    v.append(vj)
                    ranks.append(j - wj * d)
                else:
                    ranks.sort()
                    plan[KIND_BASE_A] = v, ranks
                    return KIND_BASE_A, 0, d - 1
            elif part[1][-1] < (1 - xd) * d:  # the last rank holds the least residual
                return KIND_BASE_A, 0, d - 1
        part = plan.get(KIND_BASE_B)
        if part is None:
            # every residual lands in [delta, 1)
            v, ranks, j = [], [], 0
            for xj in P:
                j += 1
                vj = (xj - unit) // shrink
                v.append(vj)
                ranks.append(j - (xj - vj * shrink) * d)
            ranks.sort()
            part = plan[KIND_BASE_B] = v, ranks
        return KIND_BASE_B, 0, bisect_left(part[1], (1 - xd) * d)

    return place


def _cell(plan: Plan, placed: Placed, d: int) -> Cell:
    """The Kuhn cell ``(above_seam, v, perm)`` of a placement in ``plan``."""
    regime, vd, at = placed
    v, ranks = plan[regime]
    perm = [rank % d for rank in ranks]
    perm.insert(at, d)
    return regime == KIND_TOP, (*v, vd), tuple(perm)


def _locate(X: Sequence[int], n: int, big: int, unit: int) -> Cell:
    """The routing rule on one row, nothing reused: ``(above_seam, v, perm)``
    for an in-domain x given as numerators X over ``big``, with ``unit`` =
    D = big/(n+2)."""
    d = len(X)
    plan: Plan = {}
    return _cell(plan, _placer(d, n, big, unit)(X[:-1], plan, X[-1]), d)


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


Routed = tuple[CoverElement, str, str | None]  # element, route, fallback_reason


def _router(cover: CoverSpec, big: int) -> Callable[[Sequence[int]], Routed]:
    """The step that locates a point with numerators X over ``big`` (a
    multiple of ``cover.n + 2``) in the cover: ``route(X)`` returns
    ``(element, route, fallback_reason)``.

    The formula element is returned on its kind's route when its key's
    verdict (``_check_key``, made once per key and kept on the cover) and
    exact containment pass.  Otherwise the exhaustive scan finds the element,
    on the ``fallback`` route with the failed check as its reason.  ``route``
    raises UncoveredPointError when no element contains the point, and
    ValueError for a row whose length is not ``cover.d`` or outside the target.

    The constants of ``big`` and the routing rule (``_placer``) are set up
    once here.  ``route`` keeps the last prefix ``X[:-1]`` and its plan, so a
    row over the same prefix reruns only the last coordinate's part of the
    rule and its domain test ``0 <= x_d <= x_{d-1}``; a new prefix replaces
    the plan.  The plan keeps each placement's containment check, and the
    router each cell's: the element, a picker of X in perm order and the
    anchor numerators over ``big`` in the same order, or, for a failed
    verdict, None and the failed check.  The length check and the
    containment check run on every row, and the scan on every row whose
    checks fail.
    """
    d, n = cover.d, cover.n
    unit = big // (n + 2)
    side = n * big + unit
    verdicts = cover._verdicts
    place = _placer(d, n, big, unit)
    checks: dict[Cell, tuple] = {}
    prefix: Sequence[int] | None = None
    plan: Plan = {}

    def outside(X: Sequence[int]) -> ValueError:
        return ValueError(f"point {point_format(_point(X, big))} is outside the target simplex")

    def route(X: Sequence[int]) -> Routed:
        nonlocal prefix, plan
        if len(X) != d:
            raise ValueError("point/cover dimension or scale mismatch")
        P = X[:-1]
        xd = X[-1]
        if P != prefix:
            if not _descends(side, X):
                raise outside(X)
            prefix, plan = P, {}
        elif not 0 <= xd <= P[-1]:
            raise outside(X)
        placed = place(P, plan, xd)
        check = plan.get(placed)
        if check is None:
            cell = _cell(plan, placed, d)
            check = checks.get(cell)
            if check is None:
                above, v, perm = cell
                key = (element_kind(above, perm), v, perm)
                verdict = verdicts.get(key)
                if verdict is None:
                    verdict = verdicts[key] = _check_key(cover, key)
                known, nums = verdict  # a failed verdict holds its check in place of nums
                if known is None:
                    check = checks[cell] = (None, nums, None)
                else:
                    idx = [j - 1 for j in perm]
                    offsets = tuple(nums[i] * unit for i in idx)
                    check = checks[cell] = (known, itemgetter(*idx), offsets)
            plan[placed] = check
        known, pick, offsets = check  # a failed check holds its reason in place of pick
        if known is not None and _descends(big, map(sub, pick(X), offsets)):
            return known, known.kind, None
        reason = pick if known is None else "not_contained"
        x = _point(X, big)
        for el in cover.elements:
            if contains(el.simplex, x):
                return el, ROUTE_FALLBACK, reason
        raise UncoveredPointError(f"no cover element contains in-domain point {x}")

    return route


def witness(x: Point, d: int, n: int, cover: CoverSpec) -> WitnessResult:
    """Produce a cover element exactly containing x, with its route.

    The element returned is always the cover's own instance.  Routes other
    than ``fallback`` are the element's kind; ``fallback`` marks a defensive
    exhaustive scan and signals a defect in the routing rule.
    """
    if cover.d != d or cover.n != n:
        raise ValueError("point/cover dimension or scale mismatch")
    big, (X,) = _scale((x,), n)
    element, route, reason = _router(cover, big)(X)
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


def _walk(
    cover: CoverSpec, streams: Iterable[Stream], jobs: int, children: list[Child]
) -> tuple[_Share, int | None]:
    """Walk the rows of ``streams`` in blocks of BLOCK_ROWS, counted across
    streams; route the rows of this worker's blocks and skip the others.

    A ``Rows``, list or tuple is sliced at each of this worker's blocks, so
    another worker's block is skipped in O(1) and its rows are never made;
    the rows of any other iterable are pulled in C.  The caller is worker 0.
    When its walk first reaches a row of block k < jobs, it forks worker k
    there, which goes on from that row; if the fork fails, worker 0 routes
    block k's rows too.  Returns this worker's share and, in a forked worker,
    the write end of its pipe.  An error stops the walk; it is kept in the
    share with the index of its row."""
    share = _Share()
    routes, reasons, failures, slivers = share.routes, share.reasons, share.failures, share.slivers
    m = cover.n + 2
    mine = {0}  # the workers whose blocks this one routes
    spawn = 1  # the next worker to fork
    pipe = None
    routers: dict[int, Callable[[Sequence[int]], Routed]] = {}
    index = 0  # the rows walked so far
    counter = count()  # numbers the rows as they are pulled
    try:
        for big, rows in streams:
            route_row = routers.get(big)
            if route_row is None:
                route_row = routers[big] = _router(cover, big)
            counter = count(index)
            if isinstance(rows, (Rows, list, tuple)):
                first, end = index, index + len(rows)
            else:
                rows, end = iter(rows), None
            while True:
                block, offset = divmod(index, BLOCK_ROWS)
                take = BLOCK_ROWS - offset
                if end is None:
                    segment = zip(islice(rows, take), counter)
                else:  # sliced below, if this worker routes it
                    take = min(take, end - index)
                    if not take:
                        break
                    segment = None
                if block == spawn < jobs:
                    if segment is not None:
                        head = next(segment, None)
                        if head is None:
                            break
                        segment = chain((head,), segment)
                    spawn += 1
                    try:
                        pipe = _fork(children)
                    except OSError:
                        mine.add(block)
                    if pipe is not None:  # worker `block`: its share starts here
                        mine, spawn, share = {block}, jobs, _Share()
                        routes, reasons, failures, slivers = (
                            share.routes, share.reasons, share.failures, share.slivers
                        )
                i = index - 1  # the index of the last row pulled
                if block % jobs in mine:
                    if segment is None:
                        counter = count(index)
                        segment = zip(rows[index - first : index - first + take], counter)
                    for X, i in segment:
                        try:
                            _, route, reason = route_row(X)
                        except UncoveredPointError:
                            failures.append((i, _point(X, big)))
                            continue
                        except Exception as exc:
                            share.error = i, exc
                            return share, pipe
                        routes[route] += 1
                        if reason is not None:
                            reasons[reason] += 1
                        if route != KIND_BASE_A and X[-1] * m <= big:
                            slivers.append((i, _point(X, big)))
                elif segment is None:
                    i += take
                else:
                    for _, i in deque(segment, maxlen=1):  # pulls the block in C
                        pass
                index, pulled = i + 1, i + 1 - index
                if pulled < take:
                    break
    except Exception as exc:  # the streams failed while the walk pulled a row
        share.error = next(counter), exc
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
    checks each row; keys are checked once per cover and worker, and
    containment for every point.

    The rows go in blocks of BLOCK_ROWS, counted across streams, to one
    worker per CPU this process may run on (``_jobs``, ``_walk``).  A worker
    makes only its own blocks' rows of a list, a tuple or a ``Rows`` (what
    ``lattice_rows`` and ``random_rows`` give); it pulls and drops the rest
    of any other iterable.  Worker 0 is this process; a forked worker sends
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
