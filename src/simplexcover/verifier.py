"""Coverage campaigns: ``tally`` routes streams of integer rows through a
cover, across forked workers, and counts the outcome in a ``CoverageReport``.

A stream is ``(L, rows)``, rows of numerators over one denominator ``L`` as
``samplers`` makes them.  Each worker makes one route step per L
(``locate._router``), which takes plane segments and returns patches;
``tally`` counts each patch's rows in closed form and makes no ``Fraction``
unless a point must be scanned or shown.

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
where tractable, seeded random streams plus a boundary suite elsewhere.
``coverage_report`` scales each Fraction point to its own row and feeds
``tally`` consecutive points over one L as one list.
"""

from __future__ import annotations

import os
import select
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, groupby
from operator import itemgetter
from typing import BinaryIO, Iterable, Iterator, Sequence

from .arith import Point, _point, _scale, point_format
from .cover import KIND_BASE_A, Cover
from .locate import ROUTE_FALLBACK, ROUTES, Route, _router
from .samplers import Rows, Stream, _check_plan, in_domain
from .triangulation import Segment

FORMAT_POINTS_LIMIT = 5  # points shown before "(+k more)"


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
