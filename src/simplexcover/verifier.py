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
boundary falls inside is cut there.  Worker 0 is the calling process.
``tally`` alone forks: before worker 0's walk, one worker for each block up
to ``jobs`` that the streams reach; it also hands each forked worker's share
over and reaps it.  Each worker runs ``_walk``, which only routes: it makes
only the rows of its own blocks, reads a lattice ``Rows`` as plane segments
and slices a list, a tuple or another ``Rows`` at each of its blocks, one
segment per row, stepping over the others' blocks in O(1).  A forked worker
sends its counts back over a pipe, which the caller reads after its own walk.
The merged report is the one a single worker makes, down to the row order of
failures and the error raised: a walk stops at its first error and keeps it
with the first row of the block it was walking, and the earliest such row
names the error ``tally`` raises.

Coverage of the target is certified by sampling: exhaustive rational lattices
where tractable, seeded random streams plus a boundary suite elsewhere.
``coverage_report`` scales each Fraction point to its own row and feeds
``tally`` consecutive points over one L as one list.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import chain, groupby
from operator import itemgetter
from typing import BinaryIO, Iterable, Sequence

from .arith import Point, _point, _scale, _Value, point_format
from .cover import KIND_BASE_A, Cover
from .locate import ROUTE_FALLBACK, ROUTES, Route, _router, _run
from .samplers import Rows, Stream, _check_plan, in_domain
from .triangulation import Segment

FORMAT_POINTS_LIMIT = 5  # points shown before "(+k more)"


class CoverageReport(_Value):
    __match_args__ = (
        "total",
        "covered",
        "routes",
        "failures",
        "elapsed_ms",
        "sliver_violations",
        "fallback_reasons",
    )

    def __init__(
        self,
        total: int,
        covered: int,
        routes: dict[str, int],
        failures: tuple[Point, ...],
        elapsed_ms: int,
        sliver_violations: tuple[Point, ...] = (),
        fallback_reasons: dict[str, int] | None = None,  # not serialized; None: a new {}
    ) -> None:
        self.total = total
        self.covered = covered
        self.routes = routes
        self.failures = failures
        self.elapsed_ms = elapsed_ms
        self.sliver_violations = sliver_violations
        self.fallback_reasons = {} if fallback_reasons is None else fallback_reasons

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
    point)``; the first error it met as ``(index, exception)``, the index of
    the first row of the block it met it in, and in a forked worker that
    error's traceback as text (a traceback does not pickle)."""

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


class _WorkerFailed(RuntimeError):
    """A forked tally worker ended without sending its share: the tally
    fails with it, and no row's error stands in for it."""


def _refuse_unindexable(name: str, rows: Sequence[Sequence[int]]) -> None:
    """Raise ValueError naming ``name`` if ``rows`` holds more rows than
    ``sys.maxsize``, the most a campaign indexes."""
    size = rows.__len__()  # len() raises OverflowError past sys.maxsize
    if size > sys.maxsize:
        raise ValueError(
            f"{name} holds {size} rows, more than a campaign can index "
            f"(sys.maxsize = {sys.maxsize})"
        )


def _receive(children: list[Child]) -> _Share:
    """Read the first forked worker's share from its pipe, reap the worker
    and drop it from ``children``."""
    import pickle

    pid, fh = children[0]
    data = fh.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del children[0]
    fh.close()
    if status != 0 or not data:
        raise _WorkerFailed(f"a tally worker failed (exit status {status})")
    return pickle.loads(data)


def _walk(cover: Cover, streams: list[Stream], jobs: int, mine: set[int]) -> _Share:
    """Walk the rows of ``streams`` in blocks of BLOCK_ROWS, counted across
    streams; route the rows of the blocks ``b % jobs in mine`` as plane
    segments and skip the others.  ``_walk`` forks nothing: ``tally`` runs it
    once in each worker.

    A ``Rows`` that gives plane segments (the lattice) is read as segments,
    cut where a block boundary falls inside one; any other stream is sliced
    at each of these blocks, one segment per row (``_run``).  Another
    worker's block is skipped in O(1) and its rows are never made.  An error
    stops the walk; it is kept in the share with the index of the first row
    of the block, or of the part of a stream in it, that was being walked,
    or, for an L that has no router, of its stream.  The blocks are disjoint
    and each is one worker's, so that index orders it among the workers'
    errors."""
    share = _Share()
    m = cover.n + 2
    base_a = KIND_BASE_A
    routers: dict[int, Route] = {}
    index = 0  # the rows walked so far

    def count_segments(route: Route, big: int, segments: Iterable[Segment], start: int) -> None:
        """Route the segments, the first row with index ``start``, and count
        their rows.  A patch's rows are counted in closed form, and listed
        only as failures or sliver violations."""
        routes, reasons = share.routes, share.reasons
        failures, slivers = share.failures, share.slivers
        plane = big // m  # the sliver plane x_d = delta
        for P, y1, lo, hi in segments:
            for ya, yb, x0, x1, u0, u1, element, kind, reason in route(P, y1, lo, hi):
                if element is None:
                    listed, cap = failures, x1
                else:
                    rows = (yb - ya + 1) * (x1 - x0 + u1 - u0) // 2
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
            start += (y1 - y0) * (y1 + y0 + 1) // 2 + hi - lo

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
                    i, j = index - first, stop - first
                    part = map(_run, rows[i:j]) if planes is None else planes(i, j)
                    count_segments(route, big, part, index)
                index = stop
    except Exception as exc:  # a segment refused, no router for L, or no slice of the rows
        share.error = index, exc
    return share


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
    ``lattice_rows`` and ``random_rows`` give), else this raises TypeError,
    and hold at most ``sys.maxsize`` rows, the most a campaign indexes, else
    this raises ValueError naming the stream; both before any worker is
    forked.  The rows go in blocks of BLOCK_ROWS, counted across streams, to
    one worker per CPU this process may run on (``_jobs``), and each worker
    makes only its own blocks' rows (``_walk``).  ``tally`` alone forks,
    hands shares over and reaps.  Worker 0 is this process: before its own
    walk it forks worker k for each block k < jobs that the streams reach,
    or, where a fork fails, routes worker k's blocks itself.  A forked worker
    walks its blocks, sends its share back over a pipe and ends with
    ``os._exit``; worker 0 reads the shares in fork order after its own
    walk, and every worker is reaped before this returns or raises.  Merged,
    the shares give the report of one worker: failures and sliver violations
    in row order, and the error that stopped the earliest walked block, with
    its type and message; a forked worker's error is raised from its
    traceback, sent as text.
    """
    t0 = time.perf_counter()
    streams = list(streams)
    for i, (big, rows) in enumerate(streams):
        if not isinstance(rows, (list, tuple, Rows)):
            kind = type(rows).__name__
            raise TypeError(f"tally takes rows as a list, a tuple or a Rows, not {kind}")
        _refuse_unindexable(f"stream {i} (L = {big})", rows)
    jobs = _jobs()
    blocks = -(-sum(len(rows) for _, rows in streams) // BLOCK_ROWS)
    caller = os.getpid()
    children: list[Child] = []
    mine = {0}  # the workers whose blocks the caller routes
    try:
        for k in range(1, min(jobs, blocks)):
            try:
                pipe = _fork(children)
            except OSError:
                mine.add(k)
                continue
            if pipe is not None:  # worker k: walk its own blocks, hand the share over and end
                import pickle

                share = _walk(cover, streams, jobs, {k})
                if share.error is not None:
                    import traceback

                    share.trace = "".join(traceback.format_exception(share.error[1]))
                with open(pipe, "wb") as fh:
                    pickle.dump(share, fh)
                os._exit(0)
        shares = [_walk(cover, streams, jobs, mine)]
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
