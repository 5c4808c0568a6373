"""Coverage campaigns: sample streams, the coverage report, point lists.

Coverage of the target is certified by sampling (exhaustive rational lattices
where tractable, seeded random streams plus a boundary suite elsewhere) with
per-point exact witness verification.

Every sampler is defined once, as a stream ``(L, rows)`` of integer rows over
one denominator L, a multiple of n+2: the lattice of step ``delta/q`` is the
weakly decreasing vectors over ``L = q(n+2)``; a random point ``a * (n+eps)/10^6``
is ``a`` times a fixed integer over ``L = lcm(n+2, denominator of the step)``;
the boundary suite is scaled once over its common denominator.
``lattice_samples`` and ``random_samples`` make the same rows exact, in the
same order.
``tally`` routes the rows through ``witness._route``, the one point-location
step of ``witness`` too, and aggregates the report; ``coverage_report`` scales
each Fraction point to its own row and feeds the same loop.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .arith import IntVector, Point, point_format
from .cover import KIND_BASE_A, CoverSpec, delta
from .triangulation import check_dn, weakly_decreasing_vectors
from .witness import ROUTES, UncoveredPointError, _point, _route, _scale, in_domain

RANDOM_GRID = 10**6
FORMAT_POINTS_LIMIT = 5  # points shown before "(+k more)"

Stream = tuple[int, Iterable[Sequence[int]]]  # (L, integer rows over L)


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
            and self.routes.get("fallback", 0) == 0
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


def _check_plan(d: int, n: int, eps: Fraction) -> None:
    check_dn(d, n)
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    if eps > delta(n):
        raise ValueError(f"eps={eps} exceeds the margin 1/(n+2)={delta(n)}")


def lattice_rows(d: int, n: int, eps: Fraction, q: int) -> Stream:
    """Every point of the step-delta/q grid inside S^{n+eps}, ascending lex, as
    integer rows over ``L = q(n+2)``: ``(L, rows)``.

    The plan is checked on the call, before the first row."""
    _check_plan(d, n, eps)
    if q < 1:
        raise ValueError(f"lattice resolution must be at least 1, got {q}")
    big = q * (n + 2)
    return big, weakly_decreasing_vectors(d, math.floor((n + eps) * big))


def lattice_samples(d: int, n: int, eps: Fraction, q: int) -> Iterator[Point]:
    """The points of ``lattice_rows``, made exact.

    The plan is checked on the call, before the first point."""
    big, rows = lattice_rows(d, n, eps, q)
    return (_point(X, big) for X in rows)


def random_rows(d: int, n: int, eps: Fraction, count: int, seed: int) -> Stream:
    """Deterministic seeded stream of in-domain points: d integer draws from
    [0, 10^6], sorted descending, scaled to the target; as integer rows over
    ``L = lcm(n+2, denominator of (n+eps)/10^6)``: ``(L, rows)``.

    The plan is checked on the call, before the first row."""
    _check_plan(d, n, eps)
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    rng = random.Random(seed)
    scale = (n + eps) / RANDOM_GRID
    big = math.lcm(n + 2, scale.denominator)
    factor = scale.numerator * (big // scale.denominator)

    def draw() -> IntVector:
        draws = sorted((rng.randint(0, RANDOM_GRID) for _ in range(d)), reverse=True)
        return tuple(factor * a for a in draws)

    return big, (draw() for _ in range(count))


def random_samples(d: int, n: int, eps: Fraction, count: int, seed: int) -> Iterator[Point]:
    """The points of ``random_rows``, made exact.

    The plan is checked on the call, before the first point."""
    big, rows = random_rows(d, n, eps, count, seed)
    return (_point(X, big) for X in rows)


def boundary_suite(d: int, n: int, eps: Fraction) -> list[Point]:
    """Deterministic edge cases: target vertices, centroid, points on the sliver
    plane x_d = delta and the seam plane x_d = 1+delta, and delta/1 coordinate
    patterns.  Everything outside S^{n+eps} is dropped (the seam plane leaves
    the target when eps < delta and n = 1)."""
    _check_plan(d, n, eps)
    dl = delta(n)
    top = n + eps
    pts: list[Point] = []
    for k in range(d + 1):
        pts.append(tuple(Fraction(top) if i < k else Fraction(0) for i in range(d)))
    pts.append(tuple(top * Fraction(d + 1 - i, d + 1) for i in range(1, d + 1)))
    for k in range(d + 1):
        pts.append((Fraction(1),) * k + (dl,) * (d - k))
    for level in (dl, 1 + dl):
        for lead in (level, Fraction(1), 1 + dl, top):
            if lead >= level:
                pts.append((lead,) * (d - 1) + (level,))
        pts.append((top,) + (level,) * (d - 1))
    seen: set[Point] = set()
    suite: list[Point] = []
    for p in pts:
        if p not in seen and in_domain(p, n, eps):
            seen.add(p)
            suite.append(p)
    return suite


def boundary_rows(d: int, n: int, eps: Fraction) -> Stream:
    """``boundary_suite`` as integer rows over the suite's common denominator
    ``L = lcm(n+2, denominators)``: ``(L, rows)``."""
    return _scale(boundary_suite(d, n, eps), n)


def tally(cover: CoverSpec, streams: Iterable[Stream]) -> CoverageReport:
    """Route every row of every ``(L, rows)`` stream through the cover, verify
    membership exactly, aggregate the outcome.

    The run succeeds iff every sample is covered, no witness fell back to
    exhaustive search, and every point at or below the sliver plane
    (``X_d (n+2) <= L``) came back on the base_a route.  Sliver violations fail
    the run, and fallbacks are counted by their failed check; neither is
    serialized: the report stays on the pinned wire schema.  A point is made
    exact only to be scanned (a fallback) or shown (a failure, a sliver
    violation).  ``witness._route`` checks each key once per cover, and
    containment for every point.
    """
    t0 = time.perf_counter()
    n = cover.n
    m = n + 2
    routes = {route: 0 for route in ROUTES}
    failures: list[Point] = []
    slivers: list[Point] = []
    reasons: Counter[str] = Counter()
    total = covered = 0
    for big, rows in streams:
        for X in rows:
            total += 1
            try:
                _, route, reason = _route(X, big, cover)
            except UncoveredPointError:
                failures.append(_point(X, big))
                continue
            routes[route] += 1
            covered += 1
            if reason is not None:
                reasons[reason] += 1
            if route != KIND_BASE_A and X[-1] * m <= big:
                slivers.append(_point(X, big))
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return CoverageReport(
        total=total,
        covered=covered,
        routes=routes,
        failures=tuple(failures),
        elapsed_ms=elapsed_ms,
        sliver_violations=tuple(slivers),
        fallback_reasons=dict(sorted(reasons.items())),
    )


def coverage_report(
    cover: CoverSpec, samples: Iterable[Point], eps: Fraction | None = None
) -> CoverageReport:
    """``tally`` over Fraction points, each scaled to its own row.

    Passing ``eps`` asserts the caller's sampling contract — every sample must
    lie in S^{n+eps} — before any point is routed.
    """
    if eps is not None:
        _check_plan(cover.d, cover.n, eps)
        samples = list(samples)
        for x in samples:
            if not in_domain(x, cover.n, eps):
                raise ValueError(f"sample {x} violates the S^(n+eps) precondition")

    def streams() -> Iterator[Stream]:
        for x in samples:
            if len(x) != cover.d:
                raise ValueError("point/cover dimension or scale mismatch")
            yield _scale((x,), cover.n)

    return tally(cover, streams())


def format_points(points: tuple[Point, ...]) -> str:
    shown = ", ".join(point_format(p) for p in points[:FORMAT_POINTS_LIMIT])
    extra = len(points) - FORMAT_POINTS_LIMIT
    return shown + (f" (+{extra} more)" if extra > 0 else "")
