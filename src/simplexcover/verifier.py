"""Coverage campaigns: sample streams, the coverage report, point lists.

Coverage of the target is certified by sampling (exhaustive rational lattices
where tractable, seeded random streams plus a boundary suite elsewhere) with
per-point exact witness verification.  A lattice point reuses one table of
the ``kmax + 1`` distinct coordinate values ``k * delta/q`` instead of making
a Fraction per coordinate.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .arith import Point, point_format, rat_floor
from .cover import CoverSpec, delta
from .triangulation import check_dn, weakly_decreasing_vectors
from .witness import ROUTES, UncoveredPointError, in_domain, witness

RANDOM_GRID = 10**6
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


def lattice_samples(d: int, n: int, eps: Fraction, q: int) -> Iterator[Point]:
    """Every point of the step-delta/q grid inside S^{n+eps}, ascending lex.

    The plan is checked on the call, before the first point."""
    _check_plan(d, n, eps)
    if q < 1:
        raise ValueError(f"lattice resolution must be at least 1, got {q}")
    step = delta(n) / q
    kmax = rat_floor((n + eps) / step)
    values = [step * k for k in range(kmax + 1)]
    return (tuple(values[ki] for ki in k) for k in weakly_decreasing_vectors(d, kmax))


def random_samples(d: int, n: int, eps: Fraction, count: int, seed: int) -> Iterator[Point]:
    """Deterministic seeded stream of in-domain points: d integer draws from
    [0, 10^6], sorted descending, scaled to the target.

    The plan is checked on the call, before the first point."""
    _check_plan(d, n, eps)
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    rng = random.Random(seed)
    scale = (n + eps) / RANDOM_GRID

    def draw() -> Point:
        draws = sorted((rng.randint(0, RANDOM_GRID) for _ in range(d)), reverse=True)
        return tuple(scale * a for a in draws)

    return (draw() for _ in range(count))


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


def coverage_report(
    cover: CoverSpec, samples: Iterable[Point], eps: Fraction | None = None
) -> CoverageReport:
    """Witness every sample, verify membership exactly, aggregate the outcome.

    The run succeeds iff every sample is covered, no witness fell back to
    exhaustive search, and every point at or below the sliver plane came back
    on the base_a route.  Sliver violations fail the run, and fallbacks are
    counted by ``fallback_reason``; neither is serialized: the report stays on
    the pinned wire schema.
    Passing ``eps`` asserts the caller's sampling contract — every sample must
    lie in S^{n+eps} — before any witness runs.
    """
    if eps is not None:
        _check_plan(cover.d, cover.n, eps)
        samples = list(samples)
        for x in samples:
            if not in_domain(x, cover.n, eps):
                raise ValueError(f"sample {x} violates the S^(n+eps) precondition")
    t0 = time.perf_counter()
    routes = {route: 0 for route in ROUTES}
    failures: list[Point] = []
    slivers: list[Point] = []
    reasons: Counter[str] = Counter()
    total = covered = 0
    m = cover.n + 2  # x_d <= delta = 1/m, decided on ints
    for x in samples:
        total += 1
        try:
            result = witness(x, cover.d, cover.n, cover)
        except UncoveredPointError:
            failures.append(x)
            continue
        routes[result.route] += 1
        covered += 1
        if result.fallback_reason is not None:
            reasons[result.fallback_reason] += 1
        if result.route != "base_a" and x[-1].numerator * m <= x[-1].denominator:
            slivers.append(x)
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


def format_points(points: tuple[Point, ...]) -> str:
    shown = ", ".join(point_format(p) for p in points[:FORMAT_POINTS_LIMIT])
    extra = len(points) - FORMAT_POINTS_LIMIT
    return shown + (f" (+{extra} more)" if extra > 0 else "")
