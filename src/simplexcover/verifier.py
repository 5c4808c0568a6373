"""Verification campaigns: coverage sampling, oracle cross-checks, partitions.

Coverage of the target is certified by sampling (exhaustive rational lattices
where tractable, seeded random streams plus a boundary suite elsewhere) with
per-point exact witness verification.  Triangulations are checked by counting,
by exact volume accounting, and by strict-containment multiplicity at generic
interior points.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .arith import Point, point_format, rank_descending, rat_floor
from .cover import CoverElement, CoverSpec, delta
from .simplex import KuhnSimplex, contains, contains_oracle, unit_volume
from .triangulation import Cell, check_dn, weakly_decreasing_vectors
from .witness import ROUTES, UncoveredPointError, in_domain, witness

RANDOM_GRID = 10**6


@dataclass
class CoverageReport:
    total: int
    covered: int
    routes: dict[str, int]
    failures: tuple[Point, ...]
    elapsed_ms: int
    sliver_violations: tuple[Point, ...] = field(default=())

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


@dataclass
class PartitionReport:
    simplex_count: int
    volume_expected: Fraction
    volume_ok: bool
    samples_total: int
    bad_points: tuple[tuple[Point, int], ...]

    @property
    def success(self) -> bool:
        return self.volume_ok and not self.bad_points


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
    return (tuple(step * ki for ki in k) for k in weakly_decreasing_vectors(d, kmax))


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
    on the base_a route.  Sliver violations fail the run but are not
    serialized: the report stays on the pinned wire schema.
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
    total = covered = 0
    dl = cover.delta
    for x in samples:
        total += 1
        try:
            result = witness(x, cover.d, cover.n, cover)
        except UncoveredPointError:
            failures.append(x)
            continue
        routes[result.route] += 1
        covered += 1
        if x[-1] <= dl and result.route != "base_a":
            slivers.append(x)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return CoverageReport(
        total=total,
        covered=covered,
        routes=routes,
        failures=tuple(failures),
        elapsed_ms=elapsed_ms,
        sliver_violations=tuple(slivers),
    )


def bruteforce_containing(cover: CoverSpec, x: Point) -> tuple[CoverElement, ...]:
    """All cover elements containing x, decided by the barycentric oracle."""
    return tuple(el for el in cover.elements if contains_oracle(el.simplex, x))


def _generic_candidate(x: Point) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Anchor and permutation of the only simplex that can strictly contain a
    generic point: strict containment forces every residual into (0, 1), hence
    v = floor(x) and pi = the descending order of the fractional parts."""
    v: list[int] = []
    fracs: list[Fraction] = []
    for xi in x:
        fi = rat_floor(xi)
        frac = xi - fi
        if frac == 0:
            raise ValueError(f"non-generic sample (integer coordinate): {x}")
        v.append(fi)
        fracs.append(frac)
    if len(set(fracs)) != len(fracs):
        raise ValueError(f"non-generic sample (integer coordinate difference): {x}")
    return tuple(v), rank_descending(fracs)


def partition_check(
    cells: Iterable[Cell],
    d: int,
    region_volume: Fraction,
    samples: Iterable[Point],
) -> PartitionReport:
    """Check that the (v, perm) cells tile a region: exact volume accounting
    plus strict containment multiplicity exactly 1 at each generic interior
    sample."""
    cell_list = list(cells)
    keys = set(cell_list)
    if len(keys) != len(cell_list):
        raise ValueError("duplicate (v, perm) cells in triangulation")
    volume_ok = len(cell_list) * unit_volume(d) == region_volume
    bad: list[tuple[Point, int]] = []
    total = 0
    for x in samples:
        total += 1
        v, perm = _generic_candidate(x)
        multiplicity = 0
        if (v, perm) in keys:
            cell = KuhnSimplex(tuple(Fraction(c) for c in v), perm)
            if contains(cell, x, strict=True):
                multiplicity = 1
        if multiplicity != 1:
            bad.append((x, multiplicity))
    return PartitionReport(
        simplex_count=len(cell_list),
        volume_expected=region_volume,
        volume_ok=volume_ok,
        samples_total=total,
        bad_points=tuple(bad),
    )


def generic_interior_simplex_samples(
    d: int,
    scale: int,
    count: int,
    seed: int,
    below: Fraction | None = None,
) -> list[Point]:
    """Seeded generic interior points of S^scale: strictly inside, no integer
    coordinate, no integer coordinate difference (so exactly one triangulation
    cell contains each strictly).  ``below`` additionally bounds x_d (slab use).
    Non-generic draws are rejected and redrawn."""
    rng = random.Random(seed)
    out: list[Point] = []
    hi = scale * RANDOM_GRID - 1
    while len(out) < count:
        draws = sorted((rng.randint(1, hi) for _ in range(d)), reverse=True)
        if any(a % RANDOM_GRID == 0 for a in draws):
            continue
        if len({a % RANDOM_GRID for a in draws}) != d:
            continue
        x = tuple(Fraction(a, RANDOM_GRID) for a in draws)
        if below is not None and x[-1] >= below:
            continue
        out.append(x)
    return out


def generic_interior_cube_samples(d: int, count: int, seed: int) -> list[Point]:
    """Seeded generic interior points of the unit cube (coordinates distinct,
    strictly inside), unsorted."""
    rng = random.Random(seed)
    out: list[Point] = []
    while len(out) < count:
        draws = [rng.randint(1, RANDOM_GRID - 1) for _ in range(d)]
        if len(set(draws)) != d:
            continue
        out.append(tuple(Fraction(a, RANDOM_GRID) for a in draws))
    return out


def format_points(points: tuple[Point, ...], limit: int = 5) -> str:
    shown = ", ".join(point_format(p) for p in points[:limit])
    extra = len(points) - limit
    return shown + (f" (+{extra} more)" if extra > 0 else "")
