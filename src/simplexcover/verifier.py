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

One pass of floor divisions plus one descending sort reads off the containing
Kuhn cell ``(v, perm)`` and whether it lies above the seam, from the residual
``w`` whose order gives ``perm``.  Above the seam (``x_d >= 1 + delta``,
possible only for n >= 2) it floors ``x - (1+delta)e``.  Below it, it tries the
type-(a) anchor ``v_j = floor(x_j / (1-delta))``, decremented once when that
leaves a residual at or below delta (so positive anchors always keep their
residual above delta).  If ``x_d`` then exceeds 1 or some residual, index d
cannot sort last, and the type-(b) anchor ``v_j = floor((x_j - delta)/(1-delta))``
is used instead; it lands every residual in [delta, 1).  The kind and the
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
ValueError.  The first three checks depend on the key ``(kind, v, perm)``
alone: ``_check_key`` makes that verdict once per key and cover, and it is kept
on the cover, failed or not.  On a key's first point over an L, the step
turns the verdict into that L's containment check (the perm's order of X
and the anchor numerators over L in that order), which every point of the key
then runs.  The step has two callers: ``witness`` makes one for its one scaled
point and builds its ``WitnessResult``; ``tally`` makes one per L, aggregates
the ``CoverageReport`` and makes no ``Fraction`` unless a point must be scanned
or shown.

Coverage of the target is certified by sampling: exhaustive rational lattices
where tractable, seeded random streams plus a boundary suite elsewhere.  Every
sampler is defined once, as a stream ``(L, rows)``: the lattice of step
``delta/q`` is the weakly decreasing vectors over ``L = q(n+2)``; a random point
``a * (n+eps)/10^6`` is ``a`` times a fixed integer over
``L = lcm(n+2, denominator of the step)``; the boundary suite is scaled once
over its common denominator.  ``lattice_samples`` and ``random_samples`` make
the same rows exact, in the same order; ``coverage_report`` scales each
Fraction point to its own row and feeds ``tally``.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, sub
from typing import Callable, Iterable, Iterator, Sequence

from .arith import IntVector, Permutation, Point, _scale, point_format
from .cover import (
    KIND_BASE_A,
    KIND_BASE_B,
    KIND_TOP,
    CoverElement,
    CoverSpec,
    Key,
    Verdict,
    anchor_numerators,
    delta,
    element_kind,
)
from .simplex import _descends, contains
from .triangulation import check_dn, weakly_decreasing_vectors

ROUTE_FALLBACK = "fallback"
ROUTES = (KIND_TOP, KIND_BASE_A, KIND_BASE_B, ROUTE_FALLBACK)
RANDOM_GRID = 10**6
FORMAT_POINTS_LIMIT = 5  # points shown before "(+k more)"

Stream = tuple[int, Iterable[Sequence[int]]]  # (L, integer rows over L)


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


def in_domain(x: Point, n: int, eps: Fraction) -> bool:
    """Exact test for n+eps >= x_1 >= ... >= x_d >= 0."""
    return _descends(n + eps, x)


def _point(X: Sequence[int], big: int) -> Point:
    """The point with numerators X over ``big``, made exact."""
    return tuple(Fraction(c, big) for c in X)


def _locate(X: Sequence[int], n: int, big: int, unit: int) -> tuple[bool, IntVector, Permutation]:
    """The single routing pass: ``(above_seam, v, perm)`` for an in-domain x
    given as numerators X over ``big`` (L above), with ``unit`` = D = big/(n+2).

    The residuals ``w`` sit behind a leading 0, so ``w[j]`` is index j's; the
    sort is stable, also in reverse, so ties keep ascending index."""
    xd = X[-1]
    seam = big + unit
    if n >= 2 and xd >= seam:
        # u lies in S^{n-1}; flooring picks the containing cell.  The clamp only
        # fires when u_j = n-1 exactly, where the residual must be 1, not 0.
        u = [xj - seam for xj in X]
        v = tuple(min(uj // big, n - 2) for uj in u)
        w = [0, *(uj - vj * big for uj, vj in zip(u, v))]
        above = True
    else:
        shrink = (n + 1) * unit
        va: list[int] = []
        w = [0]
        if xd <= big:  # type (a), unless x_d exceeds some residual
            for xj in X[:-1]:
                vj, wj = divmod(xj, shrink)
                if vj > 0 and wj <= unit:
                    # one decrement restores the residual to [1-delta, 1]
                    vj -= 1
                    wj += shrink
                if xd > wj:
                    break
                va.append(vj)
                w.append(wj)
        if len(w) < len(X):  # x_d exceeds 1 or a residual: type (b)
            va = [(xj - unit) // shrink for xj in X[:-1]]
            w = [0, *(xj - shrink * vj for xj, vj in zip(X, va))]
        w.append(xd)
        v = (*va, 0)
        above = False
    return above, v, tuple(sorted(range(1, len(w)), key=w.__getitem__, reverse=True))


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

    The constants of ``big`` are set up once here.  On a cell's first
    visit, ``route`` keeps the cell's containment check: the element, a
    picker of X in perm order and the anchor numerators over ``big`` in the
    same order, or, for a failed verdict, None and the failed check.
    """
    d, n = cover.d, cover.n
    unit = big // (n + 2)
    side = n * big + unit
    verdicts = cover._verdicts
    checks: dict[tuple[bool, IntVector, Permutation], tuple] = {}

    def route(X: Sequence[int]) -> Routed:
        if len(X) != d:
            raise ValueError("point/cover dimension or scale mismatch")
        if not _descends(side, X):
            raise ValueError(f"{_point(X, big)} is outside the target simplex")
        cell = _locate(X, n, big, unit)
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
    exhaustive scan and signals a defect in the routing pass.
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
    violation).  Streams over one L share one ``_router``, which checks each
    row; keys are checked once per cover, and containment for every point.
    """
    t0 = time.perf_counter()
    n = cover.n
    m = n + 2
    routes = {route: 0 for route in ROUTES}
    failures: list[Point] = []
    slivers: list[Point] = []
    reasons: Counter[str] = Counter()
    total = covered = 0
    routers: dict[int, Callable[[Sequence[int]], Routed]] = {}
    for big, rows in streams:
        route_row = routers.get(big)
        if route_row is None:
            route_row = routers[big] = _router(cover, big)
        for X in rows:
            total += 1
            try:
                _, route, reason = route_row(X)
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
    """``tally`` over Fraction points, each scaled to its own row; points
    over one L share one router.

    Passing ``eps`` asserts the caller's sampling contract — every sample must
    lie in S^{n+eps} — before any point is routed.
    """
    if eps is not None:
        _check_plan(cover.d, cover.n, eps)
        samples = list(samples)
        for x in samples:
            if not in_domain(x, cover.n, eps):
                raise ValueError(f"sample {x} violates the S^(n+eps) precondition")
    return tally(cover, (_scale((x,), cover.n) for x in samples))


def format_points(points: tuple[Point, ...]) -> str:
    shown = ", ".join(point_format(p) for p in points[:FORMAT_POINTS_LIMIT])
    extra = len(points) - FORMAT_POINTS_LIMIT
    return shown + (f" (+{extra} more)" if extra > 0 else "")
