"""Sampling campaigns: the points a coverage campaign routes, as streams.

Every sampler is defined once, as a stream ``(L, rows)`` of integer rows over
one denominator L, the form ``verifier.tally`` routes: the lattice of step
``delta/q`` is the weakly decreasing vectors over ``L = q(n+2)``; a random
point ``a * (n+eps)/10^6`` is ``a`` times a fixed integer over ``L = lcm(n+2,
denominator of the step)``; the boundary suite is scaled once over its common
denominator.  ``lattice_samples`` and ``random_samples`` make the same rows
exact, in the same order.

The lattice and random rows are a ``Rows``: a closed-form number of rows that
can be entered at any index without making the rows before it, so a tally
worker makes only the rows of its own blocks.  The lattice's rows also come as
runs, one prefix and a range of last coordinates each, which the route step
takes whole.  Each sampler checks its plan (``d``, ``n``, ``eps`` and its own
size) on the call, before the first row.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, Sequence

from .arith import IntVector, Point, _point, _scale
from .cover import delta
from .simplex import _descends
from .triangulation import Run, check_dn, weakly_decreasing_runs, weakly_decreasing_vectors

RANDOM_GRID = 10**6
_DRAW_BITS = (RANDOM_GRID + 1).bit_length()  # randint(0, RANDOM_GRID) draws this many bits
_descending = partial(sorted, reverse=True)

Stream = tuple[int, Iterable[Sequence[int]]]  # (L, integer rows over L)


def in_domain(x: Point, n: int, eps: Fraction) -> bool:
    """Exact test for n+eps >= x_1 >= ... >= x_d >= 0."""
    return _descends(n + eps, x)


def _check_plan(d: int, n: int, eps: Fraction) -> None:
    check_dn(d, n)
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    if eps > delta(n):
        raise ValueError(f"eps={eps} exceeds the margin 1/(n+2)={delta(n)}")


class Rows:
    """A sampler's rows, made on demand: ``len(rows)`` is their number,
    ``iter(rows)`` makes them from the first, and ``rows[i:j]`` makes rows
    i..j-1 without the rows before i.  Each call makes an iterator of its
    own, so a ``Rows`` can be walked any number of times.  ``since(i, j)``, given to the
    constructor, makes rows i..j-1 for ``0 <= i <= j <= len``.  A sampler
    whose rows come in runs of one prefix also gives ``runs(i, j)``, the same
    rows as runs ``(prefix, low, high)`` (``triangulation.Run``); the first and
    last may be cut at i and j.  Otherwise ``runs`` is None."""

    __slots__ = ("_count", "_since", "runs")

    def __init__(
        self,
        count: int,
        since: Callable[[int, int], Iterator[IntVector]],
        runs: Callable[[int, int], Iterator[Run]] | None = None,
    ) -> None:
        self._count = count
        self._since = since
        self.runs = runs

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[IntVector]:
        return self._since(0, self._count)

    def __getitem__(self, part: slice) -> Iterator[IntVector]:
        if not isinstance(part, slice) or part.step not in (None, 1):
            raise TypeError("a Rows takes only a slice of step 1")
        start, stop, _ = part.indices(self._count)
        return self._since(start, max(start, stop))


def lattice_rows(d: int, n: int, eps: Fraction, q: int) -> Stream:
    """Every point of the step-delta/q grid inside S^{n+eps}, ascending lex, as
    integer rows over ``L = q(n+2)``: ``(L, rows)``.  ``rows`` is a ``Rows``
    of the weakly decreasing vectors with entries at most ``b =
    floor((n+eps)L)``: there are ``C(b+d, d)``, and a slice starts at its
    first row's rank.  Its ``runs`` are those of ``weakly_decreasing_runs``.

    The plan is checked on the call, before the first row."""
    _check_plan(d, n, eps)
    if q < 1:
        raise ValueError(f"lattice resolution must be at least 1, got {q}")
    big = q * (n + 2)
    bound = math.floor((n + eps) * big)

    def since(start: int, stop: int) -> Iterator[IntVector]:
        return islice(weakly_decreasing_vectors(d, bound, start), stop - start)

    def runs(start: int, stop: int) -> Iterator[Run]:
        left = stop - start
        if left <= 0:
            return
        for head, low, high in weakly_decreasing_runs(d, bound, start):
            if high - low >= left:
                yield head, low, low + left
                return
            yield head, low, high
            left -= high - low

    return big, Rows(math.comb(bound + d, d), since, runs)


def lattice_samples(d: int, n: int, eps: Fraction, q: int) -> Iterator[Point]:
    """The points of ``lattice_rows``, made exact.

    The plan is checked on the call, before the first point."""
    big, rows = lattice_rows(d, n, eps, q)
    return (_point(X, big) for X in rows)


def random_rows(d: int, n: int, eps: Fraction, count: int, seed: int) -> Stream:
    """Deterministic seeded stream of in-domain points: d integer draws from
    [0, 10^6], sorted descending, scaled to the target; as integer rows over
    ``L = lcm(n+2, denominator of (n+eps)/10^6)``: ``(L, rows)``, ``rows`` a
    ``Rows`` of ``count`` rows.

    A draw is ``getrandbits(20)``, drawn again while above 10^6.  That is
    ``randint(0, 10**6)``'s own rejection rule, so the integers are the same,
    and skipping a row costs d draws and makes no row.  A slice that ends
    keeps the generator's state at its end, and the next slice that starts
    there or later goes on from it: a tally worker that enters the stream at
    each of its blocks draws each number about once, not once per block.

    The plan is checked on the call, before the first row."""
    _check_plan(d, n, eps)
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    scale = (n + eps) / RANDOM_GRID
    big = math.lcm(n + 2, scale.denominator)
    scaled = (scale.numerator * (big // scale.denominator)).__mul__
    mark: tuple[int, tuple] = 0, ()  # a row index and the generator's state before its draws

    def since(start: int, stop: int) -> Iterator[IntVector]:
        nonlocal mark
        at, state = mark
        rng = random.Random(seed)
        if 0 < at <= start:
            rng.setstate(state)
        else:
            at = 0
        draws = filter(RANDOM_GRID.__ge__, map(rng.getrandbits, repeat(_DRAW_BITS)))
        skip = (start - at) * d
        next(islice(draws, skip, skip), None)
        yield from islice(map(tuple, map(_descending, zip(*[map(scaled, draws)] * d))), stop - start)
        mark = stop, rng.getstate()

    return big, Rows(count, since)


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
