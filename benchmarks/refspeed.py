"""Reference CPU speed, so that times taken on a machine whose speed drifts
can be compared.

On a shared two-core machine the same Python code runs up to 1.6x faster or
slower as other tenants come and go, switching within tens of milliseconds, so
raw wall times of runs a minute apart differ by 15-25%.  A short fixed loop of
exact rational arithmetic in pure Python (object allocation, method calls and
integer gcd, the kind of work ``fractions.Fraction`` does for the package)
slows down nearly in step with the package.  ``RefClock`` runs that loop just
before and just after each timed call, and every ``PERIOD_S`` during it from a
timer signal handler in the same thread.  A call's reference time is its wall
time, less the time spent in those handlers, multiplied by the mean of
``REFERENCE_LOOP_S / loop time`` over those runs: the time the call would take
on a machine where the loop takes ``REFERENCE_LOOP_S``.  The loop never calls
the package, so the scale is the same for every version of it.  Sampling
every 10 ms rather than every 200 ms cut the spread of one 0.4 s call's
reference time from about 9% to 3% (coefficient of variation, 25 calls).
"""

from __future__ import annotations

import signal
from math import gcd
from time import perf_counter

LOOP_TERMS = 100
REFERENCE_LOOP_S = 0.0002
PERIOD_S = 0.01


class _Rational:
    """A minimal exact rational: allocation, method calls and gcd, like Fraction."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int) -> None:
        g = gcd(num, den)
        self.num = num // g
        self.den = den // g

    def __add__(self, other: "_Rational") -> "_Rational":
        return _Rational(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other: "_Rational") -> "_Rational":
        return _Rational(self.num * other.num, self.den * other.den)

    def __le__(self, other: "_Rational") -> bool:
        return self.num * other.den <= other.num * self.den


def loop_seconds() -> float:
    """Wall time of one run of the reference loop: LOOP_TERMS products and
    sums of rationals, each compared with 1."""
    t0 = perf_counter()
    total, one, above = _Rational(0, 1), _Rational(1, 1), 0
    for i in range(1, LOOP_TERMS):
        total = total + _Rational(1, i % 97 + 1) * _Rational(i, 7)
        if one <= total:
            above += 1
    return perf_counter() - t0


class RefClock:
    """Times calls in reference seconds.  Uses SIGALRM while a call runs, so
    use it from the main thread only."""

    def __init__(self) -> None:
        self.loops: list[float] = []
        self._handler_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.loops.append(loop_seconds())
        self._handler_s += perf_counter() - t0

    def call(self, fn, *args):
        """Return fn(*args) and its time in reference seconds."""
        first = len(self.loops)
        self.loops.append(loop_seconds())
        previous = signal.signal(signal.SIGALRM, self._tick)
        handler_s = self._handler_s
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= self._handler_s - handler_s
        self.loops.append(loop_seconds())
        runs = self.loops[first:]
        return result, wall * sum(REFERENCE_LOOP_S / s for s in runs) / len(runs)
