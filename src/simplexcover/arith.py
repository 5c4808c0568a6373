"""Exact rational scalars, points, and permutations.

Everything geometric in this package is decided exactly, with no tolerances
anywhere: points and anchors are arbitrary-precision rationals
(``fractions.Fraction``), and point location decides its predicates on Python
ints over one common denominator.  Floating point exists only in the SVG
renderer.

Points are plain tuples of Fractions; permutations are tuples of 1-based
images ``(pi(1), ..., pi(d))``.  Both are immutable and freely shareable.

The package's value classes (``CoverElement``, the covers, ``KuhnSimplex``,
``WitnessResult``, ``CoverageReport``) build on ``_Value`` and ``_Frozen``
here, which give them the ``==``, ``hash``, ``repr`` and ``replace`` that
``dataclasses`` would generate, without importing it (and ``inspect`` with it)
in every process.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

Point = tuple[Fraction, ...]
Permutation = tuple[int, ...]
IntVector = tuple[int, ...]

# Accepted grammar: -? digits ( "/" digits )? with ASCII digits; ``\d`` would
# also match other scripts' digits, which ``int`` then accepts.
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class ParseError(ValueError):
    """Malformed rational or point literal."""


def rat_parse(s: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` (optionally negated) into a canonical Fraction.

    Raises ParseError on anything outside the grammar, including a zero
    denominator.  The result is always in lowest terms with a positive
    denominator (``Fraction`` guarantees both).
    """
    if not _RATIONAL_RE.fullmatch(s):
        raise ParseError(f"not a rational literal: {s!r}")
    num, _, den = s.partition("/")
    try:
        p, q = int(num), int(den or 1)
    except ValueError as exc:  # the interpreter's integer-digit limit
        raise ParseError(f"rational literal too long: {exc}") from exc
    if q == 0:
        raise ParseError(f"zero denominator: {s!r}")
    return Fraction(p, q)


def rat_format(r: Fraction) -> str:
    """Canonical rendering: ``"p/q"`` in lowest terms, or ``"p"`` when q = 1."""
    return str(r)


def point_parse(s: str, d: int) -> Point:
    """Parse a comma-separated list of exactly ``d`` rational tokens."""
    tokens = [t.strip() for t in s.split(",")]
    if len(tokens) != d:
        raise ParseError(f"expected {d} coordinates, got {len(tokens)}: {s!r}")
    return tuple(rat_parse(t) for t in tokens)


def point_format(p: Sequence[Fraction]) -> str:
    return ",".join(rat_format(c) for c in p)


def is_permutation(perm: Sequence[int], d: int) -> bool:
    return len(perm) == d and sorted(perm) == list(range(1, d + 1))


def _scale(points: Sequence[Point], n: int) -> tuple[int, list[list[int]]]:
    """The points as integer rows over one common denominator
    ``L = lcm(n+2, denominators of the points)``: ``(L, [X, ...])``.  A
    coordinate that is not an int or a Fraction is a TypeError naming its
    point."""
    try:
        big = math.lcm(n + 2, *(c.denominator for x in points for c in x))
    except AttributeError:  # no denominator: a float, say
        bad = next(x for x in points if not all(hasattr(c, "denominator") for c in x))
        raise TypeError(f"point {tuple(bad)}: coordinates must be int or Fraction") from None
    return big, [[c.numerator * (big // c.denominator) for c in x] for x in points]


def _point(X: Sequence[int], big: int) -> Point:
    """The point with numerators X over ``big``, made exact."""
    return tuple(Fraction(c, big) for c in X)


_set = object.__setattr__  # sets a ``_Frozen``'s fields in its ``__init__``, one global lookup each


class _Value:
    """A value class, as ``dataclass`` makes one, over the fields that
    ``__match_args__`` names, in order.  ``==`` compares the fields of two
    objects of one class, and returns ``NotImplemented`` against anything
    else; ``repr`` shows them; ``__replace__`` (``copy.replace`` from Python
    3.13) makes a new object through ``__init__`` with the fields named
    changed, so an unknown field is a TypeError and ``__post_init__`` checks
    the new object.  Each class writes its own ``__init__``, which calls
    ``self.__post_init__()`` last where the class has one.  A ``_Value`` is
    mutable and has no hash."""

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __replace__(self, /, **changes: object) -> _Value:
        return self.__class__(**{name: getattr(self, name) for name in self.__match_args__} | changes)


class _Frozen(_Value):
    """A ``_Value`` that hashes its fields and refuses assignment: its
    ``__init__`` sets them with ``_set``, and a ``cached_property`` writes to
    ``__dict__`` itself."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
