"""Kuhn triangulations: the right simplex S^n and its base slab.

The right simplex ``S^n = {x : n >= x_1 >= ... >= x_d >= 0}`` is partitioned by
the unit simplices ``k(v, pi)`` whose integer anchor v is weakly decreasing with
``n-1 >= v_1`` and whose permutation obeys the tie rule: whenever ``v_j = v_{j+1}``,
index j precedes j+1 in pi.  There are exactly n^d such cells.  Restricting to
``v_d = 0`` triangulates the slab ``0 <= x_d <= 1`` with n^d - (n-1)^d cells.

A cell is the plain tuple ``(v, perm)``.  ``tie_respecting_perms`` builds the
permutations by insertion: index j goes into each permutation of 1..j-1 at any
place, or only after j-1 when the two are tied; it then sorts them.  Its result
depends on v only through the tie pattern (which ``v_j = v_{j+1}``), of which
there are 2^(d-1), so an enumeration computes the permutations once per tie
pattern, in a table local to the call.  The anchor streams ``simplex_groups``
and ``base_slab_groups`` yield each anchor once with its pattern's tuple,
``(v, perms)``; the cell enumerators flatten them, and the cover is built from
them one anchor at a time.  ``check_dn`` is the one (d, n) check of the
package; each enumerator calls it when called, before the first cell is made.

Enumeration order is canonical everywhere: anchors in ascending lexicographic
order, then permutations in ascending lexicographic order of their image
sequences.
"""

from __future__ import annotations

import math
import operator
from itertools import chain
from typing import Iterator

from .arith import IntVector, Permutation, is_permutation

Cell = tuple[IntVector, Permutation]
Group = tuple[IntVector, tuple[Permutation, ...]]  # an anchor and all its cells' perms


def check_dn(d: int, n: int) -> None:
    """Raise ValueError unless d >= 2 and n >= 1."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")


def is_admissible(v: IntVector, perm: Permutation, n: int) -> bool:
    """Whether k(v, pi) is a cell of the S^n triangulation.

    True iff n-1 >= v_1 >= ... >= v_d >= 0 and the tie rule holds (equal
    consecutive anchor entries appear in ascending index order in perm).
    """
    d = len(v)
    if not is_permutation(perm, d):
        return False
    if any(v[j] < v[j + 1] for j in range(d - 1)) or v[-1] < 0 or v[0] > n - 1:
        return False
    for j in range(d - 1):
        if v[j] == v[j + 1] and perm.index(j + 1) > perm.index(j + 2):
            return False
    return True


def weakly_decreasing_vectors(d: int, bound: int, start: int = 0) -> Iterator[IntVector]:
    """All integer vectors with bound >= v_1 >= ... >= v_d >= 0, ascending lex,
    from the one of rank ``start`` (0 for the first) on: for d >= 2 the planes
    of ``weakly_decreasing_planes``, flattened."""
    if d == 0:
        return iter([()] if start < 1 else [])
    if d == 1:
        return ((k,) for k in range(start, bound + 1))
    lasts = [(k,) for k in range(bound + 1)]
    return chain.from_iterable(
        map((*P[:-1], y).__add__, lasts[lo if y == P[-1] else 0 : hi if y == y1 else y + 1])
        for P, y1, lo, hi in weakly_decreasing_planes(d, bound, start)
        for y in range(P[-1], y1 + 1)
    )


# The rows Q + (y, x) of one plane Q, from (y0, lo) to (y1, hi - 1): the prefix
# P = Q + (y0,) of the first row, y1, lo and hi.  Every row but the first
# starts at x = 0 and every row but the last ends at x = y.
Segment = tuple[IntVector, int, int, int]


def _unrank(d: int, bound: int, start: int) -> list[int]:
    """The vector of rank ``start`` among the weakly decreasing d-vectors with
    entries at most ``bound``, for ``0 <= start < C(bound+d, d)``.

    An entry c with k entries after it heads ``C(c+k, k)`` vectors, and the
    entries below c head ``C(c+k, k+1)`` of them together (the hockey-stick
    sum), so each entry, first to last, is the largest c at most the entry
    before it with ``C(c+k, k+1) <= start``: a binary search, O(d log bound)
    ``comb`` calls in all."""
    v = []
    top = bound
    for k in range(d - 1, -1, -1):
        low, high = 0, top
        while low < high:
            mid = (low + high + 1) // 2
            if math.comb(mid + k, k + 1) <= start:
                low = mid
            else:
                high = mid - 1
        start -= math.comb(low + k, k + 1)
        v.append(low)
        top = low
    return v


def weakly_decreasing_planes(d: int, bound: int, start: int = 0) -> Iterator[Segment]:
    """The vectors of ``weakly_decreasing_vectors(d, bound, start)`` (d >= 2)
    as planes, one per prefix Q of the first d-2 entries, in order: the
    segments ``(Q + (y0,), y1, lo, hi)`` whose rows are ``Q + (y, x)`` for
    y0 <= y <= y1 and 0 <= x <= y, from ``x = lo`` on the first row and up
    to ``x = hi - 1`` on the last.  Every plane runs to ``y1 = Q[-1]`` (to
    ``bound`` when d = 2) and ``hi = y1 + 1``; every plane but the first
    starts at ``y0 = lo = 0``.

    The vector of rank ``start`` is found without making those before it
    (``_unrank``).  From there it is iterative: the next prefix raises the
    rightmost entry of Q that is below its left neighbour (below ``bound``
    for the first) and zeroes the entries after it.  This is the one
    enumeration loop of the lattice.
    """
    if d < 2 or bound < 0 or start >= math.comb(bound + d, d):
        return
    *prefix, y0, low = _unrank(d, bound, start)
    while True:
        top = prefix[-1] if prefix else bound
        yield (*prefix, y0), top, low, top + 1
        y0 = low = 0
        j = d - 3
        while j >= 0 and prefix[j] == (prefix[j - 1] if j else bound):
            j -= 1
        if j < 0:
            return
        prefix[j] += 1
        prefix[j + 1 :] = [0] * (d - 3 - j)


def tie_respecting_perms(v: IntVector) -> Iterator[Permutation]:
    """All permutations satisfying the tie rule for v, in lexicographic order.

    The tie rule is read as insertion: index j goes into each permutation of
    1..j-1 at every place, or only after j-1 when ``v_{j-1} = v_j``.
    """
    perms: list[Permutation] = [()]
    for j in range(1, len(v) + 1):
        tied = j > 1 and v[j - 2] == v[j - 1]
        perms = [
            p[:i] + (j,) + p[i:]
            for p in perms
            for i in range(p.index(j - 1) + 1 if tied else 0, j)
        ]
    return iter(sorted(perms))


def simplex_groups(d: int, n: int) -> Iterator[Group]:
    """``(v, perms)`` for each anchor of the S^n triangulation, in canonical
    order; flattened, these are the cells of ``enumerate_simplex_triangulation``."""
    check_dn(d, n)
    return _groups(weakly_decreasing_vectors(d, n - 1))


def base_slab_groups(d: int, m: int) -> Iterator[Group]:
    """``(v, perms)`` for each anchor of the base slab of S^m, in canonical
    order; flattened, these are the cells of ``enumerate_base_slab``."""
    check_dn(d, m)
    return _groups((*prefix, 0) for prefix in weakly_decreasing_vectors(d - 1, m - 1))


def enumerate_simplex_triangulation(d: int, n: int) -> Iterator[Cell]:
    """The n^d cells partitioning S^n, in canonical order."""
    return _cells(simplex_groups(d, n))


def enumerate_base_slab(d: int, m: int) -> Iterator[Cell]:
    """The m^d - (m-1)^d cells of S^m with v_d = 0, partitioning the slab
    ``0 <= x_d <= 1`` of S^m."""
    return _cells(base_slab_groups(d, m))


def _groups(anchors: Iterator[IntVector]) -> Iterator[Group]:
    perms_by_ties: dict[tuple[bool, ...], tuple[Permutation, ...]] = {}
    for v in anchors:
        ties = tuple(map(operator.eq, v, v[1:]))
        perms = perms_by_ties.get(ties)
        if perms is None:
            perms = perms_by_ties[ties] = tuple(tie_respecting_perms(v))
        yield v, perms


def _cells(groups: Iterator[Group]) -> Iterator[Cell]:
    return ((v, perm) for v, perms in groups for perm in perms)
