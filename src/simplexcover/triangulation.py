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
    from the one of rank ``start`` (0 for the first) on.

    The vector of rank ``start`` is found without making those before it:
    an entry c with k entries after it heads ``C(c+k, k)`` vectors (the
    weakly decreasing k-vectors with entries <= c), so each entry, first to
    last, is the c at which those counts for 0, 1, ... stop fitting in the
    rank left.  From there it is iterative: the last entry runs over
    0..v_{d-1} for each prefix, and the next prefix raises the rightmost entry
    that is below its left neighbour (below ``bound`` for the first) and zeroes
    the entries after it.
    """
    if d == 0:
        if start < 1:
            yield ()
        return
    if bound < 0 or start >= math.comb(bound + d, d):
        return
    v = []
    for k in range(d - 1, -1, -1):
        c = 0
        while start >= math.comb(c + k, k):
            start -= math.comb(c + k, k)
            c += 1
        v.append(c)
    lasts = [(k,) for k in range(bound + 1)]
    prefix = v[:-1]
    low = v[-1]  # the last entry of the first vector
    while True:
        head = tuple(prefix)
        yield from map(head.__add__, lasts[low : (prefix[-1] if prefix else bound) + 1])
        low = 0
        j = d - 2
        while j >= 0 and prefix[j] == (prefix[j - 1] if j else bound):
            j -= 1
        if j < 0:
            return
        prefix[j] += 1
        prefix[j + 1 :] = [0] * (d - 2 - j)


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
