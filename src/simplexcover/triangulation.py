"""Kuhn triangulations: the unit cube, the right simplex S^n, and its base slab.

The right simplex ``S^n = {x : n >= x_1 >= ... >= x_d >= 0}`` is partitioned by
the unit simplices ``k(v, pi)`` whose integer anchor v is weakly decreasing with
``n-1 >= v_1`` and whose permutation obeys the tie rule: whenever ``v_j = v_{j+1}``,
index j precedes j+1 in pi.  There are exactly n^d such pairs.  Restricting to
``v_d = 0`` triangulates the slab ``0 <= x_d <= 1`` with n^d - (n-1)^d pairs, and
``v = 0`` with all d! permutations triangulates the unit cube (no tie rule there:
the cube pieces legitimately use every permutation).

Enumeration order is canonical everywhere: anchors in ascending lexicographic
order, then permutations in ascending lexicographic order of their image
sequences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .arith import IntVector, Permutation, is_permutation


@dataclass(frozen=True)
class AdmissiblePair:
    """A lattice anchor v together with a permutation of 1..d."""

    v: IntVector
    perm: Permutation


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


def weakly_decreasing_vectors(d: int, bound: int) -> Iterator[IntVector]:
    """All integer vectors with bound >= v_1 >= ... >= v_d >= 0, ascending lex."""
    if d == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in weakly_decreasing_vectors(d - 1, first):
            yield (first, *rest)


def _equal_runs(v: IntVector) -> list[list[int]]:
    """Maximal runs of equal values, as lists of 1-based indices."""
    runs: list[list[int]] = []
    for idx in range(1, len(v) + 1):
        if runs and v[idx - 2] == v[idx - 1]:
            runs[-1].append(idx)
        else:
            runs.append([idx])
    return runs


def _multiset_sequences(counts: list[int]) -> Iterator[tuple[int, ...]]:
    """Distinct sequences over labels 0..len(counts)-1 with given multiplicities,
    in lexicographic order."""
    total = sum(counts)
    seq: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(seq) == total:
            yield tuple(seq)
            return
        for label, left in enumerate(counts):
            if left:
                counts[label] -= 1
                seq.append(label)
                yield from rec()
                seq.pop()
                counts[label] += 1

    yield from rec()


def tie_respecting_perms(v: IntVector) -> Iterator[Permutation]:
    """All permutations satisfying the tie rule for v, in lexicographic order.

    Built constructively: indices tied by equal v-values must appear in
    ascending order, so each permutation is an interleaving of the equal-value
    runs.  Runs are index-contiguous (v is weakly decreasing), which makes the
    label-sequence order coincide with the permutation order.
    """
    runs = _equal_runs(v)
    counts = [len(r) for r in runs]
    for labels in _multiset_sequences(counts):
        taken = [0] * len(runs)
        images = []
        for lab in labels:
            images.append(runs[lab][taken[lab]])
            taken[lab] += 1
        yield tuple(images)


def tie_respecting_perms_filtered(v: IntVector, n: int) -> list[Permutation]:
    """Reference oracle: filter all d! permutations through is_admissible.

    O(d!) per anchor; retained to cross-check the constructive generator.
    """
    d = len(v)
    return [p for p in itertools.permutations(range(1, d + 1)) if is_admissible(v, p, n)]


def enumerate_cube_triangulation(d: int) -> Iterator[AdmissiblePair]:
    """The d! pairs (0, pi) partitioning the unit cube."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    zero = (0,) * d
    for perm in itertools.permutations(range(1, d + 1)):
        yield AdmissiblePair(zero, perm)


def enumerate_simplex_triangulation(d: int, n: int) -> Iterator[AdmissiblePair]:
    """The n^d admissible pairs partitioning S^n, in canonical order."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if n < 1:
        raise ValueError(f"scale must be at least 1, got {n}")
    for v in weakly_decreasing_vectors(d, n - 1):
        for perm in tie_respecting_perms(v):
            yield AdmissiblePair(v, perm)


def enumerate_base_slab(d: int, m: int) -> Iterator[AdmissiblePair]:
    """The m^d - (m-1)^d admissible pairs of S^m with v_d = 0, partitioning the
    slab ``0 <= x_d <= 1`` of S^m."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if m < 1:
        raise ValueError(f"scale must be at least 1, got {m}")
    for prefix in weakly_decreasing_vectors(d - 1, m - 1):
        v = (*prefix, 0)
        for perm in tie_respecting_perms(v):
            yield AdmissiblePair(v, perm)
