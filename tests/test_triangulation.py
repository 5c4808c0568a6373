import math
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from oracles import (
    enumerate_cube_triangulation,
    tie_respecting_perms_filtered,
    weakly_decreasing_vectors_recursive,
)
from simplexcover.simplex import KuhnSimplex, contains
from simplexcover.triangulation import (
    base_slab_groups,
    check_dn,
    enumerate_base_slab,
    enumerate_simplex_triangulation,
    is_admissible,
    simplex_groups,
    tie_respecting_perms,
    weakly_decreasing_runs,
    weakly_decreasing_vectors,
)
from simplexcover.verifier import in_domain

F = Fraction


def test_weakly_decreasing_vectors_small():
    assert list(weakly_decreasing_vectors(2, 1)) == [(0, 0), (1, 0), (1, 1)]
    vecs = list(weakly_decreasing_vectors(3, 2))
    assert len(vecs) == 10  # C(3+2, 3)
    assert vecs == sorted(vecs)
    assert all(a >= b >= c >= 0 for a, b, c in vecs)
    assert all(v[0] <= 2 for v in vecs)


@pytest.mark.parametrize("d", range(7))
def test_weakly_decreasing_vectors_matches_recursion(d):
    for bound in range(-2, 6):
        assert list(weakly_decreasing_vectors(d, bound)) == list(
            weakly_decreasing_vectors_recursive(d, bound)
        )
    assert list(weakly_decreasing_vectors(0, 3)) == [()]


@pytest.mark.parametrize("d", range(6))
def test_weakly_decreasing_vectors_start_at_any_rank(d):
    # the start vector is unranked from the count C(bound+d, d), not reached
    for bound in range(-1, 6):
        whole = list(weakly_decreasing_vectors(d, bound))
        assert len(whole) == (math.comb(bound + d, d) if bound >= 0 else d == 0)
        for start in range(len(whole) + 3):
            assert list(weakly_decreasing_vectors(d, bound, start)) == whole[start:], (bound, start)


@pytest.mark.parametrize("d", range(1, 6))
def test_weakly_decreasing_runs_flatten_to_the_vectors(d):
    # a run is one prefix and a range of last entries; from any start rank
    # the runs, flattened, are the vectors
    for bound in range(-1, 6):
        whole = list(weakly_decreasing_vectors(d, bound))
        for start in range(len(whole) + 3):
            runs = list(weakly_decreasing_runs(d, bound, start))
            flat = [(*head, k) for head, low, high in runs for k in range(low, high)]
            assert flat == whole[start:], (bound, start)
            assert len({head for head, _, _ in runs}) == len(runs)
            for i, (head, low, high) in enumerate(runs):
                assert 0 <= low < high == (head[-1] if head else bound) + 1
                assert low == 0 or i == 0


def test_tie_respecting_perms_examples():
    # v = (1, 0): no ties, both orders allowed.
    assert set(tie_respecting_perms((1, 0))) == {(1, 2), (2, 1)}
    # v = (1, 1): tie between slots 1 and 2, so 1 must precede 2.
    assert list(tie_respecting_perms((1, 1))) == [(1, 2)]
    # v = (2, 1, 1): slots 2 and 3 tied.
    got = set(tie_respecting_perms((2, 1, 1)))
    assert got == {(1, 2, 3), (2, 1, 3), (2, 3, 1)}


TIE_CASES = [(0, 0), (1, 0), (2, 2, 1), (3, 1, 1, 0), (2, 2, 2, 1), (1, 1, 0, 0), (4, 3, 2, 1)]


def one_v_per_tie_pattern(d):
    """For each of the 2^(d-1) tie patterns, the smallest v with it."""
    for ties in product((False, True), repeat=d - 1):
        v = [0]
        for tied in reversed(ties):
            v.append(v[-1] + (not tied))
        yield tuple(reversed(v))


# the hand-picked cases first, then every weakly decreasing v with entries <= 3
# for 2 <= d <= 6, then one v per tie pattern at d = 7; the order is compared,
# not just the set
@pytest.mark.parametrize(
    "v",
    TIE_CASES
    + [v for d in range(2, 7) for v in weakly_decreasing_vectors(d, 3) if v not in TIE_CASES]
    + list(one_v_per_tie_pattern(7)),
)
def test_tie_respecting_perms_matches_filter(v):
    constructive = list(tie_respecting_perms(v))
    filtered = tie_respecting_perms_filtered(v, n=v[0] + 1)
    assert constructive == filtered
    assert len(set(constructive)) == len(constructive)


def test_is_admissible():
    assert is_admissible((1, 0), (2, 1), 2)
    assert is_admissible((1, 1), (1, 2), 2)
    assert not is_admissible((1, 1), (2, 1), 2)  # tie rule broken
    assert not is_admissible((0, 1), (1, 2), 2)  # not weakly decreasing
    assert not is_admissible((2, 0), (1, 2), 2)  # v_1 > n - 1
    assert not is_admissible((1, -1), (1, 2), 2)


def brute_pairs(d, n):
    found = []
    for v in weakly_decreasing_vectors(d, n - 1):
        for perm in permutations(range(1, d + 1)):
            if is_admissible(v, perm, n):
                found.append((v, perm))
    return found


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2)])
def test_simplex_triangulation_matches_bruteforce(d, n):
    fast = list(enumerate_simplex_triangulation(d, n))
    assert fast == brute_pairs(d, n)
    assert len(fast) == n**d


def test_simplex_triangulation_d2_n2_exact():
    got = list(enumerate_simplex_triangulation(2, 2))
    assert got == [
        ((0, 0), (1, 2)),
        ((1, 0), (1, 2)),
        ((1, 0), (2, 1)),
        ((1, 1), (1, 2)),
    ]


def test_base_slab_d2_m2_exact():
    got = list(enumerate_base_slab(2, 2))
    assert got == [
        ((0, 0), (1, 2)),
        ((1, 0), (1, 2)),
        ((1, 0), (2, 1)),
    ]


def test_small_trivial_enumerations():
    assert list(enumerate_simplex_triangulation(3, 1)) == [((0, 0, 0), (1, 2, 3))]
    assert len(list(enumerate_simplex_triangulation(3, 2))) == 8
    assert len(list(enumerate_base_slab(3, 2))) == 7
    assert len(list(enumerate_base_slab(2, 1))) == 1


@pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 6) for n in range(1, 5)])
def test_enumerators_pair_each_anchor_with_its_tie_respecting_perms(d, n):
    # the enumerators share one permutation tuple per tie pattern; the cells
    # and their order are those of calling tie_respecting_perms per anchor
    whole = list(weakly_decreasing_vectors(d, n - 1))
    slab = [(*prefix, 0) for prefix in weakly_decreasing_vectors(d - 1, n - 1)]
    for cells, anchors in (
        (enumerate_simplex_triangulation(d, n), whole),
        (enumerate_base_slab(d, n), slab),
    ):
        assert list(cells) == [(v, p) for v in anchors for p in tie_respecting_perms(v)]


@pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 3), (4, 2), (5, 3)])
def test_groups_hold_each_anchor_once_and_share_perms_per_tie_pattern(d, n):
    for groups in (simplex_groups(d, n), base_slab_groups(d, n)):
        groups = list(groups)
        anchors = [v for v, _ in groups]
        assert anchors == sorted(set(anchors))
        by_ties = {}
        for v, perms in groups:
            ties = tuple(a == b for a, b in zip(v, v[1:]))
            assert by_ties.setdefault(ties, perms) is perms


def test_group_streams_check_dn_on_call():
    with pytest.raises(ValueError, match="d must be at least 2, got 1"):
        simplex_groups(1, 2)
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        base_slab_groups(2, 0)


@pytest.mark.parametrize("d,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_base_slab_counts_and_filter(d, m):
    slab = list(enumerate_base_slab(d, m))
    assert len(slab) == m**d - (m - 1) ** d
    whole = list(enumerate_simplex_triangulation(d, m))
    assert slab == [(v, perm) for v, perm in whole if v[-1] == 0]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cube_triangulation_counts(d):
    cube = list(enumerate_cube_triangulation(d))
    assert len(cube) == len(list(permutations(range(d))))
    assert all(v == (0,) * d for v, _ in cube)
    assert len({perm for _, perm in cube}) == len(cube)


def sample_domain_points(d, bound, count, seed):
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        coords = sorted(
            (F(rng.randint(0, 64 * bound), 64) for _ in range(d)), reverse=True
        )
        pts.append(tuple(coords))
    return pts


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2)])
def test_triangulation_covers_its_simplex(d, n):
    cells = list(enumerate_simplex_triangulation(d, n))
    for x in sample_domain_points(d, n, 200, seed=77 * d + n):
        if not in_domain(x, n, F(0)):
            continue
        hits = 0
        for v, perm in cells:
            simplex = KuhnSimplex(anchor=tuple(F(c) for c in v), perm=perm)
            if contains(simplex, x):
                hits += 1
        assert hits >= 1


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: enumerate_simplex_triangulation(1, 2), "d must be at least 2, got 1"),
        (lambda: enumerate_simplex_triangulation(2, 0), "n must be at least 1, got 0"),
        (lambda: enumerate_base_slab(1, 2), "d must be at least 2, got 1"),
        (lambda: enumerate_base_slab(3, -1), "n must be at least 1, got -1"),
        (lambda: enumerate_cube_triangulation(1), "d must be at least 2, got 1"),
        (lambda: check_dn(2, 0), "n must be at least 1, got 0"),
    ],
)
def test_enumerators_check_dn_on_call(make, message):
    # raised by the call itself, before the first next()
    with pytest.raises(ValueError, match=message):
        make()
