import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import islice, permutations, product

import pytest

from simplexcover import cover as cover_module
from simplexcover.cover import (
    KIND_BASE_A,
    KIND_BASE_B,
    KIND_TOP,
    KINDS,
    CoverElement,
    CoverSpec,
    ExplicitCover,
    anchor_numerators,
    build_cover,
    cover_count,
    cover_groups,
    delta,
    element_kind,
    iter_cover,
)
from simplexcover.samplers import in_domain, random_samples
from simplexcover.simplex import contains_oracle, vertices
from simplexcover.triangulation import enumerate_base_slab, enumerate_simplex_triangulation
from simplexcover.verifier import _check_key, witness

F = Fraction


def test_delta_values():
    assert delta(1) == F(1, 3)
    assert delta(2) == F(1, 4)
    assert delta(6) == F(1, 8)


@pytest.mark.parametrize(
    "d,n,expected",
    [
        (2, 1, 3),
        (2, 2, 6),
        (2, 3, 11),
        (3, 1, 7),
        (3, 2, 20),
        (4, 2, 66),
        (5, 3, 813),
    ],
)
def test_cover_count_formula(d, n, expected):
    assert cover_count(d, n) == expected == (n + 1) ** d + (n - 1) ** d - n**d


def test_build_cover_d2_n1_exact():
    cover = build_cover(2, 1)
    assert cover.delta == F(1, 3)
    got = [(el.kind, el.v, el.perm, el.anchor) for el in cover.elements]
    assert got == [
        (KIND_BASE_A, (0, 0), (1, 2), (F(0), F(0))),
        (KIND_BASE_A, (1, 0), (1, 2), (F(2, 3), F(0))),
        (KIND_BASE_B, (1, 0), (2, 1), (F(1), F(1, 3))),
    ]


def test_build_cover_counts_by_kind():
    for d, n in [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2)]:
        cover = build_cover(d, n)
        counts = Counter(el.kind for el in cover.elements)
        assert len(cover.elements) == cover_count(d, n)
        assert counts.get(KIND_TOP, 0) == (n - 1) ** d
        slab = (n + 1) ** d - n**d
        assert counts.get(KIND_BASE_A, 0) + counts.get(KIND_BASE_B, 0) == slab


def test_top_elements_mirror_inner_triangulation():
    d, n = 3, 3
    cover = build_cover(d, n)
    dl = delta(n)
    tops = [el for el in cover.elements if el.kind == KIND_TOP]
    inner = list(enumerate_simplex_triangulation(d, n - 1))
    assert len(tops) == len(inner)
    for el, (v, perm) in zip(tops, inner):
        assert el.v == v
        assert el.perm == perm
        expected = tuple(F(c) + 1 + dl for c in v)
        assert el.anchor == expected


def test_base_elements_mirror_slab():
    d, n = 2, 3
    cover = build_cover(d, n)
    dl = delta(n)
    bases = [el for el in cover.elements if el.kind != KIND_TOP]
    slab = list(enumerate_base_slab(d, n + 1))
    assert len(bases) == len(slab)
    for el, (v, perm) in zip(bases, slab):
        assert (el.v, el.perm) == (v, perm)
        squeezed = tuple((1 - dl) * c for c in v)
        if perm[-1] == d:
            assert el.kind == KIND_BASE_A
            assert el.anchor == squeezed
        else:
            assert el.kind == KIND_BASE_B
            assert el.anchor == tuple(c + dl for c in squeezed)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 3), (4, 2)])
def test_anchors_are_numerators_over_n_plus_2(d, n):
    # Every anchor lies on Z/(n+2); its numerators are what witness matches.
    for el in build_cover(d, n).elements:
        nums = anchor_numerators(el.kind, el.v, n)
        assert el.anchor == tuple(F(a, n + 2) for a in nums)
        assert all((n + 2) % c.denominator == 0 for c in el.anchor)


def test_build_cover_shares_one_fraction_per_numerator():
    n = 3
    elements = build_cover(4, n).elements
    numerators = {num for el in elements for num in anchor_numerators(el.kind, el.v, n)}
    assert len({id(c) for el in elements for c in el.anchor}) == len(numerators)


def test_build_cover_shares_one_anchor_per_kind_and_lattice_anchor():
    elements = build_cover(4, 3).elements
    first = {}
    for el in elements:
        assert first.setdefault((el.kind, el.v), el.anchor) is el.anchor
    assert len({id(el.anchor) for el in elements}) == len(first)


@pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 7) for n in range(1, 5)])
def test_cover_groups_flatten_to_the_per_cell_rows(d, n):
    # one group per lattice anchor, top then base; flattened, the rows of
    # the per-cell definition, and the elements iter_cover makes from them
    cells = [(True, v, p) for v, p in enumerate_simplex_triangulation(d, n - 1)] if n > 1 else []
    cells += [(False, v, p) for v, p in enumerate_base_slab(d, n + 1)]
    rows = [
        (kind, v, perm, anchor_numerators(kind, v, n))
        for top, v, perm in cells
        for kind in [element_kind(top, perm)]
    ]
    groups = list(cover_groups(d, n))
    assert len({(top, v) for top, v, _ in groups}) == len(groups)
    flat = [(top, v, perm) for top, v, perms in groups for perm in perms]
    assert flat == cells
    built = [
        (el.kind, el.v, el.perm, tuple(c * (n + 2) for c in el.anchor))
        for el in iter_cover(d, n)
    ]
    assert built == rows


def test_base_a_iff_last_leg_is_dth_direction():
    for d, n in [(2, 2), (3, 1), (3, 2), (4, 1)]:
        for el in build_cover(d, n).elements:
            if el.kind == KIND_TOP:
                continue
            if el.kind == KIND_BASE_A:
                assert el.perm[-1] == d
            else:
                assert el.perm[-1] != d


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_vertex_geometry_bounds(d, n):
    # Base elements may overhang the target (never past the n+3*delta box),
    # while the top piece is tiled exactly, so top elements never overhang.
    cover = build_cover(d, n)
    dl = cover.delta
    bound = F(n) + 3 * dl
    for el in cover.elements:
        for vtx in vertices(el.simplex):
            assert all(0 <= c <= bound for c in vtx), (el.key, vtx)
            if el.kind == KIND_TOP:
                assert in_domain(vtx, n, dl), (el.key, vtx)


def test_element_index_lookup():
    cover = build_cover(3, 2)
    for el in cover.elements:
        assert cover.element_index[el.key] is el
    assert len(cover.element_index) == len(cover.elements)


def test_interior_of_each_element_is_covered_only_within_target():
    d, n = 2, 2
    cover = build_cover(d, n)
    for el in cover.elements:
        verts = vertices(el.simplex)
        centroid = tuple(
            sum(v[k] for v in verts) / len(verts) for k in range(d)
        )
        assert in_domain(centroid, n, cover.delta)
        assert contains_oracle(el.simplex, centroid)


@pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 5) for n in range(1, 5)] + [(5, 2)])
def test_canonical_membership_is_the_explicit_covers(monkeypatch, d, n):
    # Every key of a box around the cover (each kind, every v in {0..n+1}^d,
    # not only weakly decreasing ones, every permutation) gets the same
    # verdict and an equal element from the construction's rule as from the
    # explicit tuple; the rule enumerates nothing.
    explicit = ExplicitCover(d, n, iter_cover(d, n))
    canonical = build_cover(d, n)

    def refuse(*args):
        raise AssertionError("the canonical cover was enumerated")

    monkeypatch.setattr(cover_module, "cover_groups", refuse)
    perms = list(permutations(range(1, d + 1)))
    verdicts = Counter()
    for kind, v, perm in product(KINDS, product(range(n + 2), repeat=d), perms):
        key = (kind, v, perm)
        verdict = _check_key(canonical, key)
        assert verdict == _check_key(explicit, key), key
        verdicts[verdict[1] if verdict[0] is None else "member"] += 1
    assert verdicts["member"] == cover_count(d, n)
    assert verdicts["missing"] > 0 and verdicts["v1_bound"] > 0


def test_elements_read_after_routing_keep_the_routed_instances():
    # Route first, then read elements: the routed elements are the cover's
    # own instances, and anchors and Fractions are still shared as
    # build_cover(...).elements shares them.
    d, n = 4, 3
    cover = build_cover(d, n)
    samples = list(random_samples(d, n, cover.delta, count=300, seed=31))
    routed = [witness(x, d, n, cover).element for x in samples[:200]]
    assert len({(el.kind, el.v) for el in routed}) < len({el.key for el in routed})
    elements = cover.elements
    assert elements == tuple(iter_cover(d, n))
    for el in routed:
        assert cover.element_index[el.key] is el
    for x in samples[200:]:
        el = witness(x, d, n, cover).element
        assert cover.element_index[el.key] is el
    numerators = {num for el in elements for num in anchor_numerators(el.kind, el.v, n)}
    assert len({id(c) for el in elements for c in el.anchor}) == len(numerators)
    first = {}
    for el in elements:
        assert first.setdefault((el.kind, el.v), el.anchor) is el.anchor


@pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 6) for n in range(1, 5)])
def test_rows_are_the_same_before_and_after_elements_are_read(d, n):
    cover = build_cover(d, n)
    big, rows = cover.rows()
    fresh = list(rows)
    assert cover.elements
    read_big, read = cover.rows()
    assert big == read_big == n + 2
    assert list(read) == fresh
    for row, el in zip(fresh, iter_cover(d, n), strict=True):
        assert row == (el.kind, el.v, el.perm, tuple(c * (n + 2) for c in el.anchor))


@pytest.mark.parametrize("d,n", [(2, 1), (2, 5), (3, 2)])
def test_rows_of_an_explicit_cover_are_its_anchors_over_one_denominator(d, n):
    elements = build_cover(d, n).elements
    first = elements[0]
    anchor = (first.anchor[0] + F(1, 7), first.anchor[1] - F(1, 3), *first.anchor[2:])
    explicit = ExplicitCover(d, n, (replace(first, anchor=anchor), *elements[1:]))
    big, rows = explicit.rows()
    assert big == math.lcm(n + 2, 21)
    rows = list(rows)
    assert all(type(num) is int for row in rows for num in row[3])
    assert rows == [
        (el.kind, el.v, el.perm, tuple(c * big for c in el.anchor)) for el in explicit.elements
    ]


def count_made(monkeypatch):
    """The list every CoverElement made from here on is appended to."""
    made = []
    monkeypatch.setattr(CoverElement, "__post_init__", lambda el: made.append(el))
    return made


def test_rows_of_a_huge_canonical_cover_stream_without_making_elements(monkeypatch):
    made = count_made(monkeypatch)
    big, rows = build_cover(8, 40).rows()
    first = list(islice(rows, 5))
    assert big == 42 and len(first) == 5
    assert made == []
    for row, el in zip(first, islice(iter_cover(8, 40), 5)):
        assert row == (el.kind, el.v, el.perm, tuple(c * big for c in el.anchor))


def test_canonical_repr_hash_and_equality_make_no_element(monkeypatch):
    # (6, 12) has 3.6M elements and (8, 40) about 8 * 10^12: enumerating them
    # would not finish, so the small cover goes first to fail fast
    made = count_made(monkeypatch)
    for d, n in [(2, 1), (6, 12), (8, 40)]:
        cover = build_cover(d, n)
        assert hash(cover) == hash(build_cover(d, n))
        assert cover == build_cover(d, n)
        assert cover != build_cover(d, n + 1) and cover != build_cover(d + 1, n)
        assert repr(cover) == f"CoverSpec(d={d}, n={n})"
        assert made == []
    cover = build_cover(2, 3)
    before = (repr(cover), hash(cover))
    assert cover.elements and made
    assert (repr(cover), hash(cover)) == before
    assert cover == build_cover(2, 3) and {cover: 1}[build_cover(2, 3)] == 1


def test_explicit_covers_compare_by_their_elements(monkeypatch):
    canonical = build_cover(3, 2)
    explicit = ExplicitCover(3, 2, iter_cover(3, 2))
    shorter = replace(explicit, elements=explicit.elements[1:])
    made = count_made(monkeypatch)
    assert shorter != explicit and explicit != shorter
    assert explicit == ExplicitCover(3, 2, explicit.elements)
    assert hash(explicit) == hash(ExplicitCover(3, 2, explicit.elements))
    assert made == []  # two explicit covers: no canonical element is read
    # an explicit cover is never the canonical one, even with its elements
    assert explicit != canonical and canonical != explicit
    assert repr(explicit).startswith("ExplicitCover(d=3, n=2, elements=(CoverElement(kind='top'")


def test_an_explicit_cover_takes_any_iterable_of_elements():
    # a generator is read once, before the elements are checked, so the
    # cover holds them all instead of an exhausted generator
    elements = tuple(iter_cover(2, 1))
    held = ExplicitCover(2, 1, elements)
    x = (F(1, 2), F(1, 3))
    for given in (iter_cover(2, 1), list(elements)):
        cover = ExplicitCover(2, 1, given)
        assert cover.elements == elements and type(cover.elements) is tuple
        assert cover == held and hash(cover) == hash(held)
        assert witness(x, 2, 1, cover) == witness(x, 2, 1, held)


@pytest.mark.parametrize("change", [{"n": 3}, {"d": 3}, {"d": 3, "n": 3}])
def test_replace_gives_the_canonical_cover_of_another_size(monkeypatch, change):
    # a canonical cover is its (d, n): replace() reads no element of the
    # source, even one of about 8 * 10^12 elements at d = 8, n = 40
    made = count_made(monkeypatch)
    d, n = change.get("d", 2), change.get("n", 2)
    assert replace(build_cover(2, 2), **change) == build_cover(d, n)
    assert replace(build_cover(8, 40), n=41) == build_cover(8, 41)
    assert made == []


def test_replace_with_elements_keeps_an_explicit_cover():
    elements = build_cover(2, 2).elements
    same = ExplicitCover(2, 2, elements)
    assert same.elements is elements
    assert replace(same) == same
    shorter = replace(same, elements=elements[1:])
    assert shorter.elements == elements[1:] and shorter != same
    assert replace(shorter, n=3).elements == shorter.elements
    with pytest.raises(TypeError):
        replace(build_cover(2, 2), elements=elements)  # a canonical cover takes none


def test_an_explicit_cover_of_a_plain_tuple_keeps_any_n():
    elements = tuple(build_cover(2, 2).elements)
    explicit = ExplicitCover(2, 3, elements)
    assert explicit.elements == elements and explicit.n == 3
    assert explicit != build_cover(2, 3)
    assert explicit != ExplicitCover(2, 2, elements)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 2), (4, 2)])
def test_iter_cover_matches_build_cover(d, n):
    assert tuple(iter_cover(d, n)) == build_cover(d, n).elements


def test_invalid_args_rejected():
    with pytest.raises(ValueError):
        iter_cover(1, 2)  # checked on the call, before the first next()
    with pytest.raises(ValueError):
        iter_cover(2, 0)
    with pytest.raises(ValueError):
        build_cover(1, 2)
    with pytest.raises(ValueError):
        build_cover(2, 0)
    with pytest.raises(ValueError):
        cover_count(2, 0)
    with pytest.raises(ValueError):
        delta(0)


def test_cover_groups_check_dn_on_call():
    with pytest.raises(ValueError, match="d must be at least 2, got 1"):
        cover_groups(1, 2)
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        cover_groups(2, 0)


def test_cover_element_requires_known_kind():
    with pytest.raises(ValueError):
        CoverElement(kind="diag", v=(0, 0), perm=(1, 2), anchor=(F(0), F(0)))


def test_covers_random_sample_of_target():
    d, n = 2, 2
    cover = build_cover(d, n)
    scale = F(n) + cover.delta
    rng = random.Random(424)
    for _ in range(150):
        draws = sorted((rng.randint(0, 10**4) for _ in range(d)), reverse=True)
        x = tuple(scale * a / 10**4 for a in draws)
        assert any(contains_oracle(el.simplex, x) for el in cover.elements), x
