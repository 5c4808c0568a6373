from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from oracles import locate_two_pass
from simplexcover import cover as cover_module
from simplexcover import verifier
from simplexcover.arith import point_parse
from simplexcover.cover import (
    KIND_BASE_A,
    KIND_BASE_B,
    KIND_TOP,
    CoverElement,
    ExplicitCover,
    build_cover,
    delta,
    element_kind,
)
from simplexcover.samplers import boundary_rows, in_domain, lattice_rows, random_samples
from simplexcover.simplex import contains, contains_oracle
from simplexcover.verifier import ROUTE_FALLBACK, UncoveredPointError, tally, witness

F = Fraction


def pt(*coords):
    return tuple(F(c) for c in coords)


def located(x, d, n):
    """(kind, v, perm, anchor) of the element witness() picks for x."""
    res = witness(x, d, n, build_cover(d, n))
    assert res.route == res.element.kind
    el = res.element
    return el.kind, el.v, el.perm, el.anchor


def test_in_domain_examples():
    assert in_domain(pt(F(9, 4), F(1, 2)), 2, F(1, 4))
    assert not in_domain(pt(F(1, 2), F(3, 4)), 2, F(1, 4))
    assert not in_domain(pt(F(13, 4), 0), 2, F(1, 4))
    assert not in_domain(pt(F(1, 2), F(-1, 8)), 2, F(1, 4))
    assert in_domain(pt(0, 0), 1, F(0))
    # S^{3/2} as n + eps = 1 + 1/2: the apex, an interior point, an unsorted
    # point and one past the scale.
    assert in_domain(pt(F(3, 2), F(3, 2)), 1, F(1, 2))
    assert in_domain(pt(1, F(1, 2)), 1, F(1, 2))
    assert not in_domain(pt(F(1, 2), 1), 1, F(1, 2))
    assert not in_domain(pt(2, 1), 1, F(1, 2))


def test_witness_top_examples():
    assert located(pt(F(9, 4), F(9, 4)), 2, 2) == (KIND_TOP, (0, 0), (1, 2), pt(F(5, 4), F(5, 4)))
    assert located(pt(2, F(3, 2)), 2, 2) == (KIND_TOP, (0, 0), (1, 2), pt(F(5, 4), F(5, 4)))
    assert located(pt(F(9, 4), F(9, 4), F(9, 4)), 3, 2) == (
        KIND_TOP,
        (0, 0, 0),
        (1, 2, 3),
        pt(F(5, 4), F(5, 4), F(5, 4)),
    )


def test_witness_top_clamps_at_far_vertex():
    # The apex of the target: u_j = n-1 exactly, floor would leave residual 0.
    n = 3
    top = F(n) + F(1, n + 2)
    res = witness(pt(top, top), 2, n, build_cover(2, n))
    assert res.route == KIND_TOP
    assert res.element.v == (n - 2, n - 2)
    assert res.w == pt(1, 1)
    assert contains(res.element.simplex, pt(top, top))


def test_witness_base_a_examples():
    assert located(pt(F(1, 8), F(1, 8)), 2, 2) == (KIND_BASE_A, (0, 0), (1, 2), pt(0, 0))
    assert located(pt(0, 0), 2, 1) == (KIND_BASE_A, (0, 0), (1, 2), pt(0, 0))
    # Index d cannot come last among the type-(a) residuals: type (b) instead.
    assert located(pt(F(9, 8), F(9, 8)), 2, 2)[0] == KIND_BASE_B


def test_witness_base_a_decrement_keeps_positive_anchor_residual_large():
    # x_1/(1-delta) lands just above 2: the decrement path fires and the
    # residual of the still-positive anchor coordinate ends up above delta.
    n = 2
    x = pt(F(8, 5), F(1, 20))
    res = witness(x, 2, n, build_cover(2, n))
    assert res.route == KIND_BASE_A
    assert res.element.v == (1, 0)
    assert res.w == pt(F(17, 20), F(1, 20))
    assert res.w[0] > F(1, 4)


def test_witness_base_b_examples():
    assert located(pt(F(9, 8), F(9, 8)), 2, 2) == (KIND_BASE_B, (1, 0), (2, 1), pt(1, F(1, 4)))
    assert located(pt(F(4, 3), F(4, 3)), 2, 1) == (KIND_BASE_B, (1, 0), (2, 1), pt(1, F(1, 3)))
    # x_d ties the other residual, so index d still sorts last: type (a).
    assert located(pt(F(1, 2), F(1, 2)), 2, 2) == (KIND_BASE_A, (0, 0), (1, 2), pt(0, 0))


def test_witness_route_selection():
    cover = build_cover(2, 2)
    res = witness(pt(F(9, 4), F(9, 4)), 2, 2, cover)
    assert res.route == KIND_TOP
    res = witness(pt(F(1, 8), F(1, 8)), 2, 2, cover)
    assert res.route == KIND_BASE_A
    res = witness(pt(F(9, 8), F(9, 8)), 2, 2, cover)
    assert res.route == KIND_BASE_B
    assert res.w == pt(F(3, 8), F(9, 8))
    assert res.fallback_reason is None


def test_witness_seam_policy():
    # x_d = 1+delta goes top for n >= 2 and base for n = 1.
    cover2 = build_cover(2, 2)
    seam2 = pt(F(5, 4), F(5, 4))
    assert witness(seam2, 2, 2, cover2).route == KIND_TOP
    cover1 = build_cover(2, 1)
    seam1 = pt(F(4, 3), F(4, 3))
    res = witness(seam1, 2, 1, cover1)
    assert res.route == KIND_BASE_B
    assert res.element.anchor == pt(1, F(1, 3))


def test_witness_errors():
    cover = build_cover(2, 2)
    with pytest.raises(ValueError):
        witness(pt(5, 5), 2, 2, cover)
    with pytest.raises(ValueError):
        witness(pt(F(1, 2), F(1, 2), F(1, 2)), 3, 2, cover)
    with pytest.raises(ValueError):
        witness(pt(F(1, 2), F(1, 2)), 2, 3, cover)


def test_witness_returns_cover_instances():
    cover = build_cover(3, 2)
    for x in random_samples(3, 2, cover.delta, count=50, seed=9):
        res = witness(x, 3, 2, cover)
        assert res.element is cover.element_index[res.element.key]


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_witness_soundness_and_invariants(d, n):
    cover = build_cover(d, n)
    dl = cover.delta
    for x in random_samples(d, n, dl, count=500, seed=100 * d + n):
        res = witness(x, d, n, cover)
        assert res.route != ROUTE_FALLBACK
        assert res.route == res.element.kind
        assert contains(res.element.simplex, x)
        assert contains_oracle(res.element.simplex, x)
        if res.element.kind != KIND_TOP:
            assert res.element.v[0] <= n
        if x[-1] <= dl:
            assert res.route == KIND_BASE_A


def pruned(cover, drop_key):
    kept = tuple(el for el in cover.elements if el.key != drop_key)
    assert len(kept) == len(cover.elements) - 1
    return ExplicitCover(cover.d, cover.n, kept)


def test_witness_fallback_on_incomplete_cover():
    # Removing the element the constructive route picks forces the exhaustive
    # scan; the probe point also lies in a neighbouring element, so the scan
    # succeeds and flags the route.
    cover = build_cover(2, 1)
    x = pt(F(9, 10), F(1, 10))
    assert witness(x, 2, 1, cover).element.key == (KIND_BASE_A, (0, 0), (1, 2))
    broken = pruned(cover, (KIND_BASE_A, (0, 0), (1, 2)))
    res = witness(x, 2, 1, broken)
    assert res.route == ROUTE_FALLBACK
    assert res.fallback_reason == "missing"
    assert res.element.key == (KIND_BASE_A, (1, 0), (1, 2))
    assert contains(res.element.simplex, x)


def test_an_element_of_another_dimension_is_refused_before_routing():
    # with the point's own element dropped, the fallback scan used to reach the
    # 3-dimensional element and fail on its dimension, not on the uncovered point
    cover = build_cover(2, 2)
    x = pt(F(1, 2), F(1, 4))
    key = witness(x, 2, 2, cover).element.key
    kept = tuple(el for el in cover.elements if el.key != key)
    bad = CoverElement("base_a", (0, 0, 0), (1, 2, 3), (0, 0, 0))
    with pytest.raises(ValueError, match=f"element {len(kept)} is not of dimension d = 2"):
        ExplicitCover(2, 2, (*kept, bad))
    with pytest.raises(ValueError, match="element 0 is not of dimension d = 2"):
        ExplicitCover(2, 2, (replace(kept[0], v=(0, 0, 0)), *kept[1:]))
    with pytest.raises(UncoveredPointError, match="no cover element contains"):
        witness(x, 2, 2, ExplicitCover(2, 2, kept))


def test_witness_fallback_on_altered_anchor():
    # The element under the route keeps its key and still contains x, but its
    # anchor no longer matches the formula, so the scan takes over.
    cover = build_cover(2, 1)
    x = pt(F(9, 10), F(1, 10))
    key = (KIND_BASE_A, (0, 0), (1, 2))
    moved = replace(cover.element_index[key], anchor=pt(F(1, 10), F(0)))
    assert contains(moved.simplex, x)
    broken = ExplicitCover(2, 1, (moved if el.key == key else el for el in cover.elements))
    res = witness(x, 2, 1, broken)
    assert res.route == ROUTE_FALLBACK
    assert res.fallback_reason == "anchor"
    assert res.element is broken.elements[0] is broken.element_index[key]


@pytest.mark.parametrize(
    "cell,reason",
    [
        # a base anchor past v_1 <= n (here n = 1)
        ((False, (2, 0), (1, 2)), "v1_bound"),
        # a cover element, with the formula anchor, that does not contain x
        ((False, (1, 0), (2, 1)), "not_contained"),
    ],
)
def test_witness_fallback_names_the_failed_check(monkeypatch, cell, reason):
    # The routing pass is replaced by one that returns a wrong cell, so the
    # check that catches it is named and the scan still finds the element.
    cover = build_cover(2, 1)
    x = pt(F(1, 8), F(1, 8))
    expected = witness(x, 2, 1, cover).element
    monkeypatch.setattr(verifier, "_cell", lambda *args: cell)
    res = witness(x, 2, 1, cover)
    assert res.route == ROUTE_FALLBACK
    assert res.fallback_reason == reason
    assert res.element is expected


def test_witness_uncovered_error_on_incomplete_cover():
    cover = build_cover(2, 1)
    broken = pruned(cover, (KIND_BASE_A, (0, 0), (1, 2)))
    with pytest.raises(UncoveredPointError):
        witness(pt(F(1, 8), F(1, 8)), 2, 1, broken)


def counted_check_key(monkeypatch):
    """Wrap ``verifier._check_key``; the list it returns collects each key it checks."""
    calls = []
    check_key = verifier._check_key

    def counted(cover, key):
        calls.append(key)
        return check_key(cover, key)

    monkeypatch.setattr(verifier, "_check_key", counted)
    return calls


def test_each_key_is_checked_once_per_cover(monkeypatch):
    calls = counted_check_key(monkeypatch)
    cover = build_cover(3, 2)
    x = pt(F(9, 8), F(9, 8), F(1, 8))
    first, second = witness(x, 3, 2, cover), witness(x, 3, 2, cover)
    assert first == second
    assert first.route == KIND_BASE_A
    assert calls == [first.element.key]
    # a campaign whose rows share keys: one verdict per key, and a second
    # campaign on the same cover makes none
    report = tally(cover, [lattice_rows(3, 2, cover.delta, 2)])
    assert report.success
    assert len(set(calls)) == len(calls) < report.total
    made = len(calls)
    assert tally(cover, [lattice_rows(3, 2, cover.delta, 2)]).routes == report.routes
    assert len(calls) == made


def test_streams_of_different_denominators_share_the_verdicts(monkeypatch):
    # Each stream sets up its own containment checks, over its own L, from
    # the verdicts kept on the cover: one verdict per key across the streams.
    calls = counted_check_key(monkeypatch)
    cover = build_cover(3, 2)
    eps = cover.delta

    def streams():
        return [lattice_rows(3, 2, eps, 1), lattice_rows(3, 2, eps, 2), boundary_rows(3, 2, eps)]

    assert len({big for big, _ in streams()}) == 3
    report = tally(cover, streams())
    assert report.success
    assert len(set(calls)) == len(calls) < report.total
    made = len(calls)
    assert tally(cover, streams()).routes == report.routes
    assert len(calls) == made


def test_a_failed_verdict_is_kept(monkeypatch):
    # Both points route to the dropped element: its key is found missing once,
    # and both still fall back with that reason.
    key = (KIND_BASE_A, (0, 0), (1, 2))
    broken = pruned(build_cover(2, 1), key)
    calls = counted_check_key(monkeypatch)
    for x in (pt(F(9, 10), F(1, 10)), pt(F(4, 5), F(1, 10))):
        res = witness(x, 2, 1, broken)
        assert res.route == ROUTE_FALLBACK
        assert res.fallback_reason == "missing"
    assert calls == [key]


def test_a_replaced_cover_starts_without_verdicts(monkeypatch):
    cover = build_cover(2, 1)
    explicit = ExplicitCover(2, 1, cover.elements)
    x = pt(F(9, 10), F(1, 10))
    witness(x, 2, 1, cover)
    witness(x, 2, 1, explicit)
    calls = counted_check_key(monkeypatch)
    for made in (cover, explicit):
        assert witness(x, 2, 1, replace(made)) == witness(x, 2, 1, made)
    assert calls == [(KIND_BASE_A, (0, 0), (1, 2))] * 2


def counted_construction(monkeypatch):
    """Count the ``CoverElement``s made; the Counter it returns holds them as
    ``elements``.  Enumerating the cover (``cover_groups``) fails the test at
    once, so a cover too large to build cannot hang it."""
    counts = Counter()
    post_init = CoverElement.__post_init__

    def counted(el):
        counts["elements"] += 1
        post_init(el)

    def refuse(*args):
        raise AssertionError("the cover was enumerated")

    monkeypatch.setattr(CoverElement, "__post_init__", counted)
    monkeypatch.setattr(cover_module, "cover_groups", refuse)
    return counts


@pytest.mark.parametrize(
    "d,n,point", [(5, 10, "7/2,3,2,1,1/3"), (8, 40, "30,20,10,5,4,3,2,1/2")]
)
def test_witness_makes_one_element(monkeypatch, d, n, point):
    # (8, 40) has about 8 * 10^12 elements
    counts = counted_construction(monkeypatch)
    cover = build_cover(d, n)
    res = witness(point_parse(point, d), d, n, cover)
    assert res.route == res.element.kind
    assert counts == {"elements": 1}


def test_an_out_of_target_point_is_named_in_wire_form():
    # the message is what the CLI prints after "error: ", with no Fraction repr
    with pytest.raises(ValueError, match=r"^point 3,0 is outside the target simplex$"):
        witness(pt(3, 0), 2, 2, build_cover(2, 2))
    with pytest.raises(ValueError, match=r"^point 5/2,-1/8 is outside the target simplex$"):
        tally(build_cover(2, 2), [(8, [(20, -1)])])


@pytest.mark.parametrize("row", [(5, 3, 1), (1,), ()], ids=["long", "short", "empty"])
def test_tally_checks_each_row_length(row):
    # the fallback scan's "point has dimension 3, simplex has 2" is not this
    with pytest.raises(ValueError, match="point/cover dimension or scale mismatch"):
        tally(build_cover(2, 2), [(4, [row])])


def test_tally_refuses_a_long_row_without_building_the_cover(monkeypatch):
    # (8, 40) has about 8 * 10^12 elements: a row that reached the fallback
    # scan would enumerate them, and counted_construction fails that at once
    counts = counted_construction(monkeypatch)
    with pytest.raises(ValueError, match="point/cover dimension or scale mismatch"):
        tally(build_cover(8, 40), [(42, [(1,) * 9])])
    assert counts == {}


def test_tally_makes_one_element_per_routed_key(monkeypatch):
    d, n = 5, 2
    big, rows = boundary_rows(d, n, delta(n))
    keys = set()
    for X in rows:
        above, v, perm = locate_two_pass(X, n, big, big // (n + 2))
        keys.add((element_kind(above, perm), v, perm))
    assert len(keys) < len(rows)
    counts = counted_construction(monkeypatch)
    report = tally(build_cover(d, n), [(big, rows)])
    assert report.success and report.total == len(rows)
    assert counts == {"elements": len(keys)}
