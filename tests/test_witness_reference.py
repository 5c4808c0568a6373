"""The integer ``witness`` against ``oracles.fraction_witness``, the same point
location decided on Fractions: route, element (key, anchor and identity), the
residual ``w`` and the fallback reason must all agree, and so must
``UncoveredPointError`` on incomplete covers."""

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fraction_witness

from simplexcover.cover import build_cover, delta
from simplexcover.verifier import boundary_suite, lattice_samples, random_samples
from simplexcover.witness import ROUTE_FALLBACK, UncoveredPointError, in_domain, witness

GRID = [(2, 1), (2, 2), (2, 5), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]
DROP_GRID = [(2, 1), (2, 2), (3, 1)]


@lru_cache(maxsize=None)
def cover_of(d, n):
    return build_cover(d, n)


def outcome(locate, x, d, n, cover):
    """``(route, element, w, fallback_reason)``, or None for an uncovered point."""
    try:
        res = locate(x, d, n, cover)
    except UncoveredPointError:
        return None
    if isinstance(res, tuple):
        return res
    return res.route, res.element, res.w, res.fallback_reason


def assert_agrees(x, d, n, cover):
    got = outcome(witness, x, d, n, cover)
    ref = outcome(fraction_witness, x, d, n, cover)
    if ref is None:
        assert got is None, x
        return None
    assert got is not None, x
    (route, el, w, reason), (ref_route, ref_el, ref_w, ref_reason) = got, ref
    assert (route, el.key, el.anchor, w, reason) == (
        ref_route,
        ref_el.key,
        ref_el.anchor,
        ref_w,
        ref_reason,
    ), x
    assert el is ref_el, x
    return route


@pytest.mark.parametrize("d,n", GRID)
def test_witness_matches_fraction_reference(d, n):
    cover = cover_of(d, n)
    dl = delta(n)
    for eps in (dl, dl / 2):
        points = [
            *lattice_samples(d, n, eps, 2),
            *random_samples(d, n, eps, 200, seed=7 * d + n),
            *boundary_suite(d, n, eps),
        ]
        for x in points:
            assert assert_agrees(x, d, n, cover) != ROUTE_FALLBACK


@pytest.mark.parametrize("d,n", DROP_GRID)
def test_witness_matches_fraction_reference_on_every_drop(d, n):
    cover = cover_of(d, n)
    points = list(lattice_samples(d, n, delta(n), 2))
    fallbacks = uncovered = 0
    for drop in cover.elements:
        broken = replace(cover, elements=tuple(el for el in cover.elements if el is not drop))
        for x in points:
            route = assert_agrees(x, d, n, broken)
            fallbacks += route == ROUTE_FALLBACK
            uncovered += route is None
    # each drop leaves some lattice points to the scan and some uncovered
    assert fallbacks > 0 and uncovered > 0


def domain_bound(n):
    """n + delta = (n+1)^2/(n+2): the largest coordinate of the target."""
    return Fraction((n + 1) ** 2, n + 2)


@st.composite
def coprime_points(draw):
    """In-domain points whose denominators are all coprime to n+2."""
    d, n = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    coords = []
    for _ in range(d):
        q = draw(st.integers(1, 10**4).filter(lambda q: gcd(q, n + 2) == 1))
        coords.append(Fraction(draw(st.integers(0, q * (n + 1) ** 2 // (n + 2))), q))
    return d, n, tuple(sorted(coords, reverse=True))


@st.composite
def huge_denominator_points(draw):
    """In-domain points with denominators of at least 10^30."""
    d, n = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    coords = []
    for _ in range(d):
        q = draw(st.integers(10**30, 10**40))
        coords.append(Fraction(draw(st.integers(0, q * (n + 1) ** 2 // (n + 2))), q))
    return d, n, tuple(sorted(coords, reverse=True))


@st.composite
def snapped_points(draw):
    """In-domain points on the arrangement: coordinates in Z/(n+2) or offset
    from one shared value by Z/(n+2) (so their differences are in Z/(n+2)),
    optionally pushed onto the sliver x_d = delta, the seam x_d = 1+delta or
    the apex."""
    d, n = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    m, top, dl = n + 2, domain_bound(n), delta(n)
    shared = draw(st.fractions(0, 1, max_denominator=10**6))
    coords = []
    for _ in range(d):
        k = Fraction(draw(st.integers(0, (n + 1) ** 2)), m)
        coords.append(min(draw(st.sampled_from([k, shared + k])), top))
    x = sorted(coords, reverse=True)
    snap = draw(st.sampled_from(["none", "sliver", "seam", "apex"]))
    if snap == "sliver":
        x = [max(c, dl) for c in x[:-1]] + [dl]
    elif snap == "seam" and 1 + dl <= top:
        x = [max(c, 1 + dl) for c in x[:-1]] + [1 + dl]
    elif snap == "apex":
        x = [top] * d
    return d, n, tuple(x)


@pytest.mark.parametrize("points", [coprime_points, huge_denominator_points, snapped_points])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_witness_matches_reference_on_adversarial_denominators(points, data):
    d, n, x = data.draw(points())
    assert in_domain(x, n, delta(n))
    assert assert_agrees(x, d, n, cover_of(d, n)) != ROUTE_FALLBACK
