"""The integer ``witness`` against ``oracles.fraction_witness``, the same point
location decided on Fractions: route, element (key, anchor and identity), the
residual ``w`` and the fallback reason must all agree, and so must
``UncoveredPointError`` on incomplete covers.  ``tally`` over the streams of
``verify --mode all`` must agree with a report made point by point from
``fraction_witness``, and the routing rule on one row (``locate._placer``)
with ``oracles.locate_two_pass``.  The route step's pieces, row by row, and
``tally`` under any block size and worker count must agree with each row
located by ``locate_two_pass`` and checked by exact containment, on the
row's integers (``contains_row``, itself checked against ``contains``)."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import ceil, comb, floor, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fraction_witness, locate_two_pass, make_element
from test_verifier import (
    _by_jobs,
    _campaign,
    _with_every_other_element,
    _with_moved_anchor,
    _without_origin_base_a,
)

from simplexcover import locate, verifier
from simplexcover.simplex import KuhnSimplex, contains
from simplexcover.cover import KIND_BASE_A, KINDS, KIND_TOP, ExplicitCover, build_cover, delta, element_kind
from simplexcover.samplers import (
    boundary_rows,
    boundary_suite,
    in_domain,
    lattice_rows,
    lattice_samples,
    random_rows,
    random_samples,
)
from simplexcover.locate import ROUTE_FALLBACK, ROUTES, UncoveredPointError, witness
from simplexcover.verifier import tally

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
        broken = ExplicitCover(d, n, (el for el in cover.elements if el is not drop))
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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_pass_locate_matches_two_passes_on_snapped_points(data):
    d, n, x = data.draw(snapped_points())
    assert_locate_agrees(*verifier._scale((x,), n), n)


def locate_one_pass(X, n, big, unit):
    """The routing rule on one row, the patch of a segment of one row:
    ``(above_seam, v, perm)`` for an in-domain x given as numerators X over
    ``big``, with ``unit`` = D = big/(n+2)."""
    ((*_, placed),) = locate._placer(len(X), n, big, unit)(X[:-1], X[-2], X[-1], X[-1] + 1)
    return locate._cell(placed)


def assert_locate_agrees(big, rows, n):
    """``locate_one_pass`` equals ``locate_two_pass`` on every row; returns
    the kinds of the cells it found."""
    unit = big // (n + 2)
    kinds = set()
    for X in rows:
        cell = locate_one_pass(X, n, big, unit)
        assert cell == locate_two_pass(X, n, big, unit), X
        kinds.add(element_kind(cell[0], cell[2]))
    return kinds


LOCATE_ROWS = 20_000  # larger lattices, up to 2.6 * 10^8 rows at (6, 5), are skipped


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("n", range(1, 6))
def test_one_pass_locate_matches_two_passes(d, n):
    # Lattices hold ties, the seam and the sliver plane; the type-(b) switch
    # shows as base_b cells.  Sizes whose lattices are all skipped still get
    # the random and boundary rows.
    kinds = set()
    for eps in (delta(n), delta(n) / 3):
        for q in (1, 2):
            big, rows = lattice_rows(d, n, eps, q)
            if comb(floor((n + eps) * big) + d, d) <= LOCATE_ROWS:
                kinds |= assert_locate_agrees(big, rows, n)
        kinds |= assert_locate_agrees(*random_rows(d, n, eps, 200, seed=10 * d + n), n)
        kinds |= assert_locate_agrees(*boundary_rows(d, n, eps), n)
    assert kinds == (set(KINDS) if n >= 2 else set(KINDS) - {KIND_TOP})


def reference_report(cover, points):
    """``(routes, fallback_reasons, sliver_violations, failures)`` of the
    points, each located by ``fraction_witness``."""
    d, n, dl = cover.d, cover.n, cover.delta
    routes, reasons = Counter({route: 0 for route in ROUTES}), Counter()
    slivers, failures = [], []
    for x in points:
        try:
            route, _, _, reason = fraction_witness(x, d, n, cover)
        except UncoveredPointError:
            failures.append(x)
            continue
        routes[route] += 1
        if reason is not None:
            reasons[reason] += 1
        if route != KIND_BASE_A and x[-1] <= dl:
            slivers.append(x)
    return dict(routes), dict(sorted(reasons.items())), tuple(slivers), tuple(failures)


@pytest.mark.parametrize(
    "d,n,q,dropped", [(d, n, 2, False) for d, n in GRID] + [(5, 2, 1, False), (2, 2, 4, True)]
)
def test_tally_matches_fraction_reference(d, n, q, dropped):
    # dropped: (2, 2) without its base_a element at the origin, so failed
    # verdicts, fallbacks, sliver violations and failures all occur
    cover = _without_origin_base_a() if dropped else build_cover(d, n)
    rows, points = _campaign(d, n, cover.delta, q, 200, 7 * d + n)
    report = tally(cover, rows)  # before the reference reads cover.elements
    points = list(points)
    routes, reasons, slivers, failures = reference_report(cover, points)
    assert report.total == len(points)
    assert report.covered == len(points) - len(failures)
    assert report.routes == routes
    assert report.fallback_reasons == reasons
    assert report.sliver_violations == slivers
    assert report.failures == failures
    if dropped:
        assert routes[ROUTE_FALLBACK] > 0 and slivers and failures
    else:
        assert report.success


# --- runs and pieces against the per-row reference ---------------------------


def reference_rows(cover, big, rows):
    """Per row over ``big``: ``(element, route, fallback_reason)``, the cell
    from ``locate_two_pass``, its element checked by exact containment, and
    a scan where a check fails; element and route are None where no element
    contains the row.  Each cell's verdict is made once per call and a row is
    checked on its integers: only a scanned row is made into Fractions."""
    n = cover.n
    unit = big // (n + 2)
    verdicts = {}
    out = []
    for X in rows:
        cell = locate_two_pass(X, n, big, unit)
        verdict = verdicts.get(cell)
        if verdict is None:
            verdict = verdicts[cell] = cell_verdict(cover, big, *cell)
        known, reason, scaled = verdict
        if reason is None:
            if contains_row(*scaled, X):
                out.append((known, known.kind, None))
                continue
            reason = "not_contained"
        x = tuple(Fraction(c, big) for c in X)
        scanned = next((el for el in cover.elements if contains(el.simplex, x)), None)
        out.append((scanned, scanned and ROUTE_FALLBACK, reason))
    return out


def cell_verdict(cover, big, above, v, perm):
    """``(element, reason, scaled)`` for the cell: the cover's element on it,
    the reason a row located there is scanned whatever its coordinates (None
    when only containment decides), and the element's ``scaled_simplex``."""
    if not (above or v[0] <= cover.n):
        return None, "v1_bound", None
    formula = make_element(above, v, perm, cover.n)
    known = cover.element_index.get(formula.key)
    if known is None:
        return None, "missing", None
    if known != formula:
        return known, "anchor", None
    return known, None, scaled_simplex(known.simplex, big)


def scaled_simplex(simplex, big):
    """``(L, m, A, perm)``: the simplex's anchor as numerators ``A`` over
    ``L = m * big``, the least multiple of ``big`` that holds them."""
    L = lcm(big, *(c.denominator for c in simplex.anchor))
    A = tuple(c.numerator * (L // c.denominator) for c in simplex.anchor)
    return L, L // big, A, simplex.perm


def contains_row(L, m, A, perm, X):
    """``contains`` for the point ``X / big`` on integers, with the simplex
    given as ``scaled_simplex(simplex, big)``: the chain
    ``L >= m X_p1 - A_p1 >= ... >= m X_pd - A_pd >= 0`` along perm.  Written
    out here, not taken from ``simplex._descends``, so that the reference
    shares no code with the route step it checks."""
    prev = L
    for p in perm:
        s = m * X[p - 1] - A[p - 1]
        if s > prev:
            return False
        prev = s
    return prev >= 0


@pytest.mark.parametrize("d,n", [(2, 2), (3, 1), (3, 2)])
@pytest.mark.parametrize("shift", [Fraction(0), Fraction(1, 3), Fraction(-5, 7)])
def test_integer_containment_is_contains(d, n, shift):
    # Over a multiple of n+2 and over denominators coprime to the anchor's,
    # every row in and around each element's box, the element's anchor moved
    # by shift in its first coordinate: boundary rows and ties included.
    for big in (n + 2, 2 * (n + 2), 5):
        for el in cover_of(d, n).elements:
            simplex = KuhnSimplex((el.anchor[0] + shift, *el.anchor[1:]), el.perm)
            scaled = scaled_simplex(simplex, big)
            box = [range(floor(c * big) - 1, ceil((c + 1) * big) + 2) for c in simplex.anchor]
            for X in product(*box):
                x = tuple(Fraction(c, big) for c in X)
                assert contains_row(*scaled, X) == contains(simplex, x), (el.key, shift, big, X)


def reference_tally(cover, streams, routed=None):
    """``(routes, fallback_reasons, sliver_violations, failures)`` of the
    streams' rows from ``reference_rows``, in row order; ``routed`` gives
    each stream's ``reference_rows`` where they are made already."""
    routes, reasons, slivers, failures = Counter(dict.fromkeys(ROUTES, 0)), Counter(), [], []
    if routed is None:
        routed = [reference_rows(cover, big, rows) for big, rows in streams]
    sliver = cover.delta
    for (big, rows), outcomes in zip(streams, routed):
        for X, (element, route, reason) in zip(rows, outcomes):
            if element is None:
                failures.append(tuple(Fraction(c, big) for c in X))
                continue
            routes[route] += 1
            if reason is not None:
                reasons[reason] += 1
            # x_d <= delta, on the integers
            if route != KIND_BASE_A and X[-1] * sliver.denominator <= sliver.numerator * big:
                slivers.append(tuple(Fraction(c, big) for c in X))
    return dict(routes), dict(sorted(reasons.items())), tuple(slivers), tuple(failures)


def stepping_rows(big, rows):
    """A lattice stream's rows as lists, each prefix's last coordinates in the
    order up, down (repeating the top one), every other one, and the first
    again: x_d steps by 1, repeats, skips and descends."""
    by_prefix = {}
    for X in rows:
        by_prefix.setdefault(X[:-1], []).append(X[-1])
    order = (ks + ks[::-1] + ks[::2] + ks[:1] for ks in by_prefix.values())
    return big, [[*P, k] for P, ks in zip(by_prefix, order) for k in ks]


def segments_of(rows):
    """A stream's rows as the walk reads them: a ``Rows``' own plane
    segments, or one segment per row."""
    if getattr(rows, "planes", None) is not None:
        return rows.planes(0, len(rows))
    return map(verifier._run, rows)


def routed_rows(route, segments):
    """The router's patches of each segment, one ``(element, route,
    fallback_reason)`` per row, in row order.  The patches must tile each
    segment in row order: on each row, the patches that cover it follow one
    another in x from the row's first x to its last, and their closed-form
    counts sum to the segment's rows."""
    out = []
    for P, y1, lo, hi in segments:
        Q, y0 = P[:-1], P[-1]
        ends = {y: (lo if y == y0 else 0, hi if y == y1 else y + 1) for y in range(y0, y1 + 1)}
        at = {y: first for y, (first, _) in ends.items()}  # the next x each row needs
        routed = {y: [] for y in ends}
        counted = 0
        for ya, yb, x0, x1, u0, u1, *outcome in route(P, y1, lo, hi):
            assert y0 <= ya <= yb <= y1, (P, y1, lo, hi)
            assert u0 - x0 in (0, yb - ya) and u1 - x1 in (0, yb - ya), (P, y1, lo, hi)
            counted += (yb - ya + 1) * (x1 - x0 + u1 - u0) // 2
            for y in range(ya, yb + 1):
                a = x0 if u0 == x0 else x0 + y - ya
                b = x1 if u1 == x1 else x1 + y - ya
                assert a == at[y] < b <= ends[y][1], (P, y1, lo, hi, y)
                at[y] = b
                routed[y] += [tuple(outcome)] * (b - a)
        assert all(at[y] == last for y, (_, last) in ends.items()), (P, y1, lo, hi)
        rows = [row for y in ends for row in routed[y]]
        assert counted == len(rows) == y1 * (y1 + 1) // 2 + hi - y0 * (y0 + 1) // 2 - lo
        out += rows
    return out


def assert_tally_is_the_reference(report, expected):
    routes, reasons, slivers, failures = expected
    assert report.total == sum(routes.values()) + len(failures)
    assert report.routes == routes
    assert report.fallback_reasons == reasons
    assert report.sliver_violations == slivers
    assert report.failures == failures


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (4, 1)])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("eps_of", ["delta", "delta/2", "zero"])
def test_runs_route_every_row_as_the_reference(d, n, q, eps_of):
    # The lattice reaches the route step as planes; the random and boundary
    # rows and the stepping list reach it one row per segment.
    cover = cover_of(d, n)
    eps = {"delta": delta(n), "delta/2": delta(n) / 2, "zero": Fraction(0)}[eps_of]
    lattice = lattice_rows(d, n, eps, q)
    streams = [
        lattice,
        random_rows(d, n, eps, 100, 10 * q + d),
        boundary_rows(d, n, eps),
        stepping_rows(*lattice),
    ]
    for big, rows in streams:
        got = routed_rows(verifier._router(cover, big), segments_of(rows))
        expected = reference_rows(cover, big, rows)
        assert got == expected
        assert all(a[0] is b[0] for a, b in zip(got, expected))
    assert_tally_is_the_reference(tally(cover, streams), reference_tally(cover, streams))


@pytest.mark.parametrize(
    "make", [_with_moved_anchor, _without_origin_base_a, _with_every_other_element]
)
@pytest.mark.parametrize("block_rows", [1, 7, 100])
def test_workers_route_broken_covers_as_the_reference(monkeypatch, make, block_rows):
    # fallbacks, failures and sliver violations, with planes cut at every
    # block boundary and lists, one row per segment, whose x_d repeats,
    # skips and descends
    cover = make()
    d, n = cover.d, cover.n
    streams = _campaign(d, n, cover.delta, 2, 100, 5)[0]
    streams.append(stepping_rows(*lattice_rows(d, n, cover.delta, 1)))
    for big, rows in streams:
        got = routed_rows(verifier._router(cover, big), segments_of(rows))
        assert got == reference_rows(cover, big, rows)
    expected = reference_tally(cover, streams)
    assert expected[0][ROUTE_FALLBACK] > 0 and expected[1]
    if make is _with_every_other_element:
        assert expected[2] and expected[3]
    for report in _by_jobs(monkeypatch, block_rows, lambda: tally(cover, streams)):
        assert_tally_is_the_reference(report, expected)


@pytest.mark.parametrize("d,n,q", [(2, 2, 2), (3, 2, 1), (4, 1, 1)])
def test_a_piece_checks_each_row_against_its_cell(monkeypatch, d, n, q):
    # Every piece is sent to one cell, each element's in turn: a row is
    # routed to the element exactly when the element contains it, so both of
    # index d's solved links are met at every place of d in perm; any other
    # row is scanned, with not_contained as its reason.
    cover = cover_of(d, n)
    big, rows = lattice_rows(d, n, delta(n), q)
    for el in cover.elements:
        monkeypatch.setattr(locate, "_cell", lambda placed, el=el: (el.kind == KIND_TOP, el.v, el.perm))
        got = routed_rows(verifier._router(cover, big), segments_of(rows))
        for X, routed in zip(rows, got):
            x = tuple(Fraction(c, big) for c in X)
            if contains(el.simplex, x):
                assert routed == (el, el.kind, None), (el.key, X)
            else:
                scanned = next(e for e in cover.elements if contains(e.simplex, x))
                assert routed == (scanned, ROUTE_FALLBACK, "not_contained"), (el.key, X)


# --- plane segments against the per-row reference ---------------------------

PLANE_GRID = [(2, 1), (2, 5), (3, 2), (3, 4), (4, 2), (5, 1), (5, 2)]


@pytest.mark.parametrize("d,n", PLANE_GRID)
def test_planes_route_every_row_as_the_reference(monkeypatch, d, n):
    # d = 2 is one plane with an empty prefix, and n = 1 has no seam.  Every
    # row of each lattice, routed plane by plane, gets the element, route
    # and reason of the row located alone; tally counts the patches in
    # closed form, whole or cut into blocks of 7 and 64 rows.
    cover = cover_of(d, n)
    blocks = verifier.BLOCK_ROWS
    for eps in (delta(n), delta(n) / 3, Fraction(0)):
        for q in (1, 2, 3):
            stream = lattice_rows(d, n, eps, q)
            big, rows = stream
            expected = reference_rows(cover, big, rows)
            got = routed_rows(verifier._router(cover, big), segments_of(rows))
            assert got == expected, (eps, q)
            assert all(a[0] is b[0] for a, b in zip(got, expected))
            monkeypatch.setattr(verifier, "BLOCK_ROWS", blocks)
            monkeypatch.setattr(verifier, "_jobs", lambda: 1)
            one = replace(tally(cover, [stream]), elapsed_ms=0)
            assert_tally_is_the_reference(one, reference_tally(cover, [stream], [expected]))
            monkeypatch.setattr(verifier, "_jobs", lambda: 2)
            for block_rows in (7, 64):
                monkeypatch.setattr(verifier, "BLOCK_ROWS", block_rows)
                assert replace(tally(cover, [stream]), elapsed_ms=0) == one, (eps, q, block_rows)


@pytest.mark.parametrize("make", [_with_moved_anchor, _without_origin_base_a])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_broken_covers_report_planes_as_rows_alone(make, q):
    # A patch whose check fails goes one y at a time down the path of a row
    # routed alone: the same fallbacks and reasons, and the same failures
    # and sliver violations, in row order.
    cover = make()
    d, n = cover.d, cover.n
    fallbacks = 0
    for eps in (delta(n), delta(n) / 3, Fraction(0)):
        big, rows = lattice_rows(d, n, eps, q)
        planes = replace(tally(cover, [(big, rows)]), elapsed_ms=0)
        alone = replace(tally(cover, [(big, [X]) for X in rows]), elapsed_ms=0)
        assert planes == alone, eps
        assert_tally_is_the_reference(planes, reference_tally(cover, [(big, rows)]))
        fallbacks += planes.routes[ROUTE_FALLBACK]
    assert fallbacks > 0


def cuts(y1):
    """The cuts ``(ya, xa, yb, xb)`` of a plane up to ``y = y1``: first row
    ``(ya, xa)`` and last row ``(yb, xb)`` each at the start, the middle or
    the end of its range, the plane's own first and last rows included."""
    def marks(a, b):
        return sorted({a, (a + b) // 2, b})

    return [
        (ya, xa, yb, xb)
        for ya in marks(0, y1)
        for xa in marks(0, ya)
        for yb in marks(ya, y1)
        for xb in marks(xa if yb == ya else 0, yb)
    ]


@pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_cut_planes_route_every_row_as_the_reference(d, n):
    # Every plane of each lattice, cut at a coarse grid of first and last
    # rows, as a block boundary cuts it: each row of each cut segment gets
    # the element, route and reason of the row located alone.  A plane's
    # row (y, x) is its row number y(y+1)/2 + x.
    cover = cover_of(d, n)
    for eps in (delta(n), Fraction(0)):
        for q in (1, 2, 3):
            big, rows = lattice_rows(d, n, eps, q)
            expected = reference_rows(cover, big, rows)
            route = verifier._router(cover, big)
            first = 0  # the plane's first row number in the lattice
            for P, y1, _, hi in rows.planes(0, len(rows)):
                for ya, xa, yb, xb in cuts(y1):
                    segment = ((*P[:-1], ya), yb, xa, xb + 1)
                    a, b = ya * (ya + 1) // 2 + xa, yb * (yb + 1) // 2 + xb
                    got = routed_rows(route, [segment])
                    assert got == expected[first + a : first + b + 1], segment
                first += y1 * (y1 + 1) // 2 + hi


def test_a_band_runs_until_a_piece_would_close():
    # (d, n) = (2, 1), L = 3: rows 0..3 each lie whole in type (a), whose end
    # y + 1 moves with the row's end, so they are one band; row 4 floors y
    # anew and splits at its type-(a) end
    place = locate._placer(2, 1, 3, 1)
    assert place((0,), 4, 0, 5) == [
        (0, 3, 0, 1, 0, 4, (False, (0,), (1,), 0, 1)),
        (4, 4, 0, 3, 0, 3, (False, (1,), (1,), 0, 1)),
        (4, 4, 3, 5, 3, 5, (False, (1,), (1,), 0, 0)),
    ]
