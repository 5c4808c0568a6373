import hashlib
import json
import os
import random
import re
import sys
import traceback
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain

import pytest

from oracles import (
    bruteforce_containing,
    enumerate_cube_triangulation,
    generic_interior_cube_samples,
    generic_interior_simplex_samples,
    partition_check,
    strictly_contains,
)
from simplexcover import cli, verifier
from simplexcover.arith import _scale, point_format
from simplexcover.cover import KIND_BASE_A, ExplicitCover, build_cover, delta
from simplexcover.samplers import (
    boundary_rows,
    boundary_suite,
    in_domain,
    lattice_rows,
    lattice_samples,
    random_rows,
    random_samples,
)
from simplexcover.simplex import KuhnSimplex
from simplexcover.triangulation import enumerate_base_slab, enumerate_simplex_triangulation
from simplexcover.locate import ROUTES, UncoveredPointError, witness
from simplexcover.verifier import coverage_report, format_points, tally

F = Fraction


def test_lattice_counts_match_examples():
    assert len(list(lattice_samples(2, 1, F(1, 3), 1))) == 15
    assert len(list(lattice_samples(2, 1, F(0), 1))) == 10


def test_lattice_points_exact_and_in_domain():
    pts = list(lattice_samples(2, 1, F(1, 3), 1))
    assert pts[0] == (F(0), F(0))
    assert all(in_domain(p, 1, F(1, 3)) for p in pts)
    assert (F(4, 3), F(1)) in pts
    step = F(1, 3)
    assert all(c % step == 0 for p in pts for c in p)


def test_lattice_rejects_bad_plan():
    # every sampler checks its plan on the call, before the first point
    with pytest.raises(ValueError):
        lattice_samples(2, 1, F(1, 2), 1)  # eps above delta
    with pytest.raises(ValueError):
        lattice_samples(2, 1, F(1, 3), 0)
    with pytest.raises(ValueError):
        lattice_samples(2, 1, F(-1, 3), 1)
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        lattice_samples(2, 0, F(0), 1)
    with pytest.raises(ValueError, match="n must be at least 1, got -2"):
        random_samples(2, -2, F(0), 1, 0)
    with pytest.raises(ValueError, match="d must be at least 2, got 0"):
        random_samples(0, 2, F(0), 2, 0)
    with pytest.raises(ValueError):
        random_samples(2, 1, F(1, 3), 0, 0)
    with pytest.raises(ValueError):
        random_samples(2, 1, F(1, 2), 1, 0)
    with pytest.raises(ValueError, match="d must be at least 2, got 1"):
        boundary_suite(1, 2, F(0))
    with pytest.raises(ValueError):
        boundary_suite(2, 1, F(-1, 3))


def test_random_samples_deterministic_and_in_domain():
    a = list(random_samples(3, 2, F(1, 4), count=200, seed=42))
    b = list(random_samples(3, 2, F(1, 4), count=200, seed=42))
    c = list(random_samples(3, 2, F(1, 4), count=200, seed=43))
    assert a == b
    assert a != c
    assert len(a) == 200
    assert all(in_domain(p, 2, F(1, 4)) for p in a)


def test_boundary_suite_contents():
    pts = boundary_suite(2, 2, F(1, 4))
    assert (F(0), F(0)) in pts
    assert (F(9, 4), F(0)) in pts
    assert (F(9, 4), F(9, 4)) in pts
    assert any(p[-1] == F(5, 4) for p in pts)  # seam
    assert any(p[-1] == F(1, 4) for p in pts)  # sliver plane
    assert all(in_domain(p, 2, F(1, 4)) for p in pts)
    assert len(set(pts)) == len(pts)


def test_boundary_suite_respects_small_eps():
    pts = boundary_suite(2, 1, F(0))
    assert all(in_domain(p, 1, F(0)) for p in pts)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_coverage_report_success(d, n):
    cover = build_cover(d, n)
    report = coverage_report(cover, lattice_samples(d, n, cover.delta, 2))
    assert report.success
    assert report.covered == report.total > 0
    assert report.routes["fallback"] == 0
    assert report.failures == ()
    assert report.sliver_violations == ()


def test_coverage_report_makes_one_router_per_denominator(monkeypatch):
    made = []
    router = verifier._router

    def counted(cover, big):
        made.append(big)
        return router(cover, big)

    monkeypatch.setattr(verifier, "_router", counted)
    cover = build_cover(3, 2)
    points = list(lattice_samples(3, 2, cover.delta, 2))
    report = coverage_report(cover, points)
    assert report.success and report.total == len(points) == 1330
    assert sorted(made) == sorted({_scale((x,), 2)[0] for x in points}) == [4, 8]


def test_coverage_report_route_histogram_partitions_total():
    cover = build_cover(2, 2)
    report = coverage_report(cover, lattice_samples(2, 2, cover.delta, 4))
    assert sum(report.routes.values()) == report.total
    assert report.routes["top"] > 0
    assert report.routes["base_a"] > 0
    assert report.routes["base_b"] > 0


def test_coverage_report_eps_precondition():
    cover = build_cover(2, 1)
    good = [(F(0), F(0))]
    assert coverage_report(cover, good, eps=F(0)).success
    with pytest.raises(ValueError):
        coverage_report(cover, [(F(4, 3), F(0))], eps=F(0))
    with pytest.raises(ValueError):
        coverage_report(cover, good, eps=F(1, 2))


def test_coverage_report_sliver_violation_fails():
    cover = build_cover(2, 1)
    report = coverage_report(cover, lattice_samples(2, 1, cover.delta, 1))
    assert report.success
    bad = replace(report, sliver_violations=((F(1, 3), F(1, 3)),))
    assert not bad.success
    assert bad.to_json() == report.to_json()


def _without_origin_base_a():
    """(2, 2) without its base_a element at the origin."""
    cover = build_cover(2, 2)
    return ExplicitCover(
        2, 2, (el for el in cover.elements if el.key != (KIND_BASE_A, (0, 0), (1, 2)))
    )


def _with_moved_anchor():
    """(2, 1) without its base_a element at the origin, and with the base_b
    anchor on (1, 0), (2, 1) lowered by 1/3."""
    cover = build_cover(2, 1)
    key = ("base_b", (1, 0), (2, 1))
    moved = replace(cover.element_index[key], anchor=(F(1), F(0)))
    dropped = (KIND_BASE_A, (0, 0), (1, 2))
    return ExplicitCover(
        2, 1, (moved if el.key == key else el for el in cover.elements if el.key != dropped)
    )


def test_coverage_report_records_real_sliver_violations():
    # Without the base_a element at the origin of (2, 2), points routed to it
    # come back on the fallback route: on or below the sliver plane
    # x_d = delta = 1/4 that breaks the rule, just above it it does not.
    cover = build_cover(2, 2)
    dropped = _without_origin_base_a()
    below, at, above = (F(1), F(1, 5)), (F(1), F(1, 4)), (F(1), F(1, 4) + F(1, 10**6))
    report = coverage_report(dropped, [below, at, above])
    assert report.covered == report.total == 3
    assert report.routes["fallback"] == 3
    assert report.fallback_reasons == {"missing": 3}
    assert report.sliver_violations == (below, at)
    assert not report.success
    assert coverage_report(cover, [below, at, above]).sliver_violations == ()


def test_coverage_report_counts_fallback_reasons():
    # Drop the base_a element at the origin of (2, 1) and lower the base_b
    # anchor by 1/3: the scan takes over for the points routed to either.
    cover = build_cover(2, 1)
    broken = _with_moved_anchor()
    report = coverage_report(broken, lattice_samples(2, 1, cover.delta, 2))
    assert report.routes == {"top": 0, "base_a": 9, "base_b": 0, "fallback": 15}
    assert report.fallback_reasons == {"anchor": 5, "missing": 10}
    assert not report.success
    assert "fallback_reasons" not in report.to_json()
    clean = coverage_report(cover, lattice_samples(2, 1, cover.delta, 2))
    assert clean.fallback_reasons == {}


def _campaign(d, n, eps, q, count, seed):
    """The three row streams of ``verify --mode all`` and the same points made
    exact by the Point samplers."""
    rows = [
        lattice_rows(d, n, eps, q),
        random_rows(d, n, eps, count, seed),
        boundary_rows(d, n, eps),
    ]
    points = chain(
        lattice_samples(d, n, eps, q),
        random_samples(d, n, eps, count, seed),
        boundary_suite(d, n, eps),
    )
    return rows, points


@pytest.mark.parametrize("d,n", [(2, 1), (2, 5), (3, 2), (3, 3), (4, 2)])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("eps_of", ["delta", "zero", "delta/3"])
def test_verify_rows_match_the_point_path(capsys, d, n, q, eps_of):
    eps = {"delta": delta(n), "zero": F(0), "delta/3": delta(n) / 3}[eps_of]
    seed = 10 * d + n + q
    argv = ["verify", "--d", str(d), "--n", str(n), "--mode", "all", "--eps", str(eps)]
    assert cli.main(argv + ["--q", str(q), "--samples", "100", "--seed", str(seed)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    wire = json.loads(out)
    _, points = _campaign(d, n, eps, q, 100, seed)
    expected = coverage_report(build_cover(d, n), points).to_json()
    wire.pop("elapsed_ms")
    expected.pop("elapsed_ms")
    assert wire == expected


@pytest.mark.parametrize("make", [_with_moved_anchor, _without_origin_base_a])
def test_row_path_rechecks_every_point_of_a_failed_key(make):
    # The campaign remembers only keys that passed their checks, so each point
    # routed to a missing element or a moved anchor falls back on its own, as
    # it does in a witness call with nothing remembered.
    cover = make()
    d, n = cover.d, cover.n
    rows, points = _campaign(d, n, cover.delta, 4, 300, 5)
    points = list(points)
    by_rows = tally(cover, rows)
    by_points = coverage_report(cover, points)
    routes, reasons, slivers = Counter({route: 0 for route in ROUTES}), Counter(), []
    failures = []
    for x in points:
        try:
            result = witness(x, d, n, cover)
        except UncoveredPointError:
            failures.append(x)
            continue
        routes[result.route] += 1
        if result.fallback_reason is not None:
            reasons[result.fallback_reason] += 1
        if result.route != KIND_BASE_A and x[-1] <= cover.delta:
            slivers.append(x)
    for report in (by_rows, by_points):
        assert report.total == len(points)
        assert report.failures == tuple(failures)
        assert report.routes == dict(routes)
        assert report.fallback_reasons == dict(sorted(reasons.items()))
        assert report.sliver_violations == tuple(slivers)
    assert max(reasons.values()) > 1
    assert by_rows.routes["fallback"] == sum(reasons.values()) > 0


def _orders(rows, seed):
    """A stream's rows in order, reversed, seeded-shuffled and as lists."""
    shuffled = list(rows)
    random.Random(seed).shuffle(shuffled)
    return {
        "in order": rows,
        "reversed": rows[::-1],
        "shuffled": shuffled,
        "as lists": [list(X) for X in rows],
    }


def _segment_rows_of(P, y1, lo, hi):
    """The rows of a plane segment, in order."""
    Q, y0 = P[:-1], P[-1]
    return [
        (*Q, y, x)
        for y in range(y0, y1 + 1)
        for x in range(lo if y == y0 else 0, hi if y == y1 else y + 1)
    ]


def _segment_rows(P, y1, lo, hi):
    """The number of rows of a plane segment, in closed form."""
    return y1 * (y1 + 1) // 2 + hi - P[-1] * (P[-1] + 1) // 2 - lo


def _route_row(route, X):
    """``(element, route, fallback_reason)`` of X routed as a run of one, a
    segment of one row; the element is None where no element contains the
    point."""
    P = X[:-1]
    ((*_, element, kind, reason),) = route(P, P[-1] if P else 0, X[-1], X[-1] + 1)
    return element, kind, reason


def _routed(route, X):
    """``_route_row``, or None where no element contains the point."""
    routed = _route_row(route, X)
    return None if routed[0] is None else routed


def _assert_shared_router_agrees(cover, big, rows, seed):
    """Each row routed through one router shared by its stream gives the
    element (by identity), route and fallback reason of a router made for that
    row alone, in every order of ``_orders``; returns the stream's ``tally``
    report per order, without ``elapsed_ms``."""
    rows = [tuple(X) for X in rows]
    alone = {X: _routed(verifier._router(cover, big), X) for X in rows}
    reports = {}
    for name, order in _orders(rows, seed).items():
        route = verifier._router(cover, big)
        for X in order:
            got, expected = _routed(route, X), alone[tuple(X)]
            if expected is None:
                assert got is None, (name, X)
            else:
                assert got[0] is expected[0], (name, X)
                assert got[1:] == expected[1:], (name, X)
        reports[name] = replace(tally(cover, [(big, order)]), elapsed_ms=0)
    return reports


@pytest.mark.parametrize("d,n", [(2, 1), (2, 5), (3, 2), (3, 3), (4, 2), (5, 1)])
def test_a_shared_router_routes_as_a_fresh_router(d, n):
    # A router shared by a stream keeps each placement's check; a router made
    # for one row keeps nothing.  Lattice rows share prefixes and cells with
    # their neighbours, and reversed or shuffled rows revisit them after
    # others; random and boundary rows rarely repeat one.
    cover = build_cover(d, n)
    for eps in (delta(n), delta(n) / 3, F(0)):
        streams = [lattice_rows(d, n, eps, q) for q in (1, 2, 3)]
        streams += [random_rows(d, n, eps, 200, 10 * d + n), boundary_rows(d, n, eps)]
        for i, (big, rows) in enumerate(streams):
            reports = _assert_shared_router_agrees(cover, big, list(rows), seed=i)
            first = reports["in order"]
            assert first.success
            assert all(report == first for report in reports.values())


@pytest.mark.parametrize("make", [_with_moved_anchor, _without_origin_base_a])
def test_a_shared_router_falls_back_row_by_row(make):
    # A placement whose key failed its checks is kept in the router with the
    # failed check: every row sent to it is scanned on its own and counts its
    # reason, in any order.
    cover = make()
    d, n = cover.d, cover.n
    fallbacks = 0
    for i, (big, rows) in enumerate(_campaign(d, n, cover.delta, 4, 300, 5)[0]):
        reports = _assert_shared_router_agrees(cover, big, list(rows), seed=i)
        # failures and sliver violations are listed in row order
        unordered = {
            name: replace(
                report,
                failures=tuple(sorted(report.failures)),
                sliver_violations=tuple(sorted(report.sliver_violations)),
            )
            for name, report in reports.items()
        }
        assert all(report == unordered["in order"] for report in unordered.values())
        fallbacks += reports["in order"].routes["fallback"]
    assert fallbacks > 1


@pytest.mark.parametrize("d,n", [(2, 1), (3, 2), (5, 2)])
def test_rows_next_to_a_refused_row(d, n):
    # A refused row neither uses nor spoils the checks the router keeps: the
    # rows that follow route as a fresh router routes them.
    cover = build_cover(d, n)
    big = 2 * (n + 2)
    side = n * big + big // (n + 2)
    P = tuple(range(side, side - d + 1, -1))
    # the last row of P is above the seam for n >= 2
    valid = [P + (P[-1] // 2,), P + (0,), P + (P[-1],), (side,) * (d - 1) + (1,)]
    refused = [P + (P[-1] + 1,), P + (-1,), (side + 1,) + P[1:] + (0,), P, P + (0, 0)]
    if d > 2:
        # a prefix that does not descend, and one with a negative entry
        refused += [P[::-1] + (0,), P[:-1] + (-1, -1)]
    fresh = {X: _route_row(verifier._router(cover, big), X) for X in valid}
    for X in refused:
        if len(X) == d:
            point = point_format(tuple(F(c, big) for c in X))
            message = f"^point {re.escape(point)} is outside the target simplex$"
        else:
            message = "^point/cover dimension or scale mismatch$"
        route = verifier._router(cover, big)
        assert _route_row(route, valid[0]) == fresh[valid[0]]
        for _ in range(2):  # a refused prefix is not remembered
            with pytest.raises(ValueError, match=message):
                _route_row(route, X)
        for Y in valid:
            element, *rest = _route_row(route, Y)
            assert element is fresh[Y][0] and rest == list(fresh[Y][1:]), (X, Y)


# SHA-256 of the point_format lines, one per point, pinned before the samplers
# were written as integer rows.
SAMPLER_DIGESTS = [
    ("lattice", F(1, 4), 2, 1330, "e1554bdf56eb010b8790089d4bee877113fabfa3d23383d1a0c0eba397ec6473"),
    ("lattice", F(1, 9), 3, 3276, "4198b13ef5fe22d123c76e8b8849b566a70013fe3aea1ec8aaed58eb5b45f2a6"),
    ("random", F(1, 4), 11, 500, "615df835e200eac7becdebbed4c24e616be84c9d65fd7ee5a144955dc0f3822d"),
    ("random", F(0), 12, 500, "a36e52cabfca5726305b12826b5c2ceb3b4dcf4ac6a0783e96ed604a9b101843"),
    ("random", F(1, 9), 13, 500, "e5257681a283325bda9ead6c113099498b042fd05bfb2a95b441e0ad8ac8fcbd"),
]


@pytest.mark.parametrize("sampler,eps,arg,count,digest", SAMPLER_DIGESTS)
def test_samplers_are_pinned(sampler, eps, arg, count, digest):
    # arg is the lattice resolution q, or the random seed
    if sampler == "lattice":
        pts = list(lattice_samples(3, 2, eps, arg))
    else:
        pts = list(random_samples(3, 2, eps, count, arg))
    text = "".join(point_format(p) + "\n" for p in pts)
    assert len(pts) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_coverage_report_json_schema():
    cover = build_cover(2, 1)
    report = coverage_report(cover, lattice_samples(2, 1, cover.delta, 1))
    wire = report.to_json()
    assert list(wire) == ["total", "covered", "routes", "failures", "elapsed_ms"]
    assert list(wire["routes"]) == ["top", "base_a", "base_b", "fallback"]
    assert wire["failures"] == []
    json.dumps(wire)  # serializable


def test_bruteforce_containing_examples():
    cover = build_cover(2, 1)
    hits = bruteforce_containing(cover, (F(1, 8), F(1, 8)))
    assert any(
        el.kind == KIND_BASE_A and el.anchor == (F(0), F(0)) for el in hits
    )
    assert bruteforce_containing(cover, (F(10), F(10))) == ()


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 2)])
def test_witness_agrees_with_bruteforce(d, n):
    cover = build_cover(d, n)
    for x in random_samples(d, n, cover.delta, count=100, seed=5 * d + n):
        res = witness(x, d, n, cover)
        assert res.element in bruteforce_containing(cover, x)


def naive_strict_multiplicity(pairs, x):
    count = 0
    for v, perm in pairs:
        cell = KuhnSimplex(tuple(F(c) for c in v), perm)
        if strictly_contains(cell, x):
            count += 1
    return count


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2)])
def test_partition_check_simplex(d, n):
    pairs = list(enumerate_simplex_triangulation(d, n))
    samples = generic_interior_simplex_samples(d, n, count=100, seed=31 * d + n)
    report = partition_check(pairs, d, Fraction(n**d, 1) / _fact(d), samples)
    assert report.success
    assert report.simplex_count == n**d
    assert report.samples_total == 100
    # The canonical-candidate shortcut must agree with a naive all-pairs scan.
    for x in samples[:10]:
        assert naive_strict_multiplicity(pairs, x) == 1


def _fact(d):
    out = 1
    for k in range(2, d + 1):
        out *= k
    return out


def test_partition_check_slab():
    d, m = 2, 2
    pairs = list(enumerate_base_slab(d, m))
    volume = (Fraction(m**d) - Fraction((m - 1) ** d)) / _fact(d)
    samples = generic_interior_simplex_samples(d, m, count=100, seed=8, below=F(1))
    report = partition_check(pairs, d, volume, samples)
    assert report.success


def test_partition_check_cube():
    d = 3
    pairs = list(enumerate_cube_triangulation(d))
    samples = generic_interior_cube_samples(d, count=100, seed=12)
    report = partition_check(pairs, d, Fraction(1), samples)
    assert report.success
    for x in samples[:10]:
        assert naive_strict_multiplicity(pairs, x) == 1


def test_partition_check_flags_defects():
    d, n = 2, 2
    pairs = list(enumerate_simplex_triangulation(d, n))
    samples = generic_interior_simplex_samples(d, n, count=50, seed=3)
    # Remove one cell: points inside it now have multiplicity 0.
    report = partition_check(pairs[:-1], d, Fraction(n**d) / 2, samples)
    assert not report.volume_ok
    # Volume bookkeeping alone must fail even if no sampled point lands in the
    # removed cell; if one does, it is also reported.
    assert not report.success
    with pytest.raises(ValueError):
        partition_check(pairs + [pairs[0]], d, Fraction(n**d) / 2, samples)


def test_partition_check_rejects_nongeneric_sample():
    d, n = 2, 2
    pairs = list(enumerate_simplex_triangulation(d, n))
    with pytest.raises(ValueError):
        partition_check(pairs, d, Fraction(n**d) / 2, [(F(1), F(1, 2))])
    with pytest.raises(ValueError):
        partition_check(pairs, d, Fraction(n**d) / 2, [(F(3, 2), F(1, 2))])


def test_generic_samples_are_generic_and_seeded():
    a = generic_interior_simplex_samples(2, 2, count=50, seed=7)
    b = generic_interior_simplex_samples(2, 2, count=50, seed=7)
    assert a == b
    for x in a:
        assert all(c != int(c) for c in x)
        assert len({c - int(c) for c in x}) == len(x)
        assert x[0] > x[1] > 0
        assert x[0] < 2
    slab = generic_interior_simplex_samples(2, 2, count=50, seed=7, below=F(1))
    assert all(x[-1] < 1 for x in slab)
    cube = generic_interior_cube_samples(3, count=50, seed=7)
    assert all(0 < c < 1 for x in cube for c in x)
    assert all(len(set(x)) == 3 for x in cube)


def test_format_points_truncates():
    cover = build_cover(2, 1)
    report = coverage_report(cover, lattice_samples(2, 1, cover.delta, 1))
    assert format_points(report.failures) == ""
    fake = replace(
        report,
        failures=tuple((F(k), F(0)) for k in range(8)),
    )
    text = format_points(fake.failures)
    assert "(+3 more)" in text
    assert text.count(",") >= 3


# --- workers ----------------------------------------------------------------
# tally splits its rows into blocks of BLOCK_ROWS and forks a worker per CPU;
# these tests force the worker count and a small block size.


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _by_jobs(monkeypatch, block_rows, call):
    """``call()`` under 1, 2 and 3 workers and blocks of ``block_rows`` rows:
    the reports, ``elapsed_ms`` zeroed, or the exceptions raised.  Every
    worker must be reaped when the call returns or raises."""
    monkeypatch.setattr(verifier, "BLOCK_ROWS", block_rows)
    outcomes = []
    for jobs in (1, 2, 3):
        monkeypatch.setattr(verifier, "_jobs", lambda: jobs)
        try:
            outcomes.append(replace(call(), elapsed_ms=0))
        except Exception as exc:
            outcomes.append(exc)
        _assert_no_child_left()
    return outcomes


def test_workers_report_the_benchmark_campaign(monkeypatch):
    # the call the benchmark's campaign workload times: 35,668 rows in three streams
    cover = build_cover(5, 2)
    for block_rows in (1000, verifier.BLOCK_ROWS):
        reports = _by_jobs(
            monkeypatch, block_rows, lambda: tally(cover, _campaign(5, 2, cover.delta, 2, 2000, 1)[0])
        )
        assert reports[0].total == reports[0].covered == 35668
        assert reports[0].routes == {"top": 1328, "base_a": 26059, "base_b": 8281, "fallback": 0}
        assert reports[0].success
        assert reports[1] == reports[0] and reports[2] == reports[0]


def _with_every_other_element():
    """(3, 2) with every other element dropped: points fall back, some are
    uncovered, some break the sliver rule."""
    cover = build_cover(3, 2)
    return ExplicitCover(3, 2, cover.elements[::2])


@pytest.mark.parametrize("make", [_with_moved_anchor, _without_origin_base_a, _with_every_other_element])
@pytest.mark.parametrize("block_rows", [1, 7, 100])
def test_workers_report_broken_covers_in_row_order(monkeypatch, make, block_rows):
    # fallbacks and their reasons are summed over the workers; failures and
    # sliver violations are merged back into row order
    cover = make()
    d, n = cover.d, cover.n
    reports = _by_jobs(
        monkeypatch, block_rows, lambda: tally(cover, _campaign(d, n, cover.delta, 4, 300, 5)[0])
    )
    assert reports[0].routes["fallback"] > 1 and reports[0].fallback_reasons
    if make is _with_every_other_element:
        assert len(reports[0].failures) > 1 and len(reports[0].sliver_violations) > 1
    assert reports[1] == reports[0] and reports[2] == reports[0]


@pytest.mark.parametrize("make", [lambda: build_cover(3, 2), _with_every_other_element])
def test_workers_report_one_row_streams(monkeypatch, make):
    # coverage_report scales each point to its own stream of one row; blocks
    # are counted across streams
    cover = make()
    points = list(_campaign(3, 2, cover.delta, 2, 200, 9)[1])
    reports = _by_jobs(monkeypatch, 50, lambda: coverage_report(cover, points))
    assert reports[0].total == len(points)
    assert reports[1] == reports[0] and reports[2] == reports[0]


def _streams_with(big, rows, bad, cut):
    """``rows`` with each row of ``bad`` put in at its index, as streams: the
    first 5 rows as a list, then the rest as a list or, split at row ``cut``,
    as a list and a tuple."""
    rows = list(rows)
    for at, X in sorted(bad.items()):
        rows.insert(at, X)
    if cut is None:
        return [(big, rows[:5]), (big, rows[5:])]
    return [(big, rows[:5]), (big, rows[5:cut]), (big, tuple(rows[cut:]))]


@pytest.mark.parametrize(
    "bad,cut,message",
    [
        ({25: (1, 2)}, None, "^point/cover dimension or scale mismatch$"),
        ({15: (100, 0, 0)}, None, "^point 25,0,0 is outside the target simplex$"),
        ({35: (0, 0, 1)}, None, "^point 0,0,1/4 is outside the target simplex$"),
        ({15: (1, 2), 38: (100, 0, 0)}, None, "^point/cover dimension or scale mismatch$"),
        ({25: (100, 0, 0), 32: (1, 2)}, 30, "^point 25,0,0 is outside the target simplex$"),
        ({22: (1, 2)}, 27, "^point/cover dimension or scale mismatch$"),
        ({25: (1, 2)}, 26, "^point/cover dimension or scale mismatch$"),
        ({25: ()}, None, "^point/cover dimension or scale mismatch$"),
        ({15: (7,)}, None, "^point/cover dimension or scale mismatch$"),
    ],
)
def test_workers_raise_the_serial_error(monkeypatch, bad, cut, message):
    # Blocks of 10 rows, the first 5 in a stream of their own.  Block 1
    # (rows 10-19) is worker 1's; block 2 is worker 2's of 3, the caller's of
    # 2; block 3 is the caller's of 3, worker 1's of 2.  The error of the
    # earliest failing row is raised, whichever worker met it.
    cover = build_cover(3, 2)
    big, rows = lattice_rows(3, 2, cover.delta, 1)
    rows = list(rows)
    outcomes = _by_jobs(monkeypatch, 10, lambda: tally(cover, _streams_with(big, rows, bad, cut)))
    assert all(type(exc) is type(outcomes[0]) for exc in outcomes), outcomes
    for exc in outcomes:
        assert re.search(message, str(exc)), exc


def test_a_campaign_of_one_block_forks_nothing(monkeypatch):
    cover = build_cover(2, 1)
    big, rows = lattice_rows(2, 1, cover.delta, 2)
    rows = list(rows)
    forks = []

    def no_fork():
        forks.append(1)
        raise OSError("no process to spare")

    monkeypatch.setattr(verifier, "_jobs", lambda: 2)
    monkeypatch.setattr(verifier.os, "fork", no_fork)
    monkeypatch.setattr(verifier, "BLOCK_ROWS", len(rows))
    one = replace(tally(cover, [(big, rows[:10]), (big, rows[10:])]), elapsed_ms=0)
    assert forks == []
    # one row more needs worker 1; when it cannot be forked, worker 0 routes its block
    monkeypatch.setattr(verifier, "BLOCK_ROWS", len(rows) - 1)
    two = replace(tally(cover, [(big, rows[:10]), (big, rows[10:])]), elapsed_ms=0)
    assert forks == [1]
    assert one == two and one.total == len(rows) == 45
    _assert_no_child_left()


def test_a_worker_is_forked_before_the_caller_routes(monkeypatch):
    # The caller forks worker 1 before the walk, before routing a row of its
    # own block.
    cover = build_cover(3, 2)
    big, rows = lattice_rows(3, 2, cover.delta, 1)
    routed, forks = [], []
    router = verifier._router

    def counted(cover, big):
        route = router(cover, big)

        def counting(P, y1, lo, hi):
            routed.append(_segment_rows(P, y1, lo, hi))
            return route(P, y1, lo, hi)

        return counting

    def no_fork():
        forks.append(sum(routed))
        raise OSError("no process to spare")

    monkeypatch.setattr(verifier, "_router", counted)
    monkeypatch.setattr(verifier.os, "fork", no_fork)
    monkeypatch.setattr(verifier, "_jobs", lambda: 2)
    monkeypatch.setattr(verifier, "BLOCK_ROWS", 200)
    report = tally(cover, [(big, rows)])
    assert forks == [0]
    assert report.success and report.total == len(rows) == 220
    _assert_no_child_left()


def test_workers_are_reaped_after_an_interrupt(monkeypatch):
    # An interrupt in the caller stops the workers; one in a worker fails the tally.
    # The interrupt comes from the route step, once a process has routed 100
    # rows: in the caller, or in each forked worker.
    cover = build_cover(3, 2)
    caller = os.getpid()
    big, rows = lattice_rows(3, 2, cover.delta, 2)
    rows = list(rows)
    router = verifier._router

    def interrupting(in_caller):
        def make(cover, big):
            route = router(cover, big)
            routed = []

            def step(P, y1, lo, hi):
                if sum(routed) >= 100 and (os.getpid() == caller) == in_caller:
                    raise KeyboardInterrupt
                routed.append(_segment_rows(P, y1, lo, hi))
                return route(P, y1, lo, hi)

            return step

        return make

    monkeypatch.setattr(verifier, "BLOCK_ROWS", 50)
    monkeypatch.setattr(verifier, "_jobs", lambda: 3)
    monkeypatch.setattr(verifier, "_router", interrupting(True))
    with pytest.raises(KeyboardInterrupt):
        tally(cover, [(big, rows)])
    _assert_no_child_left()
    monkeypatch.setattr(verifier, "_router", interrupting(False))
    with pytest.raises(RuntimeError, match=r"^a tally worker failed \(exit status 1\)$"):
        tally(cover, [(big, rows)])
    _assert_no_child_left()


def test_a_forked_workers_error_keeps_its_traceback(monkeypatch):
    # The error keeps its type and message; the forked worker's traceback,
    # down to the route step that raised it, comes back as its cause.
    cover = build_cover(3, 2)
    big, rows = lattice_rows(3, 2, cover.delta, 1)
    rows = list(rows)
    rows.insert(15, (1, 2))  # worker 1's block of rows 10-19
    monkeypatch.setattr(verifier, "BLOCK_ROWS", 10)
    monkeypatch.setattr(verifier, "_jobs", lambda: 2)
    with pytest.raises(ValueError, match="^point/cover dimension or scale mismatch$") as caught:
        tally(cover, [(big, rows)])
    _assert_no_child_left()
    cause = caught.value.__cause__
    assert cause is not None and "Traceback (most recent call last)" in str(cause)
    text = "".join(traceback.format_exception(caught.value))
    assert re.search(r'locate\.py", line \d+, in route\n', text), text
    assert "ValueError: point/cover dimension or scale mismatch" in str(cause)
    # the caller's own error is raised as it is, with its own frames
    monkeypatch.setattr(verifier, "_jobs", lambda: 1)
    with pytest.raises(ValueError) as caught:
        tally(cover, [(big, rows)])
    assert caught.value.__cause__ is None
    assert "in route\n" in "".join(traceback.format_exception(caught.value))


# --- seekable streams -----------------------------------------------------
# lattice_rows and random_rows are Rows: len(rows) is closed-form and
# rows[i:] makes the rows from i on without the rows before it.


def _starts(length):
    """0, 1, every block boundary, the last row, the end and past it."""
    bounds = range(0, length + 1, verifier.BLOCK_ROWS)
    return sorted({0, 1, *bounds, max(length - 1, 0), length, length + 1, length + 5000})


LATTICE_STREAMS = [(d, n, eps, q) for d in (2, 3, 4, 5) for n, eps, q in ((1, F(0), 1), (2, None, 2))]


@pytest.mark.parametrize("d,n,eps,q", LATTICE_STREAMS)
def test_lattice_rows_start_at_any_index(d, n, eps, q):
    eps = delta(n) if eps is None else eps
    big, rows = lattice_rows(d, n, eps, q)
    whole = list(rows)
    assert len(rows) == len(whole) and list(rows) == whole
    assert whole == [tuple(c * big for c in x) for x in lattice_samples(d, n, eps, q)]
    for i in _starts(len(whole)):
        assert list(rows[i:]) == whole[i:], i
        assert list(rows[i : i + 3]) == whole[i : i + 3], i
        # the same rows as plane segments, cut at both ends
        for j in (i + 1, i + 3, len(whole)):
            planes = list(rows.planes(i, min(j, len(whole))))
            made = [X for segment in planes for X in _segment_rows_of(*segment)]
            assert made == whole[i:j], (i, j)
            assert sum(_segment_rows(*segment) for segment in planes) == len(whole[i:j])


@pytest.mark.parametrize("eps_of", [lambda n: F(0), delta, lambda n: delta(n) / 3])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_random_rows_start_at_any_index(eps_of, seed):
    d, n = 3, 2
    eps = eps_of(n)
    big, rows = random_rows(d, n, eps, 2 * verifier.BLOCK_ROWS + 10, seed)
    whole = list(rows)
    assert len(rows) == len(whole) == 2 * verifier.BLOCK_ROWS + 10
    assert whole == [tuple(c * big for c in x) for x in random_samples(d, n, eps, len(whole), seed)]
    starts = _starts(len(whole))
    # in order (each slice goes on from where the last one ended), backwards
    # (each starts anew), and two slices pulled in turn
    for i in starts + starts[::-1]:
        assert list(rows[i:]) == whole[i:], i
        assert list(rows[i : i + 7]) == whole[i : i + 7], i
    first, second = rows[5:20], rows[10:]
    pairs = list(zip(first, second))
    assert pairs == list(zip(whole[5:20], whole[10:]))
    assert list(second) == whole[25:]
    assert list(rows) == whole


def test_rows_take_only_slices_of_step_one():
    _, rows = lattice_rows(2, 1, F(0), 1)
    with pytest.raises(TypeError):
        rows[3]
    with pytest.raises(TypeError):
        rows[::2]
    assert list(rows[-2:]) == list(rows)[-2:]
    assert list(rows[4:2]) == []


def test_campaign_random_rows_are_pinned():
    # the random stream of the benchmark's campaign: SHA-256 of its
    # point_format lines, pinned when the draws were made by randint
    pts = list(random_samples(5, 2, delta(2), 2000, 1))
    text = "".join(point_format(p) + "\n" for p in pts)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0c81b05bf11451d5a7f98752db2d44f7d25fbf82eba274a14943fa2a731dda61"
    )


def _mixed_streams(cover):
    """Seekable, list and tuple streams of one (3, 2) campaign."""
    eps = cover.delta
    lattice = lattice_rows(3, 2, eps, 2)
    big, rows = random_rows(3, 2, eps, 150, 4)
    small, points = lattice_rows(3, 2, eps, 1)
    return [
        lattice,
        (big, rows),
        (small, list(points)),
        boundary_rows(3, 2, eps),
        (small, tuple(list(points)[::3])),
        random_rows(3, 2, eps, 90, 5),
    ]


@pytest.mark.parametrize("make", [lambda: build_cover(3, 2), _with_every_other_element])
@pytest.mark.parametrize("block_rows", [1, 7, 100])
def test_workers_report_mixed_streams(monkeypatch, make, block_rows):
    # workers enter seekable streams part-way and slice lists and tuples;
    # every report is the one worker's
    cover = make()
    reports = _by_jobs(monkeypatch, block_rows, lambda: tally(cover, _mixed_streams(cover)))
    assert reports[0].total == 1879
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_workers_make_only_their_own_rows(monkeypatch):
    # With 2 workers the caller routes the even blocks: a seekable stream
    # makes only their rows in it, whatever the stream before it held.
    cover = build_cover(3, 2)
    caller = os.getpid()
    big, rows = lattice_rows(3, 2, cover.delta, 2)
    made = []

    def since(start, stop):
        for i, X in enumerate(rows[start:stop], start):
            if os.getpid() == caller:
                made.append(i)
            yield X

    monkeypatch.setattr(verifier, "BLOCK_ROWS", 100)
    monkeypatch.setattr(verifier, "_jobs", lambda: 2)
    head = list(rows)[:30]
    report = tally(cover, [(big, head), (big, verifier.Rows(len(rows), since))])
    _assert_no_child_left()
    assert report.success and report.total == 30 + len(rows) == 30 + 1330
    own = [i - 30 for i in range(30, report.total) if i // 100 % 2 == 0]
    assert made == own


def test_coverage_report_sends_runs_of_one_denominator(monkeypatch):
    # consecutive points over one L go to tally as one stream; the rows and
    # the report are those of one stream per point
    cover = build_cover(3, 2)
    points = list(lattice_samples(3, 2, cover.delta, 2))
    scaled = [_scale((x,), 2) for x in points]
    sent = []

    def recorded(cover, streams):
        streams = [(big, list(rows)) for big, rows in streams]
        sent.append(streams)
        return tally(cover, streams)

    monkeypatch.setattr(verifier, "tally", recorded)
    report = coverage_report(cover, points)
    (streams,) = sent
    assert [(big, X) for big, rows in streams for X in rows] == [(big, X) for big, (X,) in scaled]
    assert all(a[0] != b[0] for a, b in zip(streams, streams[1:]))
    assert len(streams) == 1 + sum(a[0] != b[0] for a, b in zip(scaled, scaled[1:])) == 439
    assert replace(report, elapsed_ms=0) == replace(tally(cover, scaled), elapsed_ms=0)


def test_tally_takes_sized_streams_only(monkeypatch, tmp_path):
    # rows that are not a list, a tuple or a Rows are refused by their type,
    # before any worker is forked
    cover = build_cover(3, 2)
    big, rows = lattice_rows(3, 2, cover.delta, 1)
    rows = list(rows)
    path = tmp_path / "rows.txt"
    path.write_text("".join(f"{X}\n" for X in rows))
    forks = []

    def no_fork():
        forks.append(1)
        raise OSError("no process to spare")

    monkeypatch.setattr(verifier, "_jobs", lambda: 2)
    monkeypatch.setattr(verifier.os, "fork", no_fork)
    monkeypatch.setattr(verifier, "BLOCK_ROWS", 10)
    with open(path) as lines:
        kinds = {"generator": (X for X in rows), "list_iterator": iter(rows), "TextIOWrapper": lines}
        for kind, stream in kinds.items():
            message = f"^tally takes rows as a list, a tuple or a Rows, not {kind}$"
            with pytest.raises(TypeError, match=message):
                tally(cover, [(big, rows[:15]), (big, stream)])
    assert forks == []
    _assert_no_child_left()


def test_tally_refuses_a_stream_past_sys_maxsize(monkeypatch):
    # the (8, 40) lattice holds more rows than len() can return: tally names
    # the stream, its L and its row count, before any worker is forked
    big, rows = lattice_rows(8, 40, delta(40), 2)
    size = rows.__len__()
    assert size > sys.maxsize
    forks = []
    monkeypatch.setattr(verifier, "_jobs", lambda: 2)
    monkeypatch.setattr(verifier.os, "fork", lambda: forks.append(1))
    message = rf"^stream 1 \(L = {big}\) holds {size} rows, more than a campaign can index "
    with pytest.raises(ValueError, match=message):
        tally(build_cover(8, 40), [(big, [[0] * 8]), (big, rows)])
    assert forks == []


def test_a_float_coordinate_is_a_type_error():
    # a float has no denominator to scale by: witness and coverage_report
    # name the point and the coordinate types they take
    cover = build_cover(3, 2)
    message = r"^point \(1\.0, 0\.5, 0\.0\): coordinates must be int or Fraction$"
    with pytest.raises(TypeError, match=message):
        witness((1.0, 0.5, 0.0), 3, 2, cover)
    with pytest.raises(TypeError, match=message):
        coverage_report(cover, [(F(1), F(1, 2), 0), (1.0, 0.5, 0.0)])


def test_coverage_report_makes_every_point_before_forking(monkeypatch):
    # coverage_report scales each point in the caller: a generator of points
    # has been pulled to its end when the first worker is forked
    cover = build_cover(3, 2)
    points = list(lattice_samples(3, 2, cover.delta, 2))
    pulled, forks = [], []

    def pulling():
        for x in points:
            pulled.append(x)
            yield x

    def no_fork():
        forks.append(len(pulled))
        raise OSError("no process to spare")

    monkeypatch.setattr(verifier, "_jobs", lambda: 2)
    monkeypatch.setattr(verifier.os, "fork", no_fork)
    monkeypatch.setattr(verifier, "BLOCK_ROWS", 100)
    report = coverage_report(cover, pulling())
    assert forks == [len(points)] and len(points) == 1330
    assert report.success and report.total == len(points)
    _assert_no_child_left()


@pytest.mark.parametrize("d,n,big", [(3, 2, 5), (3, 2, 0), (8, 40, 41)])
def test_router_refuses_a_denominator_off_the_grid(d, n, big):
    # the route step works on numerators over L = k(n+2), k >= 1: any other L
    # is refused when the step is made, and so in tally at its stream
    cover = build_cover(d, n)
    with pytest.raises(ValueError, match="^point/cover dimension or scale mismatch$"):
        verifier._router(cover, big)
    with pytest.raises(ValueError, match="^point/cover dimension or scale mismatch$"):
        tally(cover, [(big, [(big,) + (0,) * (d - 1)])])
