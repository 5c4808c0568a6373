"""Acceptance gate: the package's headline guarantees, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible under
``pytest -s``) before asserting, so a red run names the violated guarantee
directly.  Runtime bounds are asserted where the criterion states one.
"""

import json
import time
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from oracles import (
    enumerate_cube_triangulation,
    generic_interior_cube_samples,
    generic_interior_simplex_samples,
    gram_squared_length,
    partition_check,
)
from simplexcover import cli
from simplexcover.cover import KIND_BASE_A, KIND_TOP, build_cover, cover_count, delta
from simplexcover.samplers import boundary_suite, random_samples
from simplexcover.simplex import contains, contains_oracle
from simplexcover.triangulation import enumerate_base_slab, enumerate_simplex_triangulation
from simplexcover.verifier import coverage_report, witness

F = Fraction

COUNT_GRID = [(d, n) for d in (2, 3, 4, 5) for n in (1, 2, 3, 4, 5, 6)]
LATTICE_CAMPAIGNS = [(2, n, 4) for n in (1, 2, 3, 4, 5)] + [(3, n, 2) for n in (1, 2, 3)]
SAMPLED_CAMPAIGNS = [(d, n) for d in (4, 5) for n in (1, 2, 3)]


def report_line(num, ok, detail, capsys=None):
    # Tests that hold the capsys fixture must bypass it, or the line would be
    # swallowed by the fixture buffer instead of reaching the terminal.
    if capsys is not None:
        with capsys.disabled():
            print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    else:
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_count_formula():
    t0 = time.perf_counter()
    checked = 0
    for d, n in COUNT_GRID:
        cover = build_cover(d, n)
        expected = (n + 1) ** d + (n - 1) ** d - n**d
        assert len(cover.elements) == expected == cover_count(d, n), (d, n)
        assert Counter(el.kind for el in cover.elements)[KIND_TOP] == (n - 1) ** d, (d, n)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == len(COUNT_GRID) and elapsed < 10.0
    report_line(1, ok, f"{checked} (d,n) cells match the count formula in {elapsed:.2f}s")


def test_criterion_2_planar_reduction():
    counts_ok = all(cover_count(2, n) == n * n + 2 for n in range(1, 21))
    edges = ((F(1), F(0)), (F(0), F(1)), (F(1), F(1)))
    sides = [gram_squared_length(e) for e in edges]
    sides_ok = sides == [F(1), F(1), F(1)]
    report_line(
        2,
        counts_ok and sides_ok,
        f"cover_count(2,n) = n^2+2 for n <= 20; Gram squared sides {sides}",
    )


def run_verify_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("d,n,q", LATTICE_CAMPAIGNS)
def test_criterion_3_exhaustive_lattice(d, n, q, capsys):
    t0 = time.perf_counter()
    code, report = run_verify_cli(
        capsys,
        ["verify", "--d", str(d), "--n", str(n), "--mode", "lattice", "--q", str(q)],
    )
    elapsed = time.perf_counter() - t0
    ok = (
        code == 0
        and report["covered"] == report["total"] > 0
        and report["routes"]["fallback"] == 0
        and report["failures"] == []
        and elapsed < 60.0
    )
    report_line(
        3,
        ok,
        f"d={d} n={n} lattice q={q}: {report['covered']}/{report['total']} covered, "
        f"exit {code}, {elapsed:.2f}s",
        capsys=capsys,
    )


@pytest.mark.parametrize("d,n", SAMPLED_CAMPAIGNS)
def test_criterion_4_sampled_coverage(d, n):
    t0 = time.perf_counter()
    cover = build_cover(d, n)
    dl = cover.delta
    samples = list(random_samples(d, n, dl, count=100_000, seed=d * 10 + n))
    samples.extend(boundary_suite(d, n, dl))
    report = coverage_report(cover, samples)
    elapsed = time.perf_counter() - t0
    ok = (
        report.success
        and report.covered == report.total == len(samples)
        and report.routes["fallback"] == 0
        and report.sliver_violations == ()
        and elapsed < 300.0
    )
    report_line(
        4,
        ok,
        f"d={d} n={n}: {report.covered}/{report.total} random+boundary covered in {elapsed:.1f}s",
    )


@pytest.mark.parametrize("d,n,q", LATTICE_CAMPAIGNS)
def test_criterion_5_smaller_margin(d, n, q, capsys):
    eps = delta(n) / 2
    code, report = run_verify_cli(
        capsys,
        [
            "verify", "--d", str(d), "--n", str(n),
            "--mode", "lattice", "--q", str(q),
            "--eps", f"{eps.numerator}/{eps.denominator}",
        ],
    )
    ok = (
        code == 0
        and report["covered"] == report["total"] > 0
        and report["routes"]["fallback"] == 0
    )
    report_line(
        5,
        ok,
        f"d={d} n={n} eps=delta/2 lattice q={q}: {report['covered']}/{report['total']} covered",
        capsys=capsys,
    )


def sliver_points(d, n, count, seed):
    dl = delta(n)
    pts = []
    for x in random_samples(d, n, dl, count=count, seed=seed):
        scaled = x[-1] * dl / (n + dl)  # lands in [0, delta], keeps the chain sorted
        pts.append(x[:-1] + (scaled,))
    pts.extend(p for p in boundary_suite(d, n, dl) if p[-1] <= dl)
    return pts


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (5, 1)])
def test_criterion_6_sliver_routes_base_a(d, n):
    cover = build_cover(d, n)
    pts = sliver_points(d, n, count=2000, seed=60 * d + n)
    routes = set()
    for x in pts:
        res = witness(x, d, n, cover)
        routes.add(res.route)
        assert res.element.kind == KIND_BASE_A, (x, res.element.key)
    report = coverage_report(cover, pts)
    ok = routes == {KIND_BASE_A} and report.sliver_violations == () and report.success
    report_line(6, ok, f"d={d} n={n}: {len(pts)} sliver points all routed base_a")


@pytest.mark.parametrize("d,n", COUNT_GRID)
def test_criterion_7_triangulation_partitions(d, n):
    m = n + 1
    simplex_pairs = list(enumerate_simplex_triangulation(d, n))
    slab_pairs = list(enumerate_base_slab(d, m))
    counts_ok = len(simplex_pairs) == n**d and len(slab_pairs) == m**d - (m - 1) ** d

    simplex_report = partition_check(
        simplex_pairs,
        d,
        Fraction(n**d, factorial(d)),
        generic_interior_simplex_samples(d, n, count=10_000, seed=700 + 10 * d + n),
    )
    slab_report = partition_check(
        slab_pairs,
        d,
        Fraction(m**d - (m - 1) ** d, factorial(d)),
        generic_interior_simplex_samples(
            d, m, count=10_000, seed=7000 + 10 * d + n, below=F(1)
        ),
    )
    ok = counts_ok and simplex_report.success and slab_report.success
    report_line(
        7,
        ok,
        f"d={d} n={n}: {len(simplex_pairs)} simplex cells and {len(slab_pairs)} slab cells "
        "partition their regions (10^4 generic samples each, volumes exact)",
    )


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_criterion_7_cube_partition(d):
    pairs = list(enumerate_cube_triangulation(d))
    report = partition_check(
        pairs,
        d,
        Fraction(1),
        generic_interior_cube_samples(d, count=10_000, seed=70 + d),
    )
    ok = len(pairs) == factorial(d) and report.success
    report_line(7, ok, f"cube d={d}: {len(pairs)} = d! cells partition the unit cube")


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_criterion_8_oracle_agreement(d, n):
    cover = build_cover(d, n)
    simplices = [el.simplex for el in cover.elements]
    agreements = 0
    for x in random_samples(d, n, cover.delta, count=1000, seed=80 * d + n):
        res = witness(x, d, n, cover)
        # the oracle runs once per (point, element); the hits are read off it
        oracle = [contains_oracle(simplex, x) for simplex in simplices]
        hits = [el for el, inside in zip(cover.elements, oracle) if inside]
        assert res.element in hits, x
        for el, simplex, inside in zip(cover.elements, simplices, oracle):
            assert contains(simplex, x) == inside, (x, el.key)
        agreements += 1
    report_line(
        8, agreements == 1000, f"d={d} n={n}: witness in oracle hits for {agreements} samples"
    )


def test_criterion_9_determinism(tmp_path, capsys):
    paths = [tmp_path / "cover_a.jsonl", tmp_path / "cover_b.jsonl"]
    for path in paths:
        assert cli.main(["cover", "--d", "3", "--n", "2", "--out", str(path)]) == 0
    cover_ok = paths[0].read_bytes() == paths[1].read_bytes()

    argv = ["verify", "--d", "2", "--n", "3", "--mode", "random", "--samples", "2000", "--seed", "17"]
    runs = []
    for _ in range(2):
        code, report = run_verify_cli(capsys, argv)
        assert code == 0
        report.pop("elapsed_ms")  # wall-clock; everything else must match
        runs.append(report)
    verify_ok = runs[0] == runs[1]
    report_line(
        9,
        cover_ok and verify_ok,
        "cover output byte-identical; verify reports identical for equal seeds",
        capsys=capsys,
    )
