"""The benchmark's workloads, run in one fresh interpreter and one thread.

    python3 benchmarks/worker.py --workload campaign --seed 1 --seconds 20 --trace 0

``run.py`` starts this once per benchmark run and reads the JSON object it
prints last: ``attempted``, ``failed``, ``failures``, ``metrics`` and ``base``
(the counts every ratio is taken over).  The package is driven only through
its public functions.

With ``--trace 0`` each workload repeats its unit of work through ``cli.main``
until ``--seconds`` have passed and reports end-to-end figures.  With
``--trace 1`` it runs the same inputs through the layers' public functions,
once with a span around each call and once before and after with a null
tracer, and reports per-layer figures plus the overhead of tracing.  Times
are in reference seconds (see refspeed.py).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from itertools import islice
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

import config  # noqa: E402
from refspeed import RefClock  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

import simplexcover  # noqa: E402
from simplexcover import (  # noqa: E402
    CoverElement,
    KuhnSimplex,
    boundary_suite,
    build_cover,
    contains,
    contains_oracle,
    coverage_report,
    cover_count,
    delta,
    enumerate_base_slab,
    enumerate_simplex_triangulation,
    lattice_samples,
    point_format,
    point_parse,
    random_samples,
    rat_parse,
    witness,
)
from simplexcover import cli  # noqa: E402
from simplexcover.render import render_svg  # noqa: E402

if not Path(simplexcover.__file__).resolve().is_relative_to(SRC_DIR):
    raise ImportError(f"simplexcover was imported from {simplexcover.__file__}, not {SRC_DIR}")

WORKLOADS = ("campaign", "queries", "export")
CHUNK = 4096  # elements per traced cover_record/json/write span in export
MAX_FAILURES_KEPT = 20


class Outcome:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append(f"{label}: {'; '.join(problems)}")

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``simplexcover <argv>`` in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def exit_problems(rc: int, err: str) -> list[str]:
    return [] if rc == 0 else [f"exit {rc}: {err.strip()[:200]}"]


def file_digest(path: Path) -> tuple[str, int]:
    """SHA-256 and newline count of a file; ("", 0) when it is missing."""
    if not path.is_file():
        return "", 0
    sha = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            sha.update(block)
            lines += block.count(b"\n")
    return sha.hexdigest(), lines


def digest_problems(path: Path, expected_lines: int | None = None) -> list[str]:
    digest, lines = file_digest(path)
    problems = []
    if expected_lines is not None and lines != expected_lines:
        problems.append(f"{path.name} has {lines} lines, expected {expected_lines}")
    if digest != config.DIGESTS[path.name]:
        problems.append(f"{path.name} sha256 {digest} does not match the pinned digest")
    return problems


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def count_cells(d: int, n: int) -> int:
    """Consume the two enumerations build_cover(d, n) draws its cells from."""
    cells = sum(1 for _ in enumerate_base_slab(d, n + 1))
    if n >= 2:
        cells += sum(1 for _ in enumerate_simplex_triangulation(d, n - 1))
    return cells


# --- campaign -------------------------------------------------------------


def campaign_argv(sz: dict, seed: int) -> list[str]:
    argv = ["verify", "--d", str(sz["d"]), "--n", str(sz["n"]), "--mode", "all"]
    return argv + ["--q", str(sz["q"]), "--samples", str(sz["samples"]), "--seed", str(seed)]


def campaign_streams(sz: dict, seed: int) -> dict:
    """The three sample streams of `verify --mode all`, as zero-argument factories."""
    d, n, dl = sz["d"], sz["n"], delta(sz["n"])
    return {
        "lattice": lambda: lattice_samples(d, n, dl, sz["q"]),
        "random": lambda: random_samples(d, n, dl, sz["samples"], seed),
        "boundary": lambda: boundary_suite(d, n, dl),
    }


def campaign_expected_points(sz: dict) -> dict[str, int]:
    """Points per stream, counted independently of the samplers: the step-delta/q
    lattice of S^(n+delta) has q(n+1)^2 steps per axis, so C(q(n+1)^2 + d, d) points."""
    d, n, q = sz["d"], sz["n"], sz["q"]
    return {
        "lattice": math.comb(q * (n + 1) ** 2 + d, d),
        "random": sz["samples"],
        "boundary": len(boundary_suite(d, n, delta(n))),
    }


def report_problems(report: dict, expected_total: int) -> list[str]:
    problems = []
    if report.get("total") != expected_total:
        problems.append(f"total {report.get('total')} != expected {expected_total}")
    if report.get("covered") != report.get("total"):
        problems.append(f"covered {report.get('covered')} != total {report.get('total')}")
    if report.get("routes", {}).get("fallback", 0):
        problems.append(f"{report['routes']['fallback']} fallback witnesses")
    if report.get("failures"):
        problems.append(f"{len(report['failures'])} uncovered points")
    return problems


def run_campaign(sz: dict, seed: int, seconds: float, outcome: Outcome) -> tuple[dict, dict]:
    argv = campaign_argv(sz, seed)
    expected = campaign_expected_points(sz)
    total = sum(expected.values())
    rates, walls, first_routes = [], [], None
    clock = RefClock()
    deadline = time.perf_counter() + seconds
    while True:
        (rc, out, err), wall = clock.call(call_cli, argv)
        problems = exit_problems(rc, err)
        try:
            report = json.loads(out)
        except ValueError:
            report = {}
            problems.append("verify printed no JSON report")
        problems += report_problems(report, total)
        if first_routes is None:
            first_routes = report.get("routes")
        elif report.get("routes") != first_routes:
            problems.append("route counts differ from the first call")
        outcome.record("verify", problems)
        walls.append(wall)
        rates.append(total / wall)
        if time.perf_counter() >= deadline:
            break
    metrics = {
        "items_per_s": statistics.median(rates),
        "call_p50_ms": statistics.median(walls) * 1e3,
        "call_p90_ms": p90(walls) * 1e3,
    }
    base = {
        "calls": len(walls),
        "points_per_call": total,
        "points_by_stream": expected,
        "reference_loop_s": statistics.median(clock.loops),
    }
    return metrics, base


def pipeline_campaign(tr, sz: dict, seed: int, outcome: Outcome) -> dict:
    """What `verify` does, one public call at a time: build the cover and run
    coverage_report per stream; then witness and re-check every point alone."""
    d, n = sz["d"], sz["n"]
    streams = campaign_streams(sz, seed)
    with tr.counting(CoverElement):
        with tr.span("cover.build_cover", d=d, n=n):
            spec = build_cover(d, n)
        reports = {}
        for name, make in streams.items():
            with tr.span("verifier.coverage_report", stream=name) as attrs:
                reports[name] = coverage_report(spec, make())
            attrs["points"] = reports[name].total
    built = tr.elements_built
    expected = campaign_expected_points(sz)
    report_routes: Counter = Counter()
    slivers = 0
    for name, report in reports.items():
        problems = report_problems(report.to_json(), expected[name])
        # verify leaves sliver_violations out of its JSON and exit code; read it here.
        if report.sliver_violations:
            problems.append(f"{len(report.sliver_violations)} sliver violations")
        slivers += len(report.sliver_violations)
        report_routes.update(report.routes)
        outcome.record(f"coverage_report {name}", problems)

    _, cells = count_build(tr, d, n, sz["build_reps"])
    routes: Counter = Counter()
    for name, make in streams.items():
        for x in list(make()):
            with tr.span("witness.witness", stream=name) as attrs:
                result = witness(x, d, n, spec)
            attrs["route"] = result.route
            routes[result.route] += 1
            simplex = result.element.simplex
            with tr.span("simplex.contains"):
                inside = contains(simplex, x)
            problems = [] if inside else ["returned element does not contain the point"]
            if result.route == "fallback":
                problems.append("witness fell back to exhaustive search")
            outcome.record("witness", problems)
    disagree = +routes != +report_routes
    outcome.record("route agreement", [f"{routes} != {report_routes}"] if disagree else [])
    return {
        "d": d,
        "n": n,
        "cells": cells,
        "points": sum(expected.values()),
        "points_by_stream": expected,
        "elements_built": built,
        "routes": dict(routes),
        "sliver_violations": slivers,
    }


def campaign_layer_metrics(tr: Tracer, facts: dict) -> dict:
    metrics = build_metrics(tr, facts)
    points = facts["points"]
    metrics["cover.elements_built_per_query"] = facts["elements_built"] / points
    metrics.update(witness_metrics(tr, facts["routes"]))
    metrics["simplex.contains_us_per_call"] = tr.mean_us("simplex.contains")
    for name, count in facts["points_by_stream"].items():
        metrics[f"verifier.{name}_us_per_point"] = (
            tr.total_us("verifier.coverage_report", stream=name) / count
        )
    report_us = tr.total_us("verifier.coverage_report") / points
    metrics["verifier.report_overhead_us_per_point"] = report_us - tr.mean_us("witness.witness")
    metrics["verifier.sliver_violations"] = facts["sliver_violations"]
    return metrics


# --- queries --------------------------------------------------------------


def query_points(sz: dict, seed: int) -> list[str]:
    """Boundary-suite points (up to a quarter of the stream) and seeded random
    points, shuffled by the seed, formatted as the CLI's --point argument."""
    d, n, count, dl = sz["d"], sz["n"], sz["queries"], delta(sz["n"])
    boundary = boundary_suite(d, n, dl)[: count // 4]
    points = boundary + list(random_samples(d, n, dl, count - len(boundary), seed))
    random.Random(seed).shuffle(points)
    return [point_format(x) for x in points]


def witness_argv(sz: dict, point: str) -> list[str]:
    return ["witness", "--d", str(sz["d"]), "--n", str(sz["n"]), "--point", point]


def witness_output_problems(out: str, x: tuple, expected) -> list[str]:
    """Check one `witness` output against the library witness and the
    independent barycentric oracle."""
    try:
        obj = json.loads(out)
        record = obj["element"]
        simplex = KuhnSimplex(tuple(rat_parse(c) for c in record["anchor"]), tuple(record["pi"]))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed witness output: {exc}"]
    problems = []
    if obj.get("route") != expected.route:
        problems.append(f"route {obj.get('route')} != library {expected.route}")
    if record != cli.cover_record(expected.element):
        problems.append("element differs from the library witness")
    if not contains_oracle(simplex, x):
        problems.append("element does not contain the point (barycentric oracle)")
    return problems


def run_queries(sz: dict, seed: int, seconds: float, outcome: Outcome) -> tuple[dict, dict]:
    d, n = sz["d"], sz["n"]
    reference = build_cover(d, n)
    stream = []
    for point in query_points(sz, seed):
        x = point_parse(point, d)
        stream.append((point, x, witness(x, d, n, reference)))
    first_output: dict[str, str] = {}
    clock = RefClock()

    def query(point: str, x: tuple, expected) -> float:
        (rc, out, err), latency = clock.call(call_cli, witness_argv(sz, point))
        problems = exit_problems(rc, err)
        if point not in first_output:
            first_output[point] = out
            problems += witness_output_problems(out, x, expected)
        elif out != first_output[point]:
            problems.append("output is not byte-identical to the first call")
        outcome.record(f"witness {point}", problems)
        return latency

    query(*stream[0])  # untimed warm-up
    latencies = []
    rounds = 0
    deadline = time.perf_counter() + seconds
    while True:
        latencies += [query(*item) for item in stream]
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    metrics = {
        "items_per_s": len(latencies) / sum(latencies),
        "call_p50_ms": statistics.median(latencies) * 1e3,
        "call_p90_ms": p90(latencies) * 1e3,
    }
    base = {
        "queries": len(latencies),
        "distinct_points": len(stream),
        "rounds": rounds,
        "elements_per_cover": cover_count(d, n),
        "reference_loop_s": statistics.median(clock.loops),
    }
    return metrics, base


def pipeline_queries(tr, sz: dict, seed: int, outcome: Outcome) -> dict:
    """Each `witness` call through cli.main, then the same answer from its
    public steps (point_parse, witness, contains) against one shared cover."""
    d, n = sz["d"], sz["n"]
    points = query_points(sz, seed)
    call_cli(witness_argv(sz, points[0]))  # warm-up
    spec, cells = count_build(tr, d, n, sz["build_reps"])
    routes: Counter = Counter()
    for point in points:
        with tr.counting(CoverElement):
            with tr.span("cli.main", command="witness"):
                rc, out, err = call_cli(witness_argv(sz, point))
        with tr.span("cli.point_parse"):
            x = point_parse(point, d)
        with tr.span("witness.witness") as attrs:
            result = witness(x, d, n, spec)
        attrs["route"] = result.route
        routes[result.route] += 1
        simplex = result.element.simplex
        with tr.span("simplex.contains"):
            inside = contains(simplex, x)
        problems = exit_problems(rc, err) + witness_output_problems(out, x, result)
        if not inside:
            problems.append("returned element does not contain the point")
        outcome.record(f"witness {point}", problems)
    return {
        "d": d,
        "n": n,
        "cells": cells,
        "queries": len(points),
        "elements_built": tr.elements_built,
        "routes": dict(routes),
    }


def queries_layer_metrics(tr: Tracer, facts: dict) -> dict:
    metrics = build_metrics(tr, facts)
    metrics["cover.elements_built_per_query"] = facts["elements_built"] / facts["queries"]
    metrics.update(witness_metrics(tr, facts["routes"]))
    metrics["simplex.contains_us_per_call"] = tr.mean_us("simplex.contains")
    metrics["cli.point_parse_us"] = tr.mean_us("cli.point_parse")
    metrics["cli.witness_build_share"] = tr.median_us(
        "cover.build_cover", d=facts["d"], n=facts["n"]
    ) / tr.median_us("cli.main", command="witness")
    return metrics


# --- export ---------------------------------------------------------------


def export_paths(sz: dict, tag: str) -> tuple[Path, Path]:
    folder = OUT_DIR / tag
    folder.mkdir(parents=True, exist_ok=True)
    return folder / f"cover-d{sz['d']}-n{sz['n']}.jsonl", folder / f"render-n{sz['render_n']}.svg"


def run_export(sz: dict, seed: int, seconds: float, outcome: Outcome) -> tuple[dict, dict]:
    cover_path, svg_path = export_paths(sz, "export")
    cover_argv = ["cover", "--d", str(sz["d"]), "--n", str(sz["n"]), "--out", str(cover_path)]
    render_argv = ["render", "--n", str(sz["render_n"]), "--out", str(svg_path)]
    render_argv += ["--equilateral", "--labels"]
    lines = cover_count(sz["d"], sz["n"])
    rates, render_walls = [], []
    clock = RefClock()
    deadline = time.perf_counter() + seconds
    try:
        while True:
            (rc, _, err), wall = clock.call(call_cli, cover_argv)
            rates.append(lines / wall)
            outcome.record("cover", exit_problems(rc, err) + digest_problems(cover_path, lines))
            for _ in range(sz["renders"]):
                (rc, _, err), wall = clock.call(call_cli, render_argv)
                render_walls.append(wall)
                outcome.record("render", exit_problems(rc, err) + digest_problems(svg_path))
            if time.perf_counter() >= deadline:
                break
    finally:
        cover_path.unlink(missing_ok=True)
        svg_path.unlink(missing_ok=True)
    metrics = {
        "items_per_s": statistics.median(rates),
        "call_p50_ms": statistics.median(render_walls) * 1e3,
        "call_p90_ms": p90(render_walls) * 1e3,
    }
    base = {
        "cover_calls": len(rates),
        "elements_per_cover": lines,
        "render_calls": len(render_walls),
        "elements_per_render": cover_count(2, sz["render_n"]),
        "reference_loop_s": statistics.median(clock.loops),
    }
    return metrics, base


def pipeline_export(tr, sz: dict, seed: int, outcome: Outcome) -> dict:
    """What `cover` and `render` do, one public call at a time; the files
    written must match the same pinned digests as the CLI's."""
    d, n, render_n = sz["d"], sz["n"], sz["render_n"]
    cover_path, svg_path = export_paths(sz, "export-traced")
    try:
        with tr.span("triangulation.enumerate", d=d, n=n) as attrs:
            cells = count_cells(d, n)
        attrs["cells"] = cells
        with tr.counting(CoverElement):
            with tr.span("cover.build_cover", d=d, n=n):
                spec = build_cover(d, n)
            written = 0
            elements = iter(spec.elements)
            with open(cover_path, "w", encoding="utf-8") as fh:
                while chunk := list(islice(elements, CHUNK)):
                    with tr.span("cli.cover_record", elements=len(chunk)):
                        records = [cli.cover_record(el) for el in chunk]
                    with tr.span("cli.json"):
                        lines = [json.dumps(record) + "\n" for record in records]
                    with tr.span("cli.write"):
                        for line in lines:
                            fh.write(line)
                    written += len(chunk)
        built = tr.elements_built
        outcome.record("traced cover", digest_problems(cover_path, cover_count(d, n)))

        with tr.span("cover.build_cover", d=2, n=render_n):
            render_spec = build_cover(2, render_n)
        with tr.span("render.render_svg"):
            svg = render_svg(render_spec, equilateral=True, labels=True)
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        outcome.record("traced render", digest_problems(svg_path))
    finally:
        cover_path.unlink(missing_ok=True)
        svg_path.unlink(missing_ok=True)
    return {
        "d": d,
        "n": n,
        "cells": cells,
        "elements_written": written,
        "elements_built": built,
        "render_elements": cover_count(2, render_n),
    }


def export_layer_metrics(tr: Tracer, facts: dict) -> dict:
    metrics = build_metrics(tr, facts)
    written = facts["elements_written"]
    metrics["cover.elements_built_per_query"] = facts["elements_built"] / written
    for step in ("cover_record", "json", "write"):
        metrics[f"cli.{step}_us_per_element"] = tr.total_us(f"cli.{step}") / written
    metrics["render.us_per_element"] = tr.total_us("render.render_svg") / facts["render_elements"]
    return metrics


# --- shared layer metrics -------------------------------------------------


def count_build(tr, d: int, n: int, reps: int) -> tuple:
    """Time the triangulation enumeration and build_cover separately, ``reps``
    times; returns the last cover and the cell count."""
    for _ in range(reps):
        with tr.span("triangulation.enumerate", d=d, n=n) as attrs:
            cells = count_cells(d, n)
        attrs["cells"] = cells
        with tr.span("cover.build_cover", d=d, n=n):
            spec = build_cover(d, n)
    return spec, cells


def build_metrics(tr: Tracer, facts: dict) -> dict:
    d, n, cells = facts["d"], facts["n"], facts["cells"]
    elements = cover_count(d, n)
    enumerate_us = tr.median_us("triangulation.enumerate", d=d, n=n)
    build_us = tr.median_us("cover.build_cover", d=d, n=n)
    return {
        "triangulation.enumerate_us_per_cell": enumerate_us / cells,
        "triangulation.cells": cells,
        "cover.build_us_per_element": build_us / elements,
        "cover.build_self_us_per_element": (build_us - enumerate_us) / elements,
    }


def witness_metrics(tr: Tracer, routes: dict) -> dict:
    metrics = {"witness.us_per_point": tr.mean_us("witness.witness")}
    for route in ("top", "base_a", "base_b"):
        metrics[f"witness.{route}_us_per_point"] = tr.mean_us("witness.witness", route=route)
    for route in ("top", "base_a", "base_b", "fallback"):
        metrics[f"witness.route_{route}"] = routes.get(route, 0)
    return metrics


def build_peak_mb(d: int, n: int) -> float:
    """Peak traced Python allocation of build_cover(d, n), in MB."""
    tracemalloc.start()
    try:
        build_cover(d, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


# --- entry points ---------------------------------------------------------

END_TO_END = {"campaign": run_campaign, "queries": run_queries, "export": run_export}
PIPELINES = {
    "campaign": (pipeline_campaign, campaign_layer_metrics),
    "queries": (pipeline_queries, queries_layer_metrics),
    "export": (pipeline_export, export_layer_metrics),
}


def timed_pass(pipeline, tr, sz: dict, seed: int, outcome: Outcome) -> tuple[float, dict]:
    """One pass of a pipeline; returns its time in reference seconds and its
    facts, and sets the tracer's scale from wall to reference time."""
    t0 = time.perf_counter()
    facts, seconds = RefClock().call(pipeline, tr, sz, seed, outcome)
    tr.scale = seconds / (time.perf_counter() - t0)
    return seconds, facts


def run_traced(workload: str, size: str, seed: int, outcome: Outcome) -> tuple[dict, dict]:
    """Per-layer metrics of one workload, plus the layers it does not reach
    taken from tiny passes of the other workloads."""
    pipeline, layer_metrics = PIPELINES[workload]
    sz = config.SIZES[size][workload]
    # Untraced passes before and after the traced one, so that warm-up and
    # drift do not land on one side of the difference.
    before_s, _ = timed_pass(pipeline, NullTracer(), sz, seed, outcome)
    tracer = Tracer()
    traced_s, facts = timed_pass(pipeline, tracer, sz, seed, outcome)
    after_s, _ = timed_pass(pipeline, NullTracer(), sz, seed, outcome)
    untraced_s = (before_s + after_s) / 2
    metrics = layer_metrics(tracer, facts)
    metrics["cover.build_peak_mb"] = build_peak_mb(sz["d"], sz["n"])
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl", f"{workload}-{seed}")
    base = {"facts": facts, "untraced_s": untraced_s, "traced_s": traced_s}
    base["spans"] = len(tracer.spans)
    for other in WORKLOADS:
        if other == workload:
            continue
        other_pipeline, other_metrics = PIPELINES[other]
        probe = Tracer()
        tiny = config.SIZES["tiny"][other]
        _, probe_facts = timed_pass(other_pipeline, probe, tiny, seed, outcome)
        for name, value in other_metrics(probe, probe_facts).items():
            metrics.setdefault(name, value)
        base[f"tiny_{other}_facts"] = probe_facts
    return metrics, base


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(config.SIZES), default="full")
    args = parser.parse_args(argv)
    outcome = Outcome()
    if args.trace:
        metrics, base = run_traced(args.workload, args.size, args.seed, outcome)
    else:
        sz = config.SIZES[args.size][args.workload]
        metrics, base = END_TO_END[args.workload](sz, args.seed, args.seconds, outcome)
        # ru_maxrss is in KiB on Linux.
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    base["failed_ratio"] = outcome.failed_ratio
    print(
        json.dumps(
            {
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "failures": outcome.failures,
                "metrics": metrics,
                "base": base,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
