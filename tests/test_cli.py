import argparse
import hashlib
import json
import math
import os
import re
import runpy
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from fractions import Fraction

from oracles import replace
from simplexcover import cli, locate, verifier
from simplexcover.arith import rat_format
from simplexcover.cover import (
    CoverElement,
    ExplicitCover,
    anchor_numerator,
    anchor_numerators,
    build_cover,
    cover_count,
    cover_groups,
    iter_cover,
)
from simplexcover.verifier import CoverageReport

# A literal one digit past the interpreter's int() digit limit (0 or absent:
# no limit, and the cases using it are skipped).
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (DIGIT_LIMIT + 1)
BENCHMARK_CONFIG = Path(__file__).resolve().parents[1] / "benchmarks" / "config.py"


@pytest.fixture(autouse=True)
def no_kept_cover():
    """Each test starts and ends without the cover ``witness`` and ``verify``
    keep, so a test that patches ``cli.build_cover`` reaches its patch."""
    cli._kept_cover.cache_clear()
    yield
    cli._kept_cover.cache_clear()


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_examples(capsys):
    code, out, _ = run(capsys, "count", "--d", "2", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["6", "top=1 base=5"]

    code, out, _ = run(capsys, "count", "--d", "3", "--n", "2")
    assert code == 0
    assert out.splitlines()[0] == "20"


def test_count_rejects_d1(tmp_path, capsys):
    for argv in (
        ["count", "--d", "1", "--n", "2"],
        ["cover", "--d", "1", "--n", "2", "--out", str(tmp_path / "unused.jsonl")],
        ["witness", "--d", "1", "--n", "2", "--point", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "d must be at least 2, got 1" in capsys.readouterr().err
    assert not (tmp_path / "unused.jsonl").exists()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int() digit limit")
@pytest.mark.parametrize("d,n", [(2000, 200), (30000000, 2)])
def test_count_past_the_digit_limit_exits_2(capsys, d, n):
    # about 4,606 and 14.3M digits: the first raised from print, the second was
    # still computing powers after 20 s
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--d", str(d), "--n", str(n)])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: simplexcover count [-h]")
    assert f"the cover size at d={d}, n={n} has more than {DIGIT_LIMIT} digits" in err


def test_count_prints_a_size_under_the_digit_limit(capsys):
    code, out, _ = run(capsys, "count", "--d", "1400", "--n", "1000")
    assert code == 0
    assert out.splitlines()[0] == str(1001**1400 + 999**1400 - 1000**1400)  # 4,201 digits


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int() digit limit")
def test_count_at_the_digit_limit_is_told_exactly(capsys):
    # 10^1000 + 8^1000 - 9^1000 has 1000 digits, and its log10 is within 1e-45
    # of 1000: floats alone cannot tell it from a size of 1001 digits
    try:
        sys.set_int_max_str_digits(1000)
        code, out, _ = run(capsys, "count", "--d", "1000", "--n", "9")
        assert code == 0
        assert out.splitlines()[0] == str(10**1000 + 8**1000 - 9**1000)
        sys.set_int_max_str_digits(999)
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--d", "1000", "--n", "9"])
        assert exc.value.code == 2
    finally:
        sys.set_int_max_str_digits(DIGIT_LIMIT)


def test_count_digit_bound_matches_the_exact_size():
    for d in range(2, 80):
        for n in (*range(1, 30), 99, 999, 10**6):
            digits = len(str(cover_count(d, n)))
            assert not cli._count_over(d, n, digits), (d, n)
            assert cli._count_over(d, n, digits - 1), (d, n)


def test_cover_writes_canonical_jsonl(tmp_path, capsys):
    out_path = tmp_path / "cover.jsonl"
    code, _, _ = run(capsys, "cover", "--d", "2", "--n", "1", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert list(first) == ["kind", "v", "pi", "anchor"]
    assert first["kind"] == "base_a"
    assert first["anchor"] == ["0", "0"]

    elements = [cli.parse_cover_record(line) for line in lines]
    assert elements == list(build_cover(2, 1).elements)


def test_cover_line_counts_and_kinds(tmp_path, capsys):
    out_path = tmp_path / "c22.jsonl"
    code, _, _ = run(capsys, "cover", "--d", "2", "--n", "2", "--out", str(out_path))
    assert code == 0
    records = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert len(records) == cover_count(2, 2) == 6
    assert sum(1 for r in records if r["kind"] == "top") == 1


def test_cover_streams_without_building_the_cover(tmp_path, capsys, monkeypatch):
    def refuse(d, n):
        raise AssertionError("cover must write elements as it makes them")

    monkeypatch.setattr(cli, "build_cover", refuse)
    out_path = tmp_path / "c33.jsonl"
    code, _, _ = run(capsys, "cover", "--d", "3", "--n", "3", "--out", str(out_path))
    assert code == 0
    # the digest benchmarks/config.py pins for cover-d3-n3.jsonl
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "2f7408a05b9a22755eed80b3ebfc5f66549eae533ab9575afe292a2addd0865f"
    )


@pytest.mark.parametrize("d,n", [(2, 1), (2, 5), (3, 3), (4, 2), (5, 2)])
def test_cover_lines_are_json_of_cover_record(tmp_path, capsys, d, n):
    out_path = tmp_path / "cover.jsonl"
    assert run(capsys, "cover", "--d", str(d), "--n", str(n), "--out", str(out_path))[0] == 0
    with open(out_path, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    elements = list(iter_cover(d, n))
    assert lines == [json.dumps(cli.cover_record(el)) + "\n" for el in elements]
    assert [cli.parse_cover_record(line) for line in lines] == elements


@pytest.mark.parametrize("d,n", [(6, 2), (4, 1)])
def test_cover_lines_match_cover_record_per_anchor_group(tmp_path, capsys, d, n):
    # (6, 2): anchors with up to 720 lines, base_a and base_b interleaved;
    # (4, 1): base anchors only, since n = 1 has no top part
    out_path = tmp_path / "cover.jsonl"
    assert run(capsys, "cover", "--d", str(d), "--n", str(n), "--out", str(out_path))[0] == 0
    with open(out_path, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    assert len(lines) == cover_count(d, n)
    assert lines == [json.dumps(cli.cover_record(el)) + "\n" for el in build_cover(d, n).elements]


@pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 8) for n in range(1, 4)])
def test_cover_lines_are_json_of_cover_record_up_to_d7(tmp_path, capsys, d, n):
    # n = 1 has no top part; at (7, 3) one base anchor has 630 lines in 300
    # runs of one kind, base_a and base_b alternating
    out_path = tmp_path / "cover.jsonl"
    assert run(capsys, "cover", "--d", str(d), "--n", str(n), "--out", str(out_path))[0] == 0
    with open(out_path, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    assert lines == [json.dumps(cli.cover_record(el)) + "\n" for el in iter_cover(d, n)]
    if d == 7 and n == 3:
        assert max(len(cli._runs(top, perms)[1]) for top, _, perms in cover_groups(d, n)) == 300


def test_cover_makes_no_element(tmp_path, capsys, monkeypatch):
    expected = [json.dumps(cli.cover_record(el)) + "\n" for el in iter_cover(4, 3)]

    def refuse(self):
        raise AssertionError("cover must write its lines from the integers")

    monkeypatch.setattr(CoverElement, "__post_init__", refuse)
    out_path = tmp_path / "c43.jsonl"
    assert run(capsys, "cover", "--d", "4", "--n", "3", "--out", str(out_path))[0] == 0
    with open(out_path, encoding="utf-8", newline="") as fh:
        assert fh.readlines() == expected


@pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 6) for n in range(1, 5)])
def test_cover_coordinate_texts_are_the_anchor_rule(d, n):
    # anchor_numerator is anchor_numerators one coordinate at a time, and the
    # writer's table holds the text of every coordinate v_j that occurs, no more
    table = cli._coordinate_texts(n)
    seen = {kind: set() for kind in table}
    for el in iter_cover(d, n):
        nums = anchor_numerators(el.kind, el.v, n)
        assert tuple(anchor_numerator(el.kind, v_j, n) for v_j in el.v) == nums
        assert el.anchor == tuple(Fraction(num, n + 2) for num in nums)
        texts = [json.dumps(rat_format(c)) for c in el.anchor]
        assert [table[el.kind][v_j] for v_j in el.v] == texts
        seen[el.kind].update(el.v)
    assert {kind: len(texts) for kind, texts in table.items()} == {
        "top": n - 1,
        "base_a": n + 1,
        "base_b": n + 1,
    }
    assert seen == {kind: set(range(len(texts))) for kind, texts in table.items()}


def test_cover_matches_the_benchmark_pinned_digest(tmp_path, capsys):
    # the benchmark's own size: two-digit numerators and anchors in lowest terms
    pinned = runpy.run_path(str(BENCHMARK_CONFIG))["DIGESTS"]["cover-d5-n10.jsonl"]
    out_path = tmp_path / "cover-d5-n10.jsonl"
    assert run(capsys, "cover", "--d", "5", "--n", "10", "--out", str(out_path))[0] == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == pinned


@pytest.mark.parametrize("n", [100, 4])
def test_render_matches_the_benchmark_pinned_digest(tmp_path, capsys, n):
    # the benchmark's full and tiny figures, sheared and labelled
    pinned = runpy.run_path(str(BENCHMARK_CONFIG))["DIGESTS"][f"render-n{n}.svg"]
    out_path = tmp_path / f"render-n{n}.svg"
    argv = ["render", "--n", str(n), "--out", str(out_path), "--equilateral", "--labels"]
    assert run(capsys, *argv)[0] == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == pinned


def rec(body):
    """A cover record line with kind base_a and the given other fields."""
    return '{"kind": "base_a", ' + body + "}"


@pytest.mark.parametrize(
    "field,line",
    [
        pytest.param("v", rec('"v": [1.7, 0], "pi": [1, 2], "anchor": ["0", "0"]'), id="v-float"),
        pytest.param("v", rec('"v": [true, 0], "pi": [1, 2], "anchor": ["0", "0"]'), id="v-bool"),
        pytest.param("pi", rec('"v": [0, 0], "pi": ["1", 2], "anchor": ["0", "0"]'), id="pi-str"),
        pytest.param(
            "pi", rec('"v": [0, 0, 0], "pi": [7, 7, 7], "anchor": ["0", "0", "0"]'), id="pi-repeat"
        ),
        pytest.param(
            "pi", rec('"v": [0, 0, 0], "pi": [1, 2], "anchor": ["0", "0", "0"]'), id="pi-short"
        ),
        pytest.param("anchor", rec('"v": [0, 0], "pi": [1, 2], "anchor": ["0"]'), id="anchor-short"),
        pytest.param("anchor", rec('"v": [0, 0], "pi": [1, 2], "anchor": "00"'), id="anchor-str"),
        pytest.param("anchor", rec('"v": [0, 0], "pi": [1, 2], "anchor": [0, 0]'), id="anchor-int"),
        pytest.param(
            "anchor",
            rec('"v": [0, 0], "pi": [1, 2], "anchor": ["\\u0661/\\u0662", "0"]'),
            id="anchor-arabic-indic",
        ),
        pytest.param(
            "anchor",
            rec(f'"v": [0, 0], "pi": [1, 2], "anchor": ["{LONG}", "0"]'),
            id="anchor-over-digit-limit",
            marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no int() digit limit"),
        ),
        pytest.param("v", rec('"v": [], "pi": [], "anchor": []'), id="v-d0"),
        pytest.param("v", rec('"v": [0], "pi": [1], "anchor": ["0"]'), id="v-d1"),
        pytest.param("kind", "[]", id="not-an-object"),
        pytest.param("anchor", rec('"v": [0, 0], "pi": [1, 2]'), id="anchor-missing"),
        pytest.param("v", rec('"pi": [1, 2], "anchor": ["0", "0"]'), id="v-missing"),
        pytest.param(
            "kind", '{"v": [0, 0], "pi": [1, 2], "anchor": ["0", "0"]}', id="kind-missing"
        ),
        pytest.param(
            "kind",
            '{"kind": "diag", "v": [0, 0], "pi": [1, 2], "anchor": ["0", "0"]}',
            id="kind-unknown",
        ),
    ],
)
def test_parse_cover_record_rejects_malformed(field, line):
    with pytest.raises(ValueError, match=f"field '{field}'"):
        cli.parse_cover_record(line)


def test_cover_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(capsys, "cover", "--d", "3", "--n", "2", "--out", str(a))[0] == 0
    assert run(capsys, "cover", "--d", "3", "--n", "2", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_cover_unwritable_path(tmp_path, capsys):
    code, _, err = run(capsys, "cover", "--d", "2", "--n", "1", "--out", str(tmp_path))
    assert code == 1
    assert "cannot write" in err


def test_render_unwritable_path(tmp_path, capsys):
    code, _, err = run(capsys, "render", "--n", "1", "--out", str(tmp_path))
    assert code == 1
    assert f"error: cannot write {tmp_path}: " in err


def test_cover_replaces_an_existing_file(tmp_path, capsys):
    """A regular file at --out is replaced by a new one, not truncated: a hard
    link to the old file keeps the old bytes."""
    fresh, out, link = tmp_path / "fresh.jsonl", tmp_path / "out.jsonl", tmp_path / "link"
    assert run(capsys, "cover", "--d", "2", "--n", "2", "--out", str(fresh))[0] == 0
    out.write_text("stale\n" * 1000)
    link.hardlink_to(out)
    assert run(capsys, "cover", "--d", "2", "--n", "2", "--out", str(out))[0] == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert link.read_text() == "stale\n" * 1000


def test_render_writes_through_a_symlink(tmp_path, capsys):
    target, out = tmp_path / "target.svg", tmp_path / "fig.svg"
    target.write_text("stale")
    out.symlink_to(target)
    assert run(capsys, "render", "--n", "1", "--out", str(out))[0] == 0
    assert out.is_symlink()
    assert target.read_text(encoding="utf-8").startswith("<svg ")


def test_witness_examples(capsys):
    code, out, _ = run(capsys, "witness", "--d", "2", "--n", "2", "--point", "9/8,9/8")
    assert code == 0
    obj = json.loads(out)
    assert obj["route"] == "base_b"
    assert obj["element"]["anchor"] == ["1", "1/4"]
    assert obj["w"] == ["3/8", "9/8"]

    code, out, _ = run(capsys, "witness", "--d", "2", "--n", "2", "--point", "9/4,9/4")
    assert code == 0
    assert json.loads(out)["route"] == "top"


def test_values_starting_with_minus_are_passed_with_equals(capsys):
    # argparse reads "--point -0,0" as a missing value followed by an option
    code, out, _ = run(capsys, "witness", "--d", "2", "--n", "1", "--point=-0,0")
    assert code == 0
    assert json.loads(out)["element"]["anchor"] == ["0", "0"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--d", "2", "--n", "1", "--eps=-1/9"])
    assert exc.value.code == 2
    assert "eps must be nonnegative" in capsys.readouterr().err


def test_witness_out_of_domain(capsys):
    code, out, err = run(capsys, "witness", "--d", "2", "--n", "2", "--point", "3,0")
    assert code == 1
    assert out == ""
    assert err == "error: point 3,0 is outside the target simplex\n"


def test_witness_parse_errors_exit_2(capsys):
    long_point = (f"{LONG}/{LONG},0",) if DIGIT_LIMIT else ()
    for point in ("1/2", "a,b", "1/2,1/2,1/2", *long_point):
        with pytest.raises(SystemExit) as exc:
            cli.main(["witness", "--d", "2", "--n", "2", "--point", point])
        assert exc.value.code == 2


def test_verify_lattice_success(capsys):
    code, out, err = run(
        capsys, "verify", "--d", "2", "--n", "2", "--mode", "lattice", "--q", "4"
    )
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["covered"] == report["total"] > 0
    assert report["routes"]["fallback"] == 0
    assert report["failures"] == []


def test_verify_all_modes_and_eps(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--d", "2", "--n", "1",
        "--mode", "all", "--q", "2", "--samples", "200", "--seed", "11",
        "--eps", "1/6",
    )
    assert code == 0
    report = json.loads(out)
    assert report["covered"] == report["total"]


def test_verify_eps_above_delta_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--d", "2", "--n", "2", "--eps", "1/2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "extra",
    [
        ["--q", "0"],
        ["--samples", "0"],
        ["--eps=-1/8"],
        ["--eps", "x"],
        ["--mode", "lattice", "--samples", "0"],
        ["--mode", "random", "--q", "0"],
        ["--mode", "boundary", "--eps=-1/8"],
    ],
    ids=" ".join,
)
def test_verify_bad_plan_exits_2(capsys, monkeypatch, extra):
    def refuse(d, n):
        raise AssertionError("a bad plan must be rejected before the cover is built")

    monkeypatch.setattr(cli, "build_cover", refuse)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--d", "2", "--n", "2", *extra])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,mode,rows",
    [
        # the lattice of step delta/q holds C(floor((n+delta) q(n+2)) + d, d) rows
        ("--d 8 --n 40", "lattice", math.comb(40 * 84 + 2 + 8, 8)),
        ("--d 8 --n 40 --mode lattice --q 100", "lattice", math.comb(40 * 4200 + 100 + 8, 8)),
        ("--d 5 --n 2 --samples 10000000000000000000000", "random", 10**22),
    ],
)
def test_verify_refuses_a_stream_past_sys_maxsize(capsys, argv, mode, rows):
    # len() of such a stream raised OverflowError from inside tally
    assert rows > sys.maxsize
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", *argv.split()])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: simplexcover verify [-h]")
    assert f"the {mode} stream holds {rows} rows, more than a campaign can index" in err


def test_verify_runs_a_short_stream_beside_one_past_sys_maxsize(capsys):
    # every stream is made whatever the mode; only the chosen ones must fit
    code, out, _ = run(capsys, "verify", "--d", "8", "--n", "40", "--mode", "random", "--samples", "20")
    assert code == 0
    assert json.loads(out)["total"] == 20


def test_verify_deterministic_modulo_elapsed(capsys):
    argv = ["verify", "--d", "3", "--n", "2", "--mode", "random", "--samples", "500", "--seed", "3"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("elapsed_ms")
    r2.pop("elapsed_ms")
    assert r1 == r2


def test_verify_route_split_pinned(capsys):
    code, out, _ = run(
        capsys, "verify", "--d", "4", "--n", "2", "--mode", "all",
        "--q", "2", "--samples", "500", "--seed", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["total"] == report["covered"] == 7832
    assert report["routes"] == {"top": 514, "base_a": 5342, "base_b": 1976, "fallback": 0}


def test_verify_benchmark_campaign_pinned(capsys):
    # the call the benchmark's campaign workload times
    code, out, _ = run(
        capsys, "verify", "--d", "5", "--n", "2", "--mode", "all",
        "--q", "2", "--samples", "2000", "--seed", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["total"] == report["covered"] == 35668
    assert report["routes"] == {"top": 1328, "base_a": 26059, "base_b": 8281, "fallback": 0}


@pytest.mark.parametrize(
    "argv,report",
    [
        (
            "--d 3 --n 4 --mode lattice --q 4",
            {"total": 176851, "covered": 176851, "failures": [],
             "routes": {"top": 67525, "base_a": 57111, "base_b": 52215, "fallback": 0}},
        ),
        (
            "--d 5 --n 2 --mode lattice --q 3 --eps 0",
            {"total": 118755, "covered": 118755, "failures": [],
             "routes": {"top": 2002, "base_a": 87872, "base_b": 28881, "fallback": 0}},
        ),
    ],
)
def test_verify_long_lattice_runs_pinned(capsys, argv, report):
    # Reports pinned when each lattice row was routed alone.  These runs
    # cross the seam and every v_d block above it.
    code, out, _ = run(capsys, "verify", *argv.split())
    assert code == 0
    got = json.loads(out)
    got.pop("elapsed_ms")
    assert got == report


# Runs the CLI with tally forced to 2 workers, and counts the workers forked
# in the file named by its first argument.  A line waits in the block buffer
# of stdout (a pipe, with PYTHONUNBUFFERED unset) when the workers fork.
TWO_WORKERS = """
import sys
from simplexcover import cli, verifier
verifier._jobs = lambda: 2
fork = verifier._fork

def counted(children):
    pipe = fork(children)
    if pipe is None:
        with open(sys.argv[1], "a") as fh:
            fh.write("forked\\n")
    return pipe

verifier._fork = counted
print("started")
sys.exit(cli.main(sys.argv[2:]))
"""


def test_verify_with_two_workers_prints_one_report(tmp_path):
    # A worker that flushed the caller's stdio at its exit would print the
    # pending line, or the report, twice.
    forks = tmp_path / "forks"
    argv = ["verify", "--d", "5", "--n", "2", "--mode", "all", "--q", "2", "--samples", "2000"]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-c", TWO_WORKERS, str(forks), *argv, "--seed", "1"],
        env={**env, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    started, line = proc.stdout.splitlines()
    assert started == "started"
    report = json.loads(line)
    assert report["total"] == report["covered"] == 35668
    assert report["routes"] == {"top": 1328, "base_a": 26059, "base_b": 8281, "fallback": 0}
    assert forks.read_text() == "forked\n"


def test_verify_sliver_violation_exits_1(capsys, monkeypatch):
    sliver = (Fraction(1, 3), Fraction(1, 3))
    report = CoverageReport(
        total=1,
        covered=1,
        routes={"top": 0, "base_a": 0, "base_b": 1, "fallback": 0},
        failures=(),
        elapsed_ms=0,
        sliver_violations=(sliver,),
    )
    monkeypatch.setattr(verifier, "tally", lambda spec, samples: report)
    code, out, err = run(capsys, "verify", "--d", "2", "--n", "1", "--mode", "boundary")
    assert code == 1
    assert out == json.dumps(report.to_json()) + "\n"
    assert err == "sliver violations: 1/3,1/3\n"


def test_verify_names_fallback_reasons(capsys, monkeypatch):
    # (2, 1) without its base_a element at the origin and with the base_b
    # anchor lowered by 1/3: stdout keeps the wire schema, stderr says why.
    cover = build_cover(2, 1)
    key = ("base_b", (1, 0), (2, 1))
    moved = replace(cover.element_index[key], anchor=(Fraction(1), Fraction(0)))
    dropped = ("base_a", (0, 0), (1, 2))
    broken = ExplicitCover(
        2, 1, (moved if el.key == key else el for el in cover.elements if el.key != dropped)
    )
    monkeypatch.setattr(cli, "build_cover", lambda d, n: broken)
    code, out, err = run(capsys, "verify", "--d", "2", "--n", "1", "--mode", "lattice", "--q", "2")
    assert code == 1
    report = json.loads(out)
    assert list(report) == ["total", "covered", "routes", "failures", "elapsed_ms"]
    assert report["routes"] == {"top": 0, "base_a": 9, "base_b": 0, "fallback": 15}
    assert "fallback witnesses: 15 (anchor 5, missing 10)" in err.splitlines()


def test_render_cli(tmp_path, capsys):
    out_path = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "render", "--n", "1", "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text(encoding="utf-8")
    assert svg.count("<polygon") == 3 + 1  # elements + target outline
    assert svg.startswith("<svg ")


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--d", "1", "--n", "2"],
        ["render", "--n", "0", "--out", "fig.svg"],
        ["witness", "--d", "2", "--n", "1", "--point", "1,2,3"],
        ["verify", "--d", "2", "--n", "1", "--eps=-1/9"],
        ["verify", "--d", "2", "--n", "1", "--q", "0"],
    ],
    ids=" ".join,
)
def test_usage_errors_name_their_subcommand(tmp_path, capsys, monkeypatch, argv):
    # errors found after parsing print the subcommand's usage, as argparse's own do
    monkeypatch.chdir(tmp_path)
    command = argv[0]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: simplexcover {command} [-h]")
    assert f"\nsimplexcover {command}: error: " in err
    assert list(tmp_path.iterdir()) == []


def test_render_rejects_bad_n(capsys):
    for argv in (["render", "--n", "0", "--out", "unused.svg"], ["verify", "--d", "2", "--n", "0"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "n must be at least 1, got 0" in capsys.readouterr().err


# Argument lists that reach every part of argparse's parse: the top level
# (nothing, help, an unknown command, "--"), each subcommand's help, its errors
# (missing, mistyped and unknown values, an abbreviated option, an extra
# argument) and the checks after parsing.  Help text differs between Python
# versions, so it is compared with the full parser's on this interpreter, not
# pinned.
CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["cnt", "--d", "2", "--n", "1"],
    ["--", "count", "--d", "2", "--n", "1"],
    *([command, "--help"] for command in ("count", "cover", "witness", "verify", "render")),
    ["count", "--d", "2", "--n", "1", "-h"],
    ["verify", "--d", "2", "--n", "1", "--mode", "lattice", "-h"],
    ["count", "--d", "2"],
    ["cover", "--d", "2", "--n", "1"],
    ["count", "--d", "x", "--n", "1"],
    ["witness", "--d", "1", "--n", "1", "--point", "0"],
    ["verify", "--d", "2", "--n", "1", "--mode", "foo"],
    ["verify", "--d", "2", "--n", "1", "--q", "0"],
    ["verify", "--d", "2", "--n", "1", "--eps=-1/9"],
    ["witness", "--d", "2", "--n", "1", "--point", "-0,0"],
    ["witness", "--d", "2", "--n", "2", "--poi", "9/8,9/8"],
    ["count", "--d", "3", "--n", "2", "extra"],
    ["render", "--n", "0", "--out", "fig.svg"],
    ["count", "--d", "3", "--n", "2"],
    ["cover", "--d", "2", "--n", "1", "--out", "cover.jsonl"],
    ["witness", "--d", "2", "--n", "2", "--point", "9/8,9/8"],
    ["render", "--n", "1", "--out", "fig.svg"],
    # "--" before, between and after the arguments, and a command name after it
    ["count", "--", "--d", "2", "--n", "1"],
    ["count", "--d", "2", "--n", "1", "--"],
    ["count", "--d", "2", "--", "--n", "1"],
    ["count", "--d", "2", "--n", "1", "--", "--"],
    ["count", "--", "count"],
    # arguments left over, help before one, "=" joined values
    ["witness", "--d", "2", "--n", "2", "--point", "9/8,9/8", "x", "y"],
    ["count", "-h", "extra"],
    ["count", "extra", "--d", "2", "--n", "1"],
    ["count", "--d=2", "--n=1"],
    # a repeated option, unknown and missing values
    ["count", "--d", "2", "--d", "3", "--n", "1"],
    ["count", "-d", "2"],
    ["count", "--x"],
    ["count", "--d", "2", "--n", "1", "-x"],
    ["witness", "--d", "2", "--n", "2", "--point"],
    ["render", "--n", "1", "--out"],
    # an abbreviation that is one option, one that is two, and "--" after options
    ["verify", "--d", "2", "--n", "1", "--m", "boundary"],
    ["verify", "--d", "2", "--n", "1", "--mode", "boundary", "--s", "3"],
    ["verify", "--d", "2", "--n", "1", "--mode", "boundary", "--", "x"],
]


def outcome(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    # a verify report's time is the one part of an outcome that may differ
    return code, re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', captured.out), captured.err


def test_each_call_prints_what_the_full_parser_prints(tmp_path, capsys, monkeypatch):
    # main parses a call that names its subcommand with that subcommand's parser
    # alone; the reference is main parsing every call with the full parser.  The
    # corpus runs twice, in two orders, so a call that left state behind would show
    monkeypatch.chdir(tmp_path)
    with monkeypatch.context() as m:
        m.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
        expected = [outcome(capsys, argv) for argv in CORPUS]
    for order in (range(len(CORPUS)), reversed(range(len(CORPUS)))):
        for k in order:
            assert outcome(capsys, CORPUS[k]) == expected[k], CORPUS[k]


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--d", "2", "--n", "2", "--point", "9/8,9/8"],
        ["verify", "--d", "2", "--n", "1", "--mode", "lattice", "--q", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_call_adds_arguments_to_its_own_subcommand_only(capsys, monkeypatch, argv):
    # a subcommand's parser is filled on its first call and kept for later ones
    filled = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(parser, *args, **kwargs):
        if args != ("-h", "--help"):
            filled.append((parser.prog, args))
        return add_argument(parser, *args, **kwargs)

    cli._subparser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    assert cli.main(argv) == 0
    once = list(filled)
    assert {prog for prog, _ in once} == {f"simplexcover {argv[0]}"}
    assert len(set(once)) == len(once)
    assert cli.main(argv) == 0
    assert filled == once
    filled.clear()
    cli.build_parser()
    assert {prog for prog, _ in filled} == {f"simplexcover {command}" for command in cli._COMMANDS}


def spy_on_parsers(monkeypatch):
    """The prog of each ArgumentParser made from now on, in order."""
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(parser, *args, **kwargs):
        init(parser, *args, **kwargs)
        built.append(parser.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    return built


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--d", "3", "--n", "2"],
        ["cover", "--d", "2", "--n", "1", "--out", "cover.jsonl"],
        ["witness", "--d", "2", "--n", "2", "--point", "9/8,9/8"],
        ["verify", "--d", "2", "--n", "1", "--mode", "lattice", "--q", "1"],
        ["render", "--n", "1", "--out", "fig.svg"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_call_builds_its_own_subcommand_parser_only(tmp_path, capsys, monkeypatch, argv):
    # the first call builds its subcommand's parser, and a second call reuses it
    monkeypatch.chdir(tmp_path)
    cli._subparser.cache_clear()
    built = spy_on_parsers(monkeypatch)
    assert cli.main(argv) == 0
    assert cli.main(argv) == 0
    assert built == [f"simplexcover {argv[0]}"]


def test_a_call_gets_a_namespace_of_its_own():
    # a kept parser hands each call a new Namespace, so what one call does to
    # its arguments does not reach the next call's
    argv = ["verify", "--d", "2", "--n", "1", "--mode", "lattice"]
    first = cli._parse(argv)
    first.d, first.q, first.eps, first.mode = 99, 7, "1/9", "random"
    del first.seed
    second = cli._parse(argv)
    assert second is not first
    assert second.parser is first.parser
    assert vars(second) == {
        "d": 2,
        "n": 1,
        "eps": None,
        "mode": "lattice",
        "q": 2,
        "samples": 10_000,
        "seed": 0,
        "func": cli._cmd_verify,
        "parser": cli._subparser("verify"),
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--d", "3", "--n", "2", "extra"],
        ["cnt", "--d", "3", "--n", "2"],
        ["--", "count", "--d", "3", "--n", "2"],
        ["-h"],
    ],
    ids=["leftover", "typo", "double-dash", "help"],
)
def test_other_calls_reach_the_full_parser(capsys, monkeypatch, argv):
    built = spy_on_parsers(monkeypatch)
    outcome(capsys, argv)
    full = ["simplexcover", *(f"simplexcover {command}" for command in cli._COMMANDS)]
    assert built[-len(full) :] == full


# --- the cover that witness and verify keep --------------------------------

KEPT_POINTS = {
    # the last lands in the first one's cell, over another denominator
    (5, 4): [
        "7/2,3,2,1,1/3", "4,3,2,1,0", "1/2,1/3,1/4,1/5,1/6", "3,3,3,3,3", "25/6,0,0,0,0",
        "7/2,3,2,1,1/4",
    ],
    (3, 2): ["9/8,9/8,1/8", "9/4,9/4,9/4", "2,1,0"],
}


def witness_argv(d, n, point):
    return ["witness", "--d", str(d), "--n", str(n), "--point", point]


def fresh_process(argv):
    """Exit code, stdout and stderr bytes of ``simplexcover ARGV`` run in a new
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "simplexcover.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        capture_output=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def in_process(capsys, argv):
    code, out, err = run(capsys, *argv)
    return code, out.encode(), err.encode()


def test_repeated_witness_calls_check_each_key_once(capsys, monkeypatch):
    calls = []
    check_key = locate._check_key

    def counted(cover, key):
        calls.append(key)
        return check_key(cover, key)

    monkeypatch.setattr(locate, "_check_key", counted)
    routed = set()
    for _ in range(3):
        for point in KEPT_POINTS[5, 4]:
            code, out, _ = run(capsys, *witness_argv(5, 4, point))
            assert code == 0
            element = json.loads(out)["element"]
            routed.add((element["kind"], tuple(element["v"]), tuple(element["pi"])))
    assert len(calls) == len(set(calls)) == len(routed) > 1
    assert set(calls) == routed


def test_a_call_at_another_dn_releases_the_kept_cover(capsys):
    assert run(capsys, *witness_argv(5, 4, KEPT_POINTS[5, 4][0]))[0] == 0
    kept = cli._kept_cover(5, 4)
    assert len(kept._checks) == 1  # the call's check is kept on the cover
    released = weakref.ref(kept)
    del kept
    assert run(capsys, *witness_argv(3, 2, KEPT_POINTS[3, 2][0]))[0] == 0
    assert released() is None
    kept = cli._kept_cover(3, 2)
    released = weakref.ref(kept)
    del kept
    assert run(capsys, "verify", "--d", "2", "--n", "2", "--mode", "boundary")[0] == 0
    assert released() is None


def test_a_certificate_run_keeps_at_most_one_check_per_element(capsys, monkeypatch):
    # The caller routes every row, so every key routed to is checked here.
    monkeypatch.setattr(verifier, "_jobs", lambda: 1)
    code, out, _ = run(capsys, "verify", "--d", "3", "--n", "2", "--mode", "lattice", "--q", "4")
    assert code == 0 and json.loads(out)["routes"]["fallback"] == 0
    checks = cli._kept_cover(3, 2)._checks
    assert 0 < len(checks) <= cover_count(3, 2)
    assert all(check[0] is not None for check in checks.values())


def test_kept_cover_witness_prints_what_a_fresh_process_prints(capsys):
    # a first call, a repeat, its cell over another L, other points, a (d, n)
    # switch and back
    p, q = KEPT_POINTS[5, 4], KEPT_POINTS[3, 2]
    calls = [(5, 4, p[0]), (5, 4, p[0]), (5, 4, p[5]), (5, 4, p[1]), (3, 2, q[0]), (3, 2, q[1])]
    for d, n, point in [*calls, (5, 4, p[0]), (5, 4, p[2])]:
        argv = witness_argv(d, n, point)
        assert in_process(capsys, argv) == fresh_process(argv), argv


def test_kept_cover_answers_inside_after_outside(capsys):
    outside, inside = witness_argv(5, 4, "5,0,0,0,0"), witness_argv(5, 4, KEPT_POINTS[5, 4][4])
    first = in_process(capsys, outside)
    assert first[0] == 1 and first[1] == b""
    assert first == fresh_process(outside)
    second = in_process(capsys, inside)
    assert second[0] == 0
    assert second == fresh_process(inside)


def test_kept_cover_verify_reports_what_a_fresh_process_reports(capsys):
    argv = ["verify", "--d", "3", "--n", "2", "--mode", "all", "--q", "2"]
    argv += ["--samples", "500", "--seed", "3"]

    def timeless(result):
        code, out, err = result
        return code, re.sub(rb'"elapsed_ms": \d+', b'"elapsed_ms": 0', out), err

    expected = timeless(fresh_process(argv))
    assert expected[0] == 0 and b'"elapsed_ms": 0' in expected[1]
    for _ in range(2):
        assert timeless(in_process(capsys, argv)) == expected
