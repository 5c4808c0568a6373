import hashlib
import json
import sys
from dataclasses import replace

import pytest

from fractions import Fraction

from simplexcover import cli
from simplexcover.cover import build_cover, cover_count
from simplexcover.verifier import CoverageReport

# A literal one digit past the interpreter's int() digit limit (0 or absent:
# no limit, and the cases using it are skipped).
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (DIGIT_LIMIT + 1)


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


def test_witness_out_of_domain(capsys):
    code, out, err = run(capsys, "witness", "--d", "2", "--n", "2", "--point", "3,0")
    assert code == 1
    assert out == ""
    assert "outside" in err


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
    monkeypatch.setattr(cli, "coverage_report", lambda spec, samples: report)
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
    broken = replace(
        cover,
        elements=tuple(
            moved if el.key == key else el
            for el in cover.elements
            if el.key != ("base_a", (0, 0), (1, 2))
        ),
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


def test_render_rejects_bad_n(capsys):
    for argv in (["render", "--n", "0", "--out", "unused.svg"], ["verify", "--d", "2", "--n", "0"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "n must be at least 1, got 0" in capsys.readouterr().err
