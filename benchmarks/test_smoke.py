"""Smoke test of the benchmark at tiny sizes (about a minute on two cores).

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH_DIR))
import config  # noqa: E402
import worker  # noqa: E402


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [str(root / "benchmarks" / "run.py"), "--workload", workload, "--seed", "3"]
    argv += ["--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(
        [sys.executable, *argv], cwd=root, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emitted_metrics_match_benchmark_json(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        if not trace:
            assert value > 0, m["name"]


@pytest.mark.parametrize("name", ["cover-d3-n3.jsonl", "render-n4.svg"])
def test_wrong_digest_raises_failed_ratio(monkeypatch, name):
    outcome = worker.Outcome()
    worker.run_export(config.SIZES["tiny"]["export"], 3, 0, outcome)
    assert outcome.failed_ratio == 0, outcome.failures

    monkeypatch.setitem(config.DIGESTS, name, "0" * 64)
    outcome = worker.Outcome()
    worker.run_export(config.SIZES["tiny"]["export"], 3, 0, outcome)
    assert outcome.failed_ratio > 0
    assert any(name in failure for failure in outcome.failures)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
