"""Run one workload of the simplexcover benchmark and print its result.

    python3 benchmarks/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end metrics
of BENCHMARK.json when ``--trace 0`` and its per-layer metrics when
``--trace 1``.  The line before it is the run record: environment, counts and
raw samples.  See benchmarks/README.md.

Every process this starts is waited for; a child still running at the time
limit is killed.  Exit codes: 0 correct, 1 some operation failed, 2 the
benchmark could not run (no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
TIME_LIMIT_S = 170


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def git_commit(root: Path) -> str:
    """HEAD of a git checkout, read from .git without running git; "unknown" elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(argv: list[str], deadline: float) -> str:
    """Run a Python child to completion and return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR), "PYTHONHASHSEED": "0"}
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{argv[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def setup_seconds(d: int, n: int, reps: int, deadline: float) -> list[float]:
    """Fresh-interpreter set-up times in reference seconds (see refspeed.py);
    one untimed probe first writes the bytecode caches."""
    probe = str(BENCH_DIR / "setup_probe.py")
    run_child([probe, "2", "1"], deadline)
    return [float(run_child([probe, str(d), str(n)], deadline)) for _ in range(reps)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=sorted(config.SIZES), default="full", help="tiny: smoke-test sizes"
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC_DIR / "simplexcover" / "__init__.py").is_file():
            raise BenchmarkError(f"no simplexcover sources under {SRC_DIR}")
        if args.workload not in config.SIZES[args.size]:
            raise BenchmarkError(f"unknown workload {args.workload!r}")
        sz = config.SIZES[args.size][args.workload]
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "size": args.size,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "commit": git_commit(ROOT),
        }
        metrics = {}
        if not args.trace:
            samples = setup_seconds(sz["d"], sz["n"], sz["setup_reps"], deadline)
            metrics["setup_s"] = statistics.median(samples)
            record["setup_samples_s"] = samples
        worker_argv = [str(BENCH_DIR / "worker.py"), "--workload", args.workload]
        worker_argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        worker_argv += ["--trace", str(args.trace), "--size", args.size]
        lines = run_child(worker_argv, deadline).strip().splitlines()
        if not lines:
            raise BenchmarkError("worker printed nothing")
        worker = json.loads(lines[-1])
        metrics.update(worker["metrics"])
        declared = spec["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if set(metrics) != set(units):
            raise BenchmarkError(
                f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}"
            )
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    record.update(
        attempted=worker["attempted"],
        failed=worker["failed"],
        failures=worker["failures"],
        base=worker["base"],
    )
    OUT_DIR.mkdir(exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    for failure in worker["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    correct = worker["failed"] == 0
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": worker["attempted"],
                "failed": worker["failed"],
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(units)},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
