"""Tests of the benchmark itself, on smoke-size layouts.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, seed: int, trace: int, smoke: bool = True):
    argv = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    report = last_json(run_bench(ROOT, workload, seed=3, trace=trace))
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    assert report["failed"] == 0 and report["attempted"] >= 2
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert set(report["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert report["metrics"][m["name"]]["unit"] == m["unit"]


def test_traced_counts_repeat_across_runs():
    first, second = (last_json(run_bench(ROOT, "random_wires", seed=5, trace=1)) for _ in range(2))
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    assert [first["metrics"][c]["value"] for c in counts] == [
        second["metrics"][c]["value"] for c in counts
    ]


def test_wrong_reference_cost_fails_the_op(tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run

        cli = run.import_program()
        import workloads

        ops = run.Ops(cli, workloads.via_clusters, (1,), tmp_path, ["0"])
        ops.write_layout(0, tmp_path / "layout.json")
        ops.run(0, tmp_path / "layout.json", tmp_path / "result.json")
        assert (ops.attempted, ops.failed) == (1, 1)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, "motif_array", seed=0, trace=0, smoke=False)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
