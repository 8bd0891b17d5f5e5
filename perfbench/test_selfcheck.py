"""Fast self-check of the benchmark harness, at the smallest workload size.

    python3 -m pytest perfbench -q

Runs every workload once untraced and once traced with ``--seconds 1`` and
checks the output contract, that every answer passes its independent
checks, and that the traced run separates the layers as the workloads
intend.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WHY, WORKLOADS  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def results() -> dict:
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = (json.loads(lines[-1]), lines[:-1])
    return out


def test_manifest_matches_harness():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in MANIFEST["workloads"]] == [WHY[w] for w in WORKLOADS]
    assert MANIFEST["command"] == ["python3", "perfbench/run.py"]


def test_every_metric_emitted_and_answers_correct(results):
    end_to_end = [m["name"] for m in MANIFEST["end_to_end"]]
    per_layer = [m["name"] for m in MANIFEST["per_layer"]]
    for (workload, trace), (doc, lines) in results.items():
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, workload
        assert list(doc["metrics"]) == (per_layer if trace else end_to_end)
        if not trace:
            assert any(line.startswith("failed_frac") and " 0 ratio" in line for line in lines)
            assert all(doc["metrics"][name]["value"] > 0 for name in end_to_end)


def test_trace_separates_layers(results):
    def layer(workload):
        return {k: v["value"] for k, v in results[workload, 1][0]["metrics"].items()}

    for workload in WORKLOADS:
        m = layer(workload)
        assert m["trace.self_sum_s"] <= m["trace.wall_s"] * (1 + 1e-9)
        assert "trace.overhead_frac" in m
    assert layer("betti_sweep")["weights.adapted_basis_calls"] == 0
    assert layer("reps_dense")["weights.adapted_basis_calls"] == 0
    assert layer("betti_sweep")["cohomology.rep_rank_tests"] == 0
    assert layer("scan_solvable")["cohomology.rep_rank_tests"] == 0
    assert layer("reps_dense")["cohomology.rep_rank_tests"] > 0
    assert layer("scan_solvable")["weights.adapted_basis_calls"] > 0
    sweep = layer("betti_sweep")
    kernel = sweep["exterior.assemble_s"] + sum(
        v for k, v in sweep.items() if k.startswith("linalg.") and k.endswith("_s"))
    assert kernel > 0.5 * sweep["trace.wall_s"]
    cli = layer("cli_batch")
    p50 = results["cli_batch", 0][0]["metrics"]["query_p50_ms"]["value"]
    assert cli["cli.interpreter_ms"] + cli["cli.import_ms"] > 0.5 * p50


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("betti_sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
