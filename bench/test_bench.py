"""Smoke test for the benchmark: every workload at the tiny scale.

Checks that each run passes its own output checks, emits every metric that
BENCHMARK.json names with the unit and direction the benchmark defines, and
that a traced run records a span for each layer the workload exercises.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import probes  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Span-name prefixes each workload must show in a traced run.
LAYERS = {
    "desk_seed": ("cli.", "data.", "nn.", "losses.", "proxy.", "selection.",
                  "distill."),
    "wide_c": ("proxy.", "selection."),
}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return lines, result["metrics"]


def test_benchmark_json_matches_the_metric_tables():
    def rows(key):
        return [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]
    assert rows("end_to_end") == list(run.END_TO_END)
    assert rows("per_layer") == list(probes.LAYER_METRICS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, metrics = _run(workload, 0)
    assert "environment" in lines[-2]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    lines, metrics = _run(workload, 1)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    trace = json.loads(Path(lines[-2]["trace_file"]).read_text())
    names = {span["name"] for span in trace["spans"]}
    for layer in LAYERS[workload]:
        assert any(n.startswith(layer) for n in names), layer
