"""Small-scale smoke test of the benchmark harness; asserts no wall times.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_run_reports_every_metric_and_no_failure(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 4
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "latency-http", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_wrap_target_fails_loudly():
    missing = ("promptloop.runstore", "EventLog.no_such_method", "runstore.none", None)
    with pytest.raises(spans.TargetMissing):
        spans.Tracer(spans.TARGETS + (missing,))


def test_tracer_restores_the_program_on_exit():
    from promptloop import runstore

    original = runstore.EventLog.emit
    with spans.Tracer():
        assert runstore.EventLog.emit is not original
    assert runstore.EventLog.emit is original


def test_self_time_subtracts_the_union_of_children():
    parent = spans.Span(1, "p", 0.0, 10.0, None, "1.optimize")
    kids = [spans.Span(2, "c", 1.0, 3.0, 1, "1.optimize"), spans.Span(3, "c", 2.0, 5.0, 1, "1.optimize"),
            spans.Span(4, "c", 9.0, 12.0, 1, "1.optimize")]
    cycle = spans.Cycle([parent, *kids])
    assert cycle.self_time(parent) == pytest.approx(10.0 - 4.0 - 1.0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_manifest_backend_matches_the_program(workload, tmp_path):
    from promptloop import config, pipeline

    inputs = build_inputs(WORKLOADS[workload].small(), 1, str(tmp_path), "http://127.0.0.1:1")
    resolved = config.resolve_config(inputs.config, env={})
    assert run.backend_summary(resolved) == pipeline._backend_summary(resolved)
