"""Self-tests of the benchmark harness, at smoke size.

Run from the repository root::

    python3 -m pytest perfbench -q

Every test drives ``run.py`` the way the benchmark is driven (a fresh
process in the checkout root), with ``--smoke`` shrinking the work so all
three workloads run their full code path and output checks in seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Every workload reports every end-to-end metric.
END_TO_END = {
    "setup_s", "peak_rss_mb", "ops_per_s", "op_p50_ms", "op_p95_ms",
    "size_ratio_vs_oz", "throughput_ratio_vs_oz",
}


def _run(workload: str, trace: int, cwd: Path = ROOT, hash_seed: str = "0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _record(workload: str, trace: int) -> dict:
    path = ROOT / "perfbench" / "results" / f"{workload}-seed3-trace{trace}.json"
    return json.loads(path.read_text())


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert len(SPEC["per_layer"]) <= 128
    assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_deterministic(workload):
    """Every end-to-end metric is reported with its unit, outputs pass
    their checks, and two processes with different hash seeds produce
    the same determinism digest."""
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    digests = []
    for hash_seed in ("1", "2"):
        result = _result(_run(workload, 0, hash_seed=hash_seed))
        metrics = result["metrics"]
        assert set(metrics) == END_TO_END
        for name, entry in metrics.items():
            assert entry["unit"] == units[name]
            assert entry["value"] > 0
        record = _record(workload, 0)
        assert record["cpu_count"] >= 1 and record["src_lines"] > 0
        digests.append(record["digest"])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result = _result(_run(workload, 1))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["core.step.calls"] > 0
    assert metrics["passes.run.calls"] > 0
    assert metrics["core.step.self_s"] <= metrics["core.step.busy_s"]
    if workload == "train":
        assert metrics["rl.train_batch.calls"] > 0
    if workload == "serve":
        assert metrics["serving.submit.calls"] > 0
        assert metrics["ir.parse.calls"] > 0
    assert (ROOT / "perfbench" / "results"
            / f"{workload}-seed3-trace1.spans.jsonl.gz").is_file()


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits nonzero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("compile", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrappers_are_restored():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import repro.serving.service as service
        from repro.ir.module import Module
        from repro.passes.base import PASS_REGISTRY

        import tracing

        before = (
            vars(Module)["clone"], service.parse_module,
            {name: vars(cls).get("run_on_module")
             for name, cls in PASS_REGISTRY.items()},
        )
        with tracing.LayerTracer():
            assert vars(Module)["clone"] is not before[0]
            assert service.parse_module is not before[1]
        after = (
            vars(Module)["clone"], service.parse_module,
            {name: vars(cls).get("run_on_module")
             for name, cls in PASS_REGISTRY.items()},
        )
        assert after[0] is before[0] and after[1] is before[1]
        assert all(after[2][n] is before[2][n] for n in before[2])
    finally:
        sys.path.remove(str(ROOT / "src"))
        sys.path.remove(str(ROOT / "perfbench"))


def test_self_time_subtracts_nested_wrapped_calls():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import time

        import tracing

        tracer = tracing.LayerTracer()
        inner = tracer.wrap("inner", lambda: time.sleep(0.02))

        def outer_body():
            inner()
            time.sleep(0.01)

        tracer.wrap("outer", outer_body)()
        outer, nested = tracer.totals["outer"], tracer.totals["inner"]
        assert outer.calls == nested.calls == 1
        assert outer.busy_s >= nested.busy_s >= 0.02
        assert outer.self_s == pytest.approx(
            outer.busy_s - nested.busy_s, abs=1e-9
        )
        (inner_id, parent, *_), (outer_id, root, *_) = tracer.spans
        assert parent == outer_id and root == 0
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
