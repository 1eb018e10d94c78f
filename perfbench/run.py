"""Benchmark runner for the POSET-RL compiler.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` instead runs
one untraced and one traced pass of the same work and reports the
per-layer metrics (see ``perfbench/README.md``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A run record (versions, per-program rows,
determinism digest) is written under ``perfbench/results/``.

The exit code is 0 only when every operation succeeded and every output
passed its check; it is 2 when the checkout has no program to measure,
and 3 (with no result line) when a metric of ``BENCHMARK.json`` got no
value.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Set-ups per run: at least ``SETUP_MIN_REPEATS``, and more (up to
#: ``SETUP_MAX_REPEATS``) until they add up to ``SETUP_MIN_TOTAL_S``, so a
#: sub-second set-up gets a median of many samples; ``setup_s`` is that
#: median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_TOTAL_S = 2.0

#: Non-pass wrapped entry points (see ``tracing.install_layers``).
TRACED_FUNCTIONS = (
    "ir.parse", "ir.clone", "ir.function_fingerprints", "ir.fingerprint",
    "ir.verify", "ir.print", "passes.run", "codegen.size",
    "mca.throughput", "embeddings.embedding", "core.step", "rl.predict",
    "rl.train_batch", "rl.sample", "serving.submit",
)


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_sha(root: Path) -> Optional[str]:
    """HEAD's commit from the ``.git`` files, or None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _src_lines(root: Path) -> int:
    return sum(
        len(path.read_bytes().splitlines())
        for path in (root / "src").rglob("*.py")
    )


def _wall_seconds(start: float, end: float) -> float:
    return end - start


def _ratio(hits: float, lookups: float) -> float:
    return hits / lookups if lookups else 0.0


def _engine_totals(engine_stats) -> Dict[str, float]:
    totals = {"fn_hits": 0.0, "fn_lookups": 0.0, "tr_hits": 0.0,
              "tr_lookups": 0.0, "flat_builds": 0.0, "flat_rows": 0.0}
    for stats in engine_stats:
        for cache in ("size", "mca", "embedding"):
            if cache in stats:
                totals["fn_hits"] += stats[cache]["hits"]
                totals["fn_lookups"] += (
                    stats[cache]["hits"] + stats[cache]["misses"]
                )
        if "transitions" in stats:
            t = stats["transitions"]
            totals["tr_hits"] += t["hits"]
            totals["tr_lookups"] += t["hits"] + t["misses"]
        if "flat" in stats:
            totals["flat_builds"] += stats["flat"]["builds"]
            totals["flat_rows"] += stats["flat"]["row_rebuilds"]
    return totals


def traced_passes(spec: Dict[str, Any]) -> List[str]:
    """Passes with metrics of their own in ``BENCHMARK.json`` (the top
    passes by self time); the others fold into ``passes.other``."""
    return [
        m["name"][len("passes."):-len(".calls")]
        for m in spec["per_layer"]
        if m["name"].startswith("passes.") and m["name"].endswith(".calls")
        and m["name"] not in ("passes.run.calls", "passes.other.calls")
    ]


def per_layer_metrics(
    tracer, traced, untraced, kept_passes: List[str], probe,
) -> Dict[str, float]:
    """Flat name -> value map of every per-layer metric."""
    out: Dict[str, float] = {}
    totals = tracer.totals
    for name in TRACED_FUNCTIONS:
        t = totals.get(name)
        out[f"{name}.calls"] = t.calls if t else 0
        out[f"{name}.busy_s"] = t.busy_s if t else 0.0
        out[f"{name}.self_s"] = t.self_s if t else 0.0
    other_calls, other_self = 0, 0.0
    for name, t in totals.items():
        if not name.startswith("passes.") or name == "passes.run":
            continue
        if name[len("passes."):] in kept_passes:
            continue
        other_calls += t.calls
        other_self += t.self_s
    for pass_name in kept_passes:
        t = totals.get(f"passes.{pass_name}")
        out[f"passes.{pass_name}.calls"] = t.calls if t else 0
        out[f"passes.{pass_name}.self_s"] = t.self_s if t else 0.0
    out["passes.other.calls"] = other_calls
    out["passes.other.self_s"] = other_self

    counts = tracer.counts
    engines = _engine_totals(traced.engine_stats)
    out["passes.changed_ratio"] = _ratio(
        counts["passes.changed"], counts["passes.runs"]
    )
    out["core.noop_step_ratio"] = _ratio(
        counts["core.noop_steps"], totals["core.step"].calls
        if "core.step" in totals else 0
    )
    out["core.transition_cache.hit_ratio"] = _ratio(
        engines["tr_hits"], engines["tr_lookups"]
    )
    out["core.function_cache.hit_ratio"] = _ratio(
        engines["fn_hits"], engines["fn_lookups"]
    )
    out["ir.flat.builds"] = engines["flat_builds"]
    out["ir.flat.row_rebuilds"] = engines["flat_rows"]

    # Serving figures of the traced round (``serve`` only).
    rounds = traced.data.get("serve_rounds")
    data = rounds[0] if rounds else {}
    cache = data.get("result_cache", {})
    counters = data.get("counters", {})
    out["serving.result_cache.hit_ratio"] = _ratio(
        cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)
    )
    out["serving.batch_size_mean"] = _ratio(
        counters.get("batched_steps", 0), counters.get("batch_ticks", 0)
    )
    out["serving.queue_wait_s"] = data.get("queue_wait", 0.0)
    out["serving.fallbacks"] = counters.get("fallbacks", 0)
    out["serving.rejected"] = counters.get("rejected", 0)
    out["trace.overhead_pct"] = 100.0 * (
        probe.reference_seconds(*traced.round_spans[0])
        / probe.reference_seconds(*untraced.round_spans[0]) - 1.0
    )
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "compile", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, same code path (self-tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        _fail_setup(f"no program to measure: {root}/src/repro is missing; "
                    f"run from the root of a checkout")
    sys.path.insert(0, str(root / "src"))
    # One BLAS thread: the run's CPUs go to the workload's own threads
    # (2 serve clients plus the scheduler), and threaded GEMMs were both
    # slower and noisier on a 2-CPU machine. Must precede the numpy import.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    import numpy
    import repro

    if Path(repro.__file__).resolve().parents[2] != root.resolve():
        _fail_setup(f"imported repro from {repro.__file__}, not {root}")

    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail_setup(f"cannot read BENCHMARK.json: {exc}")
    units = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    # A result line holds exactly the manifest's metrics for its mode.
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    import tracing
    import workloads
    from speed import SpeedProbe

    size = workloads.SMOKE if args.smoke else workloads.FULL
    # A traced run does the work twice (untraced, then traced).
    seconds = args.seconds / 2 if args.trace else args.seconds
    # Every derived RNG seed must stay below 2**32.
    seed = args.seed % workloads.SEED_RANGE
    probe = SpeedProbe()
    workload = workloads.WORKLOADS[args.workload](seed, size, seconds, probe)

    setup_spans: List[Tuple[float, float]] = []
    while len(setup_spans) < SETUP_MIN_REPEATS or (
        len(setup_spans) < SETUP_MAX_REPEATS
        and sum(end - start for start, end in setup_spans) < SETUP_MIN_TOTAL_S
    ):
        gc.collect()  # the previous set-up's garbage is not this one's cost
        probe.probe(3)
        start = time.perf_counter()
        workload.setup()
        setup_spans.append((start, time.perf_counter()))
        probe.probe(3)

    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        untraced = workload.measure(seconds, rounds=1)
        workload.check(untraced)
        with tracing.LayerTracer() as tracer:
            traced = workload.measure(seconds, rounds=1)
        workload.check(traced)
        measurement = traced
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        errors = untraced.errors + traced.errors
        values = per_layer_metrics(
            tracer, traced, untraced, traced_passes(spec), probe
        )
    else:
        measurement = workload.measure(seconds)
        workload.check(measurement)
        attempted, failed = measurement.attempted, measurement.failed
        errors = measurement.errors
        if not failed:
            values = workload.metrics(measurement, probe.reference_seconds)
            wall_values = workload.metrics(measurement, _wall_seconds)
        else:
            values, wall_values = {}, {}
        values["setup_s"] = statistics.median(
            probe.reference_seconds(*span) for span in setup_spans
        )
        wall_values["setup_s"] = statistics.median(
            end - start for start, end in setup_spans
        )
        values["peak_rss_mb"] = measurement.peak_rss_mb
    if not failed:
        missing = sorted(set(wanted) - set(values))
        if missing:
            print(f"perfbench: no value for {', '.join(missing)}",
                  file=sys.stderr)
            return 3
    for name in wanted:
        if name in values:
            metrics[name] = {"value": values[name], "unit": units[name]}

    results = root / "perfbench" / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write_spans(str(results / f"{stem}.spans.jsonl.gz"))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
        "src_lines": _src_lines(root),
        "setup_wall_s": [end - start for start, end in setup_spans],
        "rounds": measurement.rounds,
        "round_wall_s": [end - start for start, end in measurement.round_spans],
        "probe_s": probe.samples(),
        "wall_metrics": None if args.trace else wall_values,
        "digest": workload.digest(),
        "errors": errors,
        "metrics": metrics,
        "detail": workload.record(measurement),
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))

    correct = failed == 0
    for error in errors:
        print(f"FAILED: {error}")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for name, value in record["detail"].items():
        if isinstance(value, (int, float)):
            print(f"{name} = {value:.6g}")
    print(f"digest = {record['digest']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
