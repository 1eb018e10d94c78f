"""Sharded gateway: aggregate throughput, overload behaviour, locality.

Three gates, all emitted into ``benchmarks/results/perf_gateway.json``:

* **aggregate throughput** — closed-loop over a cold mixed corpus,
  4-shard gateway vs the single-process service. The ≥2x assertion is
  the point of sharding, but it is physically impossible on a
  single-core runner (N subprocesses time-slice one core), so — same
  convention as the vectorized-training benchmark — the strict gate
  applies when ≥4 CPUs are available and a no-collapse floor (IPC +
  routing overhead must not halve throughput) applies otherwise. The
  JSON records ``cpu_count`` so readers can interpret the number.
* **overload** — open-loop arrivals at ~2x measured capacity against a
  small admission window: nonzero shed, in-flight bounded by the
  window, served p99 bounded (queueing is capped, so latency cannot
  grow with the backlog).
* **routing locality** — a repeat-heavy workload must see the same
  result-cache hit ratio through the fingerprint-affine gateway as on a
  single process (within 5 points): affinity means sharding does not
  cold-split the cache.
"""

from __future__ import annotations

import json
import os
import time

from repro import PosetRL
from repro.ir.printer import print_module
from repro.serving import (
    OptimizationService,
    OptimizeRequest,
    ShardedGateway,
    run_load,
    run_open_loop,
)
from repro.workloads import ProgramProfile, generate_program

from conftest import RESULTS_DIR, save_results

N_SHARDS = 4
EPISODE_LENGTH = 6
RESULT_NAME = "perf_gateway"


def _update_results(section: str, payload) -> None:
    """Read-modify-write one section of perf_gateway.json: the three
    tests run (and can be re-run) independently."""
    path = RESULTS_DIR / f"{RESULT_NAME}.json"
    existing = {}
    if path.exists():
        with open(path) as fh:
            existing = json.load(fh)
    existing[section] = payload
    existing["cpu_count"] = len(os.sched_getaffinity(0))
    save_results(RESULT_NAME, existing)


def _corpus(count: int, *, seed0: int, segments: int = 2):
    return [
        (
            f"gwb{i}",
            print_module(
                generate_program(
                    ProgramProfile(
                        name=f"gwb{i}", seed=seed0 + i, segments=segments
                    )
                )
            ),
        )
        for i in range(count)
    ]


def _requests(corpus, count: int):
    return [
        OptimizeRequest(ir_text=corpus[i % len(corpus)][1],
                        name=corpus[i % len(corpus)][0])
        for i in range(count)
    ]


def _fresh_agent():
    return PosetRL(episode_length=EPISODE_LENGTH, seed=0)


def test_gateway_aggregate_throughput():
    """4-shard gateway vs single process on a cold mixed corpus."""
    cpus = len(os.sched_getaffinity(0))
    corpus = _corpus(24, seed0=9000)
    requests = _requests(corpus, 48)

    service = OptimizationService.from_agent(
        _fresh_agent(), batch_window_s=0.002, include_ir=False, verify=False,
    )
    with service:
        single = run_load(service, requests, concurrency=8)

    gateway = ShardedGateway.from_agent(
        _fresh_agent(), N_SHARDS,
        batch_window_s=0.002, include_ir=False, verify=False,
        max_pending=256,
    )
    with gateway:
        sharded = run_load(gateway, requests, concurrency=8)
    gw_counters = gateway.stats().counters

    speedup = (
        sharded.throughput_rps / single.throughput_rps
        if single.throughput_rps else float("inf")
    )
    payload = {
        "n_shards": N_SHARDS,
        "requests": len(requests),
        "distinct_modules": len(corpus),
        "single_process": single.as_dict(),
        "sharded": sharded.as_dict(),
        "gateway_counters": gw_counters,
        "speedup": round(speedup, 2),
        "gate": (
            ">=2x (>=4 CPUs)" if cpus >= N_SHARDS
            else ">=0.4x no-collapse floor (single-core runner: N "
            "subprocesses time-slice one core, so aggregate speedup is "
            "physically capped at ~1x; the >=2x gate needs >=4 CPUs)"
        ),
    }
    _update_results("aggregate_throughput", payload)
    print(
        f"\ngateway throughput at {N_SHARDS} shards: "
        f"{single.throughput_rps:.1f} -> {sharded.throughput_rps:.1f} req/s "
        f"({speedup:.2f}x, cpus={cpus})"
    )
    assert sharded.status_counts.get("ok", 0) == len(requests), payload
    if cpus >= N_SHARDS:
        assert speedup >= 2.0, payload
    else:
        assert speedup >= 0.4, payload


def test_gateway_overload_bounded():
    """Open loop at ~2x capacity: nonzero shed, bounded p99."""
    corpus = _corpus(8, seed0=9100)
    max_pending = 8
    gateway = ShardedGateway.from_agent(
        _fresh_agent(), 2,
        batch_window_s=0.002, include_ir=False, verify=False,
        # Coalesced duplicates bypass the in-flight window by design, so
        # with 8 distinct programs the window would never fill: measure
        # admission control alone.
        max_pending=max_pending, coalesce=False,
    )
    with gateway:
        # Calibrate capacity closed-loop on fresh (cold) modules...
        calibration = run_load(
            gateway, _requests(corpus, len(corpus)), concurrency=4
        )
        capacity_rps = calibration.throughput_rps
        # ...then offer 2x that rate on a *different* cold corpus.
        overload_corpus = _corpus(8, seed0=9200)
        report = run_open_loop(
            gateway,
            _requests(overload_corpus, 120),
            arrival_rate=max(2.0, 2.0 * capacity_rps),
            total=120,
            seed=7,
        )

    payload = {
        "calibrated_capacity_rps": round(capacity_rps, 2),
        "offered_rate_rps": round(max(2.0, 2.0 * capacity_rps), 2),
        "max_pending": max_pending,
        "open_loop": report.as_dict(),
    }
    _update_results("overload", payload)
    print(
        f"\noverload at 2x capacity ({capacity_rps:.1f} rps): "
        f"goodput={report.goodput_rps:.1f} rps "
        f"shed={report.shed}/{report.offered} p99={report.p99_ms:.0f}ms"
    )
    assert report.completed == report.offered, payload
    assert report.shed > 0, payload
    assert report.max_in_flight <= max_pending + 1, payload
    # Served latency is bounded by the admission window, not the backlog:
    # at most max_pending requests queue ahead of any served one.
    assert report.p99_ms < 60_000.0, payload


def test_gateway_cache_locality():
    """Repeat-heavy workload: affinity keeps per-shard caches as hot as
    one process's cache (hit ratio within 5 points)."""
    corpus = _corpus(8, seed0=9300)
    repeats = 10
    requests = _requests(corpus, len(corpus) * repeats)

    # Warm each distinct module once, sequentially, so the measured runs
    # contain no duplicate-in-flight misses (a repeat arriving while the
    # first compute is still running) — those would charge scheduling
    # noise to the locality comparison.
    service = OptimizationService.from_agent(
        _fresh_agent(), batch_window_s=0.002, include_ir=False, verify=False,
    )
    with service:
        for name, text in corpus:
            service.optimize(text, name=name)
        single = run_load(service, requests, concurrency=8)
    single_ratio = single.cache_hits / single.requests

    gateway = ShardedGateway.from_agent(
        _fresh_agent(), N_SHARDS,
        batch_window_s=0.002, include_ir=False, verify=False,
        max_pending=256,
    )
    with gateway:
        for name, text in corpus:
            gateway.optimize(text, name=name)
        sharded = run_load(gateway, requests, concurrency=8)
        restarts = gateway.stats().counters["worker_restarts"]
    sharded_ratio = sharded.cache_hits / sharded.requests

    payload = {
        "n_shards": N_SHARDS,
        "distinct_modules": len(corpus),
        "repeats": repeats,
        "single_process_hit_ratio": round(single_ratio, 4),
        "sharded_hit_ratio": round(sharded_ratio, 4),
        "worker_restarts": restarts,
        "single_process": single.as_dict(),
        "sharded": sharded.as_dict(),
    }
    _update_results("cache_locality", payload)
    print(
        f"\ncache locality at {N_SHARDS} shards: single={single_ratio:.3f} "
        f"sharded={sharded_ratio:.3f} (restarts={restarts})"
    )
    assert restarts == 0, payload
    assert sharded_ratio >= single_ratio - 0.05, payload
