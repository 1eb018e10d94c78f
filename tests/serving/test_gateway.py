"""Sharded gateway: routing, admission control, failover, open loop.

Worker subprocesses are real (fork + pipes), so every test keeps the
module corpus small and the episode length short; the gateway tests run
in a few seconds total on one core.
"""

import time

import pytest

from repro import PosetRL
from repro.ir.fingerprint import module_fingerprint
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.serving import (
    OptimizeRequest,
    ShardedGateway,
    TenantMix,
    TokenBucket,
    run_open_loop,
    shard_for_fingerprint,
)
from repro.serving.gateway import route_text
from repro.workloads import ProgramProfile, generate_program


@pytest.fixture(scope="module")
def texts():
    return [
        print_module(
            generate_program(
                ProgramProfile(name=f"gw{i}", seed=700 + i, segments=2)
            )
        )
        for i in range(6)
    ]


@pytest.fixture(scope="module")
def agent():
    return PosetRL(episode_length=4, seed=0)


def make_gateway(agent, n_shards=2, **kwargs):
    kwargs.setdefault("batch_window_s", 0.001)
    kwargs.setdefault("verify", False)
    kwargs.setdefault("include_ir", False)
    return ShardedGateway.from_agent(agent, n_shards, **kwargs)


def fresh_text_for_shard(gateway, shard, *, seed0=800, segments=2):
    """Generate a module not seen by the gateway that routes to ``shard``."""
    for seed in range(seed0, seed0 + 200):
        text = print_module(
            generate_program(
                ProgramProfile(name=f"fresh{seed}", seed=seed,
                               segments=segments)
            )
        )
        if gateway.shard_for(text) == shard:
            return text
    raise AssertionError(f"no module routed to shard {shard}")


class TestRouting:
    def test_shard_for_fingerprint_deterministic(self):
        fp = "deadbeefcafebabe0123456789abcdef"
        assert shard_for_fingerprint(fp, 4) == int(fp[:16], 16) % 4
        assert shard_for_fingerprint(fp, 4) == shard_for_fingerprint(fp, 4)

    def test_same_text_same_shard_across_processes(self, texts):
        # The routing decision must not depend on process-local state
        # (e.g. Python's salted hash): recompute it in a subprocess.
        import multiprocessing as mp

        parent = [route_text(t, 4) for t in texts]
        with mp.get_context().Pool(1) as pool:
            child = pool.starmap(route_text, [(t, 4) for t in texts])
        assert parent == child

    def test_route_matches_module_fingerprint(self, texts):
        for text in texts:
            fp = module_fingerprint(parse_module(text))
            assert route_text(text, 3) == shard_for_fingerprint(fp, 3)

    def test_gateway_serves_and_reports_shard(self, agent, texts):
        with make_gateway(agent, n_shards=2) as gw:
            for text in texts:
                result = gw.optimize(text)
                assert result.status == "ok"
                assert result.shard == gw.shard_for(text)
                assert result.as_dict()["shard"] == result.shard

    def test_repeats_hit_same_shards_warm_cache(self, agent, texts):
        with make_gateway(agent, n_shards=2) as gw:
            first = [gw.optimize(t) for t in texts]
            second = [gw.optimize(t) for t in texts]
        for a, b in zip(first, second):
            assert b.shard == a.shard
            assert b.cache_hit
            assert b.actions == a.actions
        stats = gw.stats()
        # Round two was routed entirely from the exact-text memo.
        assert stats.counters["routed_memo_hits"] >= len(texts)


class TestAdmissionControl:
    def test_queue_full_sheds_with_reason(self, agent, texts):
        with make_gateway(agent, n_shards=1, max_pending=1) as gw:
            futures = [
                gw.submit(t, name=f"m{i}") for i, t in enumerate(texts)
            ]
            results = [f.result(timeout=120) for f in futures]
        shed = [r for r in results if r.reason and r.reason.startswith("shed")]
        served = [r for r in results if r.status == "ok"]
        assert shed, "max_pending=1 under a burst must shed"
        assert served, "admission control must not shed everything"
        for r in shed:
            assert r.status == "rejected"
            assert "queue_full" in r.reason
        assert gw.stats().shed_reasons.get("queue_full", 0) == len(shed)

    def test_rate_limited_tenant_sheds_others_unaffected(self, agent, texts):
        with make_gateway(
            agent, n_shards=2, tenant_rate=1.0, tenant_burst=2.0
        ) as gw:
            # Warm both shards so the polite tenant's requests are fast.
            for t in texts:
                gw.optimize(t, tenant="warm")
            noisy = [
                gw.submit(texts[i % len(texts)], tenant="noisy")
                for i in range(20)
            ]
            polite = [gw.submit(t, tenant="polite") for t in texts[:2]]
            noisy_results = [f.result(timeout=120) for f in noisy]
            polite_results = [f.result(timeout=120) for f in polite]
        noisy_shed = [
            r for r in noisy_results
            if r.reason and "rate_limited" in r.reason
        ]
        assert len(noisy_shed) >= 10  # burst 2 + a token or two refilled
        # Tokens are per tenant: the polite tenant (2 requests, burst 2)
        # is never shed and its latency stays cache-hit bounded.
        assert all(r.status == "ok" for r in polite_results)
        assert all(r.latency_s < 5.0 for r in polite_results)

    def test_parse_error_rejected_not_shed(self, agent):
        with make_gateway(agent, n_shards=1) as gw:
            result = gw.optimize("this is not IR")
        assert result.status == "rejected"
        assert "parse_error" in result.reason
        assert gw.stats().counters["shed"] == 0

    def test_token_bucket_refills(self):
        bucket = TokenBucket(rate=100.0, burst=1.0)
        now = time.monotonic()
        assert bucket.try_acquire(now)
        assert not bucket.try_acquire(now)
        assert bucket.try_acquire(now + 0.02)  # 2 tokens refilled, capped


class TestFailover:
    def test_worker_crash_mid_request_fails_over(self, agent):
        from repro.observability import disable, enable, get_registry

        enable()
        try:
            gw = make_gateway(
                agent, n_shards=2,
                # Monitor effectively off: only pipe EOF detects death,
                # so the test controls the timing.
                heartbeat_interval_s=30.0, heartbeat_timeout_s=60.0,
            )
            with gw:
                # A slow, never-seen module pinned to shard 0: about
                # 50 ms of work on a warm shard, so the kill below lands
                # mid-request.
                text = fresh_text_for_shard(gw, 0, segments=32)
                victim = gw._pool.process(0)
                future = gw.submit(text, name="inflight")
                time.sleep(0.02)  # let the worker start computing
                victim.kill()
                result = future.result(timeout=120)
                assert result.status == "ok"
                assert result.shard == 1  # served by the sibling
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    stats = gw.stats()
                    if stats.per_shard[0]["alive"]:
                        break
                    time.sleep(0.05)
                assert stats.counters["worker_restarts"] == 1
                assert stats.counters["failovers"] == 1
                assert stats.per_shard[0]["alive"]
                assert get_registry().get_value(
                    "repro_gateway_worker_restarts_total"
                ) == 1
                # The restarted worker serves its shard again.
                after = gw.optimize(fresh_text_for_shard(gw, 0, seed0=1100))
                assert after.status == "ok"
                assert after.shard == 0
        finally:
            disable()

    def test_single_shard_crash_restarts_and_serves(self, agent):
        with make_gateway(
            agent, n_shards=1,
            heartbeat_interval_s=0.05, heartbeat_timeout_s=60.0,
        ) as gw:
            first = gw.optimize(fresh_text_for_shard(gw, 0, seed0=1200))
            assert first.status == "ok"
            gw._pool.process(0).kill()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if gw.stats().counters["worker_restarts"] >= 1:
                    break
                time.sleep(0.05)
            result = gw.optimize(fresh_text_for_shard(gw, 0, seed0=1300))
            assert result.status == "ok"
            assert gw.stats().counters["worker_restarts"] >= 1


class TestLifecycle:
    def test_stop_returns_final_worker_counters(self, agent, texts):
        gw = make_gateway(agent, n_shards=2)
        gw.start()
        for text in texts:
            assert gw.optimize(text).status == "ok"
        final = gw.stop()
        assert set(final) == {0, 1}
        total = sum(
            final[i].get("counters", {}).get("requests", 0) for i in final
        )
        assert total == len(texts)
        with pytest.raises(RuntimeError):
            gw.submit(texts[0])
        # stop() is idempotent.
        assert gw.stop() == final

    def test_service_drain_returns_counters(self, agent, texts):
        from repro.serving import OptimizationService

        svc = OptimizationService.from_agent(agent, batch_window_s=0.001)
        svc.start()
        assert svc.optimize(texts[0]).status == "ok"
        final = svc.drain()
        assert final["counters"]["requests"] == 1
        assert final["counters"]["ok"] == 1
        with pytest.raises(RuntimeError):
            svc.submit(texts[0])

    def test_hot_reload_broadcasts_to_all_shards(self, agent, texts):
        from repro.rl.network import QNetwork

        with make_gateway(agent, n_shards=2) as gw:
            before = gw.optimize(texts[0])
            assert before.model_version == "v1"
            online = agent.agent.online
            candidate = QNetwork(
                online.state_dim, online.num_actions, online.hidden,
            )
            candidate.copy_from(online)
            outcomes = gw.hot_reload(network=candidate, version="v2")
            assert outcomes == {0: None, 1: None}
            assert gw.model_version == "v2"
            after = gw.optimize(texts[0])
            assert after.model_version == "v2"
            # New version, same fingerprint: not answered from v1's cache.
            assert not after.cache_hit


class TestOpenLoop:
    def test_open_loop_against_plain_service(self, agent, texts):
        from repro.serving import OptimizationService

        svc = OptimizationService.from_agent(agent, batch_window_s=0.001)
        requests = [
            OptimizeRequest(ir_text=t, name=f"m{i}")
            for i, t in enumerate(texts)
        ]
        with svc:
            for req in requests:  # warm the cache: the run is then fast
                svc.optimize(req.ir_text)
            report = run_open_loop(
                svc, requests, arrival_rate=200.0, total=40, seed=1
            )
        assert report.offered == 40
        assert report.completed == 40
        assert report.status_counts.get("ok", 0) == 40
        assert report.shed == 0
        assert report.goodput_rps > 0
        assert report.p99_ms >= report.p50_ms >= 0.0

    def test_overload_sheds_but_p99_stays_bounded(self, agent, texts):
        # Overload far beyond capacity against a tiny admission window:
        # caches start cold, so the first pass over the corpus costs
        # real compute while arrivals land every 2.5ms — the gateway
        # must shed (nonzero) while served latency stays bounded by
        # max_pending * per-request cost rather than growing with the
        # backlog.
        # coalesce=False: this test drives duplicate texts and asserts
        # the raw admission window; coalescing (which legitimately lets
        # duplicates ride outside the window) has its own test file.
        with make_gateway(agent, n_shards=2, max_pending=4,
                          coalesce=False) as gw:
            requests = [
                OptimizeRequest(ir_text=t, name=f"m{i}")
                for i, t in enumerate(texts)
            ]
            report = run_open_loop(
                gw, requests, arrival_rate=400.0, total=200, seed=2,
                burst_factor=4.0, burst_every_s=0.5, burst_duty=0.25,
            )
        assert report.completed == report.offered == 200
        assert report.shed > 0
        assert report.max_in_flight <= 4 + 1  # admission window holds
        assert report.p99_ms < 10_000.0
        served = report.status_counts.get("ok", 0)
        assert served + report.shed + report.status_counts.get(
            "fallback", 0
        ) >= 200 - 5

    def test_tenant_mix_and_per_tenant_stats(self, agent, texts):
        with make_gateway(
            agent, n_shards=1, tenant_rates={"greedy": 5.0}
        ) as gw:
            for t in texts:
                gw.optimize(t)
            requests = [
                OptimizeRequest(ir_text=t, name=f"m{i}")
                for i, t in enumerate(texts)
            ]
            report = run_open_loop(
                gw, requests, arrival_rate=150.0, total=120, seed=3,
                tenants=[
                    TenantMix("greedy", weight=3.0),
                    TenantMix("modest", weight=1.0),
                ],
            )
        greedy = report.per_tenant["greedy"]
        modest = report.per_tenant["modest"]
        assert greedy["offered"] > modest["offered"]
        # Only the rate-limited tenant is shed; the unlimited tenant's
        # p99 stays cache-hit fast despite the greedy tenant's overload.
        assert greedy["shed"] > 0
        assert modest["shed"] == 0
        assert modest["p99_ms"] < 5_000.0
