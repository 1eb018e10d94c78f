"""Gateway request coalescing: duplicate in-flight texts share one rollout."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import PosetRL
from repro import observability as obs
from repro.ir.printer import print_module
from repro.serving import ShardedGateway
from repro.workloads import ProgramProfile, generate_program


@pytest.fixture(scope="module")
def text():
    return print_module(
        generate_program(ProgramProfile(name="dup", seed=900, segments=2))
    )


@pytest.fixture(scope="module")
def other_text():
    return print_module(
        generate_program(ProgramProfile(name="other", seed=901, segments=2))
    )


def make_gateway(**kwargs):
    agent = PosetRL(episode_length=4, seed=0)
    # A wide batch window holds the leader in the worker long enough for
    # the duplicates to arrive while it is still in flight.
    kwargs.setdefault("batch_window_s", 0.3)
    kwargs.setdefault("verify", False)
    kwargs.setdefault("include_ir", False)
    kwargs.setdefault("result_cache_size", None)
    return ShardedGateway.from_agent(agent, 1, **kwargs)


class TestCoalescing:
    def test_duplicates_share_one_worker_computation(self, text):
        with make_gateway() as gateway:
            futures = [
                gateway.submit(text, name=f"dup{i}") for i in range(5)
            ]
            results = [f.result(timeout=30) for f in futures]
            assert gateway.counters["coalesced"] == 4
        assert all(r.status == "ok" for r in results)
        # Every caller got its own name back on the shared result...
        assert [r.name for r in results] == [f"dup{i}" for i in range(5)]
        # ...and the computation itself ran exactly once.
        assert all(r.actions == results[0].actions for r in results)
        stats = gateway.stats()
        assert stats.per_shard[0]["counters"]["requests"] == 1
        assert stats.counters["ok"] == 5

    def test_coalesce_disabled_runs_each_request(self, text):
        with make_gateway(coalesce=False) as gateway:
            futures = [gateway.submit(text) for _ in range(3)]
            for f in futures:
                assert f.result(timeout=30).status == "ok"
            assert gateway.counters["coalesced"] == 0
        assert gateway.stats().per_shard[0]["counters"]["requests"] == 3

    def test_distinct_texts_not_coalesced(self, text, other_text):
        with make_gateway() as gateway:
            a = gateway.submit(text)
            b = gateway.submit(other_text)
            assert a.result(timeout=30).status == "ok"
            assert b.result(timeout=30).status == "ok"
            assert gateway.counters["coalesced"] == 0
        assert gateway.stats().per_shard[0]["counters"]["requests"] == 2

    def test_completed_leader_does_not_coalesce_later_requests(self, text):
        with make_gateway(batch_window_s=0.001) as gateway:
            first = gateway.submit(text)
            assert first.result(timeout=30).status == "ok"
            # The leader finished; a new request must start a fresh
            # computation, not ride a dead one.
            second = gateway.submit(text)
            assert second.result(timeout=30).status == "ok"
            assert gateway.counters["coalesced"] == 0

    def test_concurrent_duplicate_submissions(self, text):
        """Racing clients: exactly one leader, everyone gets a result."""
        n = 8
        results = [None] * n
        with make_gateway(batch_window_s=0.5) as gateway:
            barrier = threading.Barrier(n)

            def client(i):
                barrier.wait()
                results[i] = gateway.submit(text, name=f"c{i}").result(
                    timeout=30
                )

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert gateway.counters["coalesced"] == n - 1
        assert all(r is not None and r.status == "ok" for r in results)
        assert len({tuple(r.actions) for r in results}) == 1
        assert gateway.stats().per_shard[0]["counters"]["requests"] == 1

    def test_slow_routing_still_elects_one_leader(self, text, monkeypatch):
        """Duplicates that arrive while the leader is still being routed
        (parsed) must join it rather than become leaders themselves."""
        n = 4
        with make_gateway(batch_window_s=0.05) as gateway:
            real_route = gateway._route
            routing = threading.Event()

            def slow_route(*args, **kwargs):
                routing.set()
                time.sleep(0.3)
                return real_route(*args, **kwargs)

            monkeypatch.setattr(gateway, "_route", slow_route)
            with ThreadPoolExecutor(max_workers=1) as pool:
                leader = pool.submit(gateway.submit, text, name="leader")
                assert routing.wait(timeout=10)
                # The leader is inside ``_route`` now; every duplicate
                # lands in that window.
                futures = [
                    gateway.submit(text, name=f"dup{i}")
                    for i in range(n - 1)
                ]
                results = [
                    f.result(timeout=30)
                    for f in [leader.result(timeout=30), *futures]
                ]
            assert gateway.counters["coalesced"] == n - 1
        assert all(r.status == "ok" for r in results)
        assert gateway.stats().per_shard[0]["counters"]["requests"] == 1

    def test_rejected_leader_releases_its_claim(self, monkeypatch):
        """A leader rejected at routing answers its waiters with the same
        rejection and frees the key for later submissions."""
        bad = "this is not IR"
        with make_gateway() as gateway:
            real_route = gateway._route
            routing = threading.Event()

            def slow_route(*args, **kwargs):
                routing.set()
                time.sleep(0.2)
                return real_route(*args, **kwargs)

            monkeypatch.setattr(gateway, "_route", slow_route)
            with ThreadPoolExecutor(max_workers=1) as pool:
                leader = pool.submit(gateway.submit, bad, name="leader")
                assert routing.wait(timeout=10)
                waiter = gateway.submit(bad, name="waiter")
                results = [leader.result(timeout=30).result(timeout=30),
                           waiter.result(timeout=30)]
            assert [r.status for r in results] == ["rejected", "rejected"]
            assert [r.name for r in results] == ["leader", "waiter"]
            assert "parse_error" in results[1].reason
            assert gateway.counters["coalesced"] == 1
            assert gateway._coalesce == {}
            again = gateway.submit(bad).result(timeout=30)
            assert again.status == "rejected"
            assert gateway.counters["coalesced"] == 1

    def test_coalesced_metric_published(self, text):
        registry, _ = obs.enable()
        try:
            with make_gateway() as gateway:
                futures = [gateway.submit(text) for _ in range(3)]
                for f in futures:
                    assert f.result(timeout=30).status == "ok"
            assert (
                registry.get_value("repro_gateway_coalesced_total") == 2
            )
        finally:
            obs.disable()
