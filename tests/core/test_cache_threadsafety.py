"""LRU cache thread-safety under the serving scheduler.

Regression for an audit finding: ``OptimizationService`` shares one
``MetricsEngine`` (hence its function-record and transition LRUs) between
client threads (``stats()``) and the scheduler thread, but ``LRUCache``
mutates an ``OrderedDict`` plus plain-int counters with no
synchronization — ``move_to_end``/``popitem`` racing ``put`` can corrupt
the linked list or lose counter updates. The fix is an optional
caller-supplied lock (``LRUCache(lock=...)``), threaded through
``MetricsEngine(threadsafe=True)``, which the service now requests.
"""

import threading

from repro.caching import LRUCache
from repro.core.metrics import MetricsEngine
from repro.workloads import ProgramProfile, generate_program


def _hammer(cache, n_threads=4, ops=3000, key_space=64):
    """Drive one cache from several threads; returns per-thread errors."""
    errors = []
    start = threading.Barrier(n_threads)

    def work(tid):
        try:
            start.wait(timeout=10)
            for i in range(ops):
                key = (tid * i) % key_space
                if i % 3 == 0:
                    cache.put(key, (tid, i))
                else:
                    cache.get(key)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(tid,)) for tid in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


class TestLockedCache:
    def test_two_threads_hammering_one_locked_cache(self):
        cache = LRUCache(capacity=32, lock=threading.Lock())
        errors = _hammer(cache, n_threads=2)
        assert errors == []
        stats = cache.stats
        # No lost updates: every operation is accounted for.
        assert stats.hits + stats.misses == 2 * 3000 * 2 // 3
        assert stats.size <= 32
        # The LRU structure is still internally consistent.
        assert len(cache._data) == stats.size

    def test_many_threads_with_evictions(self):
        cache = LRUCache(capacity=8, lock=threading.Lock())
        errors = _hammer(cache, n_threads=4, key_space=256)
        assert errors == []
        assert cache.stats.size <= 8
        assert cache.stats.evictions > 0

    def test_lock_is_optional_and_default_off(self):
        cache = LRUCache(capacity=4)
        assert cache._lock is None
        cache.put("a", 1)
        assert cache.get("a") == 1


class TestThreadsafeEngine:
    def test_threadsafe_engine_shares_one_lock_across_caches(self):
        engine = MetricsEngine(threadsafe=True)
        caches = [engine.functions, engine.transitions._cache]
        locks = {id(c._lock) for c in caches}
        assert None not in {c._lock for c in caches}
        assert len(locks) == 1

    def test_default_engine_is_lockless(self):
        engine = MetricsEngine()
        assert engine.functions._lock is None

    def test_concurrent_measure_is_consistent(self):
        engine = MetricsEngine(threadsafe=True)
        modules = [
            generate_program(
                ProgramProfile(name=f"ts{i}", seed=40 + i, segments=3)
            )
            for i in range(4)
        ]
        expected = [engine.size(m).total_bytes for m in modules]
        fresh = MetricsEngine(threadsafe=True)
        errors = []

        def work(idx):
            try:
                for _ in range(20):
                    assert fresh.size(modules[idx]).total_bytes == (
                        expected[idx]
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_service_engines_request_threadsafe(self):
        """The serving layer must build thread-safe engines (the audit's
        actual fix site)."""
        from repro import PosetRL
        from repro.serving import OptimizationService

        service = OptimizationService.from_agent(
            PosetRL(seed=0), batch_window_s=0.001
        )
        engine = service._engine_for(service.registry.active.action_space_kind)
        assert engine.functions._lock is not None

    def test_stats_from_client_threads_while_serving(self):
        """Two client threads poll ``stats()`` in a loop while the
        scheduler serves requests and fills the engine caches."""
        from repro import PosetRL
        from repro.ir.printer import print_module
        from repro.serving import OptimizationService

        texts = [
            print_module(generate_program(
                ProgramProfile(name=f"st{i}", seed=70 + i, segments=2)
            ))
            for i in range(4)
        ]
        service = OptimizationService.from_agent(
            PosetRL(seed=0), batch_window_s=0.001, result_cache_size=None
        )
        done = threading.Event()
        errors = []
        polls = [0, 0]

        def poll(k):
            try:
                while not done.is_set():
                    stats = service.stats()
                    for engine_stats in stats["metrics"].values():
                        assert engine_stats["functions"]["size"] <= (
                            engine_stats["functions"]["capacity"]
                        )
                    polls[k] += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with service:
            pollers = [
                threading.Thread(target=poll, args=(k,)) for k in range(2)
            ]
            for t in pollers:
                t.start()
            try:
                for _ in range(2):
                    for text in texts:
                        assert service.optimize(text).status == "ok"
            finally:
                done.set()
                for t in pollers:
                    t.join(timeout=30)
        assert not any(t.is_alive() for t in pollers)
        assert errors == []
        assert min(polls) > 0
        assert service.stats()["metrics"]
