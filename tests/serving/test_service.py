"""Optimization service: correctness, result cache, robustness guard."""

import gc
import sys
import threading
import weakref

import pytest

from repro import PosetRL
from repro.core.environment import PhaseOrderingEnv
from repro.ir.module import Module
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.verifier import VerificationError, verify_module
from repro.serving import OptimizationService, request_pool, run_load
from repro.serving import service as service_mod
from repro.workloads import ProgramProfile, generate_program


@pytest.fixture(scope="module")
def modules():
    return [
        generate_program(ProgramProfile(name=f"svc{i}", seed=70 + i, segments=2))
        for i in range(3)
    ]


@pytest.fixture(scope="module")
def texts(modules):
    return [print_module(m) for m in modules]


@pytest.fixture()
def agent():
    return PosetRL(seed=0)


def _oz_text(text):
    """The printed ``-Oz`` result of a fresh parse of ``text``."""
    from repro.passes.pipelines import build_pipeline

    module = parse_module(text)
    build_pipeline("Oz").run(module)
    return print_module(module)


def make_service(agent, **kwargs):
    kwargs.setdefault("batch_window_s", 0.001)
    return OptimizationService.from_agent(agent, **kwargs)


class TestBasicServing:
    def test_result_matches_serial_predict(self, agent, modules, texts):
        with make_service(agent) as svc:
            result = svc.optimize(texts[0], name="m0")
        assert result.status == "ok"
        assert result.model_version == "v1"
        assert result.action_space == "odg"
        # Same policy, same greedy rollout as the one-module API.
        assert result.actions == agent.predict(modules[0])
        assert result.passes == agent.predicted_pass_sequence(result.actions)
        assert len(result.actions) == agent.episode_length
        assert result.base_size > 0
        assert result.optimized_size > 0
        assert result.optimized_ir is not None
        assert "define" in result.optimized_ir
        assert result.latency_s > 0

    def test_optimized_ir_is_equivalent_to_apply_actions(self, agent, texts):
        with make_service(agent) as svc:
            result = svc.optimize(texts[1])
        # The served IR verifies and matches the offline apply_actions
        # result structurally (value *names* may differ between the
        # incremental env path and the one-shot apply path).
        served = parse_module(result.optimized_ir)
        verify_module(served)
        expected = agent.apply_actions(parse_module(texts[1]), result.actions)
        assert served.instruction_count == expected.instruction_count
        assert agent.metrics.size(served).total_bytes == result.optimized_size
        assert (
            agent.metrics.size(expected).total_bytes == result.optimized_size
        )

    def test_include_ir_false_omits_text(self, agent, texts):
        with make_service(agent, include_ir=False) as svc:
            result = svc.optimize(texts[0])
        assert result.status == "ok"
        assert result.optimized_ir is None

    def test_counters_and_stats_shape(self, agent, texts):
        with make_service(agent) as svc:
            svc.optimize(texts[0])
            stats = svc.stats()
        assert svc.counters["requests"] == 1
        assert svc.counters["ok"] == 1
        assert svc.counters["batched_steps"] == agent.episode_length
        assert "v1" in stats["models"]
        assert "result_cache" in stats
        assert stats["admission"]["size"] == 1
        assert "odg" in stats["metrics"]

    def test_submit_after_stop_raises(self, agent, texts):
        svc = make_service(agent)
        svc.start()
        svc.stop()
        with pytest.raises(RuntimeError):
            svc.submit(texts[0])

    def test_stop_drains_queued_work(self, agent, texts):
        svc = make_service(agent)
        svc.start()
        futures = [svc.submit(t) for t in texts]
        svc.stop()
        for future in futures:
            assert future.result(timeout=1).status == "ok"


class TestResultCache:
    def test_repeat_submission_is_bit_identical(self, agent, texts):
        with make_service(agent) as svc:
            first = svc.optimize(texts[0], name="a")
            second = svc.optimize(texts[0], name="b")
        assert not first.cache_hit
        assert second.cache_hit
        # The cached report (everything but per-request fields) is the
        # recorded one, verbatim.
        assert second.report() == first.report()
        assert svc.counters["cache_hits"] == 1
        assert svc.result_cache.stats.hits == 1

    def test_in_flight_duplicates_give_one_answer(self, agent, texts):
        """Two in-flight requests with one fingerprint whose rollouts
        print differently (other local names) get the same report, and
        the cache keeps the first one."""
        renamed = parse_module(texts[0])
        for fn in renamed.functions:
            for inst in fn.instructions():
                if inst.name:
                    inst.name = "r." + inst.name
        variant = print_module(renamed)
        with make_service(agent) as svc:
            alone = svc.optimize(variant, name="alone")
        assert alone.status == "ok"
        with make_service(agent, batch_window_s=0.05) as svc:
            first = svc.submit(texts[0], name="a")
            second = svc.submit(variant, name="b")
            a, b = first.result(timeout=60), second.result(timeout=60)
            repeat = svc.optimize(variant, name="c")
        assert a.status == b.status == "ok"
        assert not a.cache_hit and not b.cache_hit  # both rolled out
        assert alone.optimized_ir != a.optimized_ir
        assert (a.name, b.name, repeat.name) == ("a", "b", "c")
        assert b.report() == a.report()
        assert repeat.cache_hit and repeat.report() == a.report()

    def test_cache_hit_runs_no_pass_or_measurement_code(self, agent, texts):
        with make_service(agent) as svc:
            svc.optimize(texts[0])
            before = svc.stats()["metrics"]
            ticks_before = svc.counters["batch_ticks"]
            hit = svc.optimize(texts[0])
            after = svc.stats()["metrics"]
        assert hit.cache_hit
        # No measurement cache was even consulted, and the scheduler
        # never ticked: the request was answered at admission.
        assert after == before
        assert svc.counters["batch_ticks"] == ticks_before

    def test_structural_hit_across_textual_variants(self, agent, texts):
        variant = "; a leading comment changes the text, not the module\n" + texts[0]
        with make_service(agent) as svc:
            first = svc.optimize(texts[0])
            second = svc.optimize(variant)
        assert second.cache_hit
        assert second.fingerprint == first.fingerprint
        assert second.report() == first.report()

    def test_cache_is_model_version_scoped(self, agent, texts):
        other = PosetRL(seed=99)
        with make_service(agent) as svc:
            svc.optimize(texts[0])
            svc.registry.register(
                other.agent.online, action_space="odg", version="v2"
            )
            svc.registry.activate("v2")
            result = svc.optimize(texts[0])
        assert not result.cache_hit
        assert result.model_version == "v2"

    def test_disabled_cache_never_hits(self, agent, texts):
        with make_service(agent, result_cache_size=None) as svc:
            svc.optimize(texts[0])
            result = svc.optimize(texts[0])
        assert not result.cache_hit
        assert svc.result_cache is None


class TestBoundedMemory:
    def test_admission_cache_bounds_retained_modules(self, agent,
                                                      monkeypatch):
        """Without a result cache (the learning loop's setting), the
        admission cache holds no module: once stopped, the service keeps
        no parsed module and no environment. An evicted text is parsed
        again and answered as before."""
        monkeypatch.setattr(service_mod, "ADMISSION_CACHE_SIZE", 4)
        parsed, envs = [], []
        real_parse = service_mod.parse_module

        def tracking_parse(text):
            module = real_parse(text)
            parsed.append(weakref.ref(module))
            return module

        class TrackedEnv(PhaseOrderingEnv):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                envs.append(weakref.ref(self))

        monkeypatch.setattr(service_mod, "parse_module", tracking_parse)
        monkeypatch.setattr(service_mod, "PhaseOrderingEnv", TrackedEnv)
        programs = [
            print_module(generate_program(
                ProgramProfile(name=f"mem{i}", seed=200 + i, segments=1)
            ))
            for i in range(12)
        ]
        svc = make_service(agent, result_cache_size=None).start()
        first = [svc.optimize(text) for text in programs]
        again = svc.optimize(programs[0])
        svc.stop()
        gc.collect()
        assert [r.status for r in first] == ["ok"] * 12
        assert len(parsed) == 13  # the evicted first text, parsed again
        assert all(ref() is None for ref in parsed)
        assert envs and all(ref() is None for ref in envs)
        assert again.ok
        assert again.report() == first[0].report()

    def test_cache_churn_under_concurrent_clients(self, agent, texts,
                                                   monkeypatch):
        """More client threads than cores over caches smaller than the
        working set: every answer matches its text's first, and the
        locked counters lose no update."""
        monkeypatch.setattr(service_mod, "ADMISSION_CACHE_SIZE", 2)
        pool = texts + ["; variant\n" + t for t in texts]
        n_threads, per_thread = 6, 8
        results = [[] for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with make_service(agent, result_cache_size=2,
                              include_ir=False) as svc:
                def client(i):
                    for j in range(per_thread):
                        k = (i + j) % len(pool)
                        results[i].append((k, svc.submit(pool[k])))

                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                answers = [(k, f.result(timeout=60))
                           for rows in results for k, f in rows]
                stats = svc.stats()
        finally:
            sys.setswitchinterval(interval)
        n = n_threads * per_thread
        assert [r.status for _, r in answers] == ["ok"] * n
        first = {}
        for k, r in answers:
            report = first.setdefault(k % len(texts), r.report())
            assert r.report() == report
        admission, cached = stats["admission"], stats["result_cache"]
        assert admission["hits"] + admission["misses"] == n
        assert admission["size"] <= 2 and cached["size"] <= 2
        assert cached["hits"] + cached["misses"] == n
        assert svc.counters["requests"] == n
        assert svc.counters["ok"] + svc.counters["cache_hits"] == n


class TestNoClone:
    @pytest.mark.parametrize("semantic_check", [False, True])
    def test_ok_session_never_clones(self, agent, texts, monkeypatch,
                                     semantic_check):
        """The session's env optimizes the module parsed for it in place;
        the semantic check compares against a fresh parse of the text."""
        clones = []
        real_clone = Module.clone

        def counting_clone(self):
            clones.append(self)
            return real_clone(self)

        monkeypatch.setattr(Module, "clone", counting_clone)
        with make_service(agent, result_cache_size=None,
                          semantic_check=semantic_check) as svc:
            first = svc.optimize(texts[0])
            again = svc.optimize(texts[0])  # admission hit: parsed again
        assert first.ok and again.ok
        assert again.report() == first.report()
        assert clones == []

    def test_single_episode_env_refuses_a_second_episode(self, modules):
        env = PhaseOrderingEnv._single_episode(modules[0].clone())
        with pytest.raises(RuntimeError):
            env.reset()


class TestGuard:
    def test_oversized_module_rejected(self, agent, texts):
        with make_service(agent, max_instructions=5) as svc:
            result = svc.optimize(texts[0])
        assert result.status == "rejected"
        assert "oversized" in result.reason
        assert "limit of 5" in result.reason
        assert svc.counters["rejected"] == 1
        assert svc.error_counts == {"oversized": 1}

    def test_parse_error_rejected(self, agent):
        with make_service(agent) as svc:
            result = svc.optimize("define i32 @broken(")
            again = svc.optimize("define i32 @broken(")
        assert result.status == "rejected"
        assert "parse_error" in result.reason
        # the rejection memo answers the repeat without re-parsing
        assert again.status == "rejected"
        assert svc.error_counts["parse_error"] == 2

    def test_timeout_falls_back_to_oz(self, agent, modules, texts):
        with make_service(agent, request_timeout_s=0.0) as svc:
            result = svc.optimize(texts[0], timeout=30.0)
        assert result.status == "fallback"
        assert result.reason.startswith("timeout")
        assert svc.counters["fallbacks"] == 1
        assert svc.error_counts == {"timeout": 1}
        # the fallback really is the -Oz pipeline
        from repro.core.evaluate import optimize_with_oz
        oz = optimize_with_oz(modules[0], "x86-64")
        assert result.optimized_size == oz["size"]
        assert result.passes  # the stock sequence is reported

    def test_verifier_failure_falls_back(self, agent, texts, monkeypatch):
        calls = {"n": 0}

        def broken_verify(module):
            calls["n"] += 1
            raise VerificationError("injected: bad IR")

        monkeypatch.setattr(service_mod, "verify_module", broken_verify)
        with make_service(agent) as svc:
            result = svc.optimize(texts[0])
        assert calls["n"] == 1
        assert result.status == "fallback"
        assert "verify_error" in result.reason
        assert "injected" in result.reason
        assert svc.error_counts == {"verify_error": 1}

    def test_fallback_after_steps_reports_oz_of_the_input(
        self, agent, modules, texts, monkeypatch
    ):
        """The env has optimized the session's module in place when the
        verifier trips; the fallback still reports ``-Oz`` of the
        unmodified input."""
        from repro.core.evaluate import optimize_with_oz

        seen = []

        def broken_verify(module):
            seen.append(print_module(module))
            raise VerificationError("injected: bad IR")

        monkeypatch.setattr(service_mod, "verify_module", broken_verify)
        with make_service(agent) as svc:
            result = svc.optimize(texts[0])
        assert result.status == "fallback"
        assert "verify_error" in result.reason
        assert seen and seen[0] != texts[0]  # the env did change it
        oz = optimize_with_oz(modules[0], "x86-64")
        assert result.base_size == agent.metrics.size(modules[0]).total_bytes
        assert result.optimized_size == oz["size"]
        assert result.optimized_ir == _oz_text(texts[0])

    def test_pass_failure_mid_episode_falls_back_to_oz_of_the_input(
        self, agent, modules, texts, monkeypatch
    ):
        from repro.core.evaluate import optimize_with_oz

        real_step = PhaseOrderingEnv.step

        def step_then_crash(self, action):
            if self.steps == 5:
                raise RuntimeError("injected pass crash")
            return real_step(self, action)

        monkeypatch.setattr(PhaseOrderingEnv, "step", step_then_crash)
        with make_service(agent) as svc:
            result = svc.optimize(texts[0])
        assert result.status == "fallback"
        assert "step 5" in result.reason
        oz = optimize_with_oz(modules[0], "x86-64")
        assert result.optimized_size == oz["size"]
        assert result.optimized_ir == _oz_text(texts[0])

    def test_pass_failure_falls_back(self, agent, texts, monkeypatch):
        from repro.core.environment import PhaseOrderingEnv

        def exploding_step(self, action):
            raise RuntimeError("injected pass crash")

        monkeypatch.setattr(PhaseOrderingEnv, "step", exploding_step)
        with make_service(agent) as svc:
            result = svc.optimize(texts[0])
        assert result.status == "fallback"
        assert "pass_error" in result.reason
        assert "injected pass crash" in result.reason
        assert svc.error_counts == {"pass_error": 1}

    def test_verification_is_memoized_per_result(self, agent, texts,
                                                 monkeypatch):
        calls = {"n": 0}
        real_verify = service_mod.verify_module

        def counting_verify(module):
            calls["n"] += 1
            return real_verify(module)

        monkeypatch.setattr(service_mod, "verify_module", counting_verify)
        with make_service(agent, result_cache_size=None) as svc:
            svc.optimize(texts[0])
            svc.optimize(texts[0])
        # same module, same policy, same result fingerprint: one verify
        assert calls["n"] == 1


class TestLoadGenerator:
    def test_closed_loop_load(self, agent, modules, texts):
        corpus = [(f"m{i}", t) for i, t in enumerate(texts)]
        with make_service(agent, include_ir=False) as svc:
            report = run_load(svc, request_pool(corpus, 12), concurrency=4)
        assert report.requests == 12
        assert report.status_counts == {"ok": 12}
        # Each distinct module misses at least once; concurrent first
        # submissions of the same module may race past the cache, so the
        # exact hit count is not deterministic.
        assert 0 < report.cache_hits <= 12 - len(texts)
        assert report.throughput_rps > 0
        assert 0 < report.p50_ms <= report.p95_ms <= report.p99_ms
        payload = report.as_dict()
        assert payload["latency_ms"]["p99"] >= payload["latency_ms"]["p50"]

    def test_empty_pool_rejected(self, agent):
        with make_service(agent) as svc:
            with pytest.raises(ValueError):
                run_load(svc, [], concurrency=2)
