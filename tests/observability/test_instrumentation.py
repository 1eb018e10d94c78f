"""Layer instrumentation: passes, caches, training, fuzz campaigns.

Every test enables a fresh registry/tracer and restores the no-op
singletons afterwards — the gate for all instrumentation is the global
state in :mod:`repro.observability`.
"""

import gc
import json

import numpy as np
import pytest

from repro import observability as obs
from repro.caching import LRUCache
from repro.core.metrics import MetricsEngine
from repro.passes import PassManager
from repro.rl.dqn import AgentConfig, DQNAgent
from repro.testing.campaign import FuzzConfig, run_campaign
from repro.testing.oracle import DifferentialOracle
from repro.testing.generator import FuzzProfile, generate_fuzz_program
from repro.workloads import ProgramProfile, generate_program


@pytest.fixture
def enabled():
    registry, tracer = obs.enable()
    try:
        yield registry, tracer
    finally:
        obs.disable()


def _module(seed=14):
    return generate_program(
        ProgramProfile(name="inst", seed=seed, segments=5)
    )


class TestPassPipeline:
    def test_run_publishes_per_pass_series(self, enabled):
        registry, _ = enabled
        pm = PassManager(["mem2reg", "dce"])
        pm.run(_module())
        for name in ("mem2reg", "dce"):
            labels = {"pass": name}
            assert registry.get_value("repro_pass_runs_total", labels) == 1
            assert registry.get_value(
                "repro_pass_seconds_total", labels
            ) > 0.0

    def test_run_produces_a_pipeline_trace(self, enabled):
        _, tracer = enabled
        PassManager(["mem2reg", "instcombine", "dce"]).run(_module())
        trace = tracer.traces()[-1]
        assert trace.name == "pipeline"
        assert [c.name for c in trace.children] == [
            "mem2reg", "instcombine", "dce",
        ]

    def test_disabled_run_keeps_stats_off(self):
        pm = PassManager(["dce"])
        pm.run(_module())
        assert pm.stats is None


class TestCacheMirror:
    def test_named_cache_mirrors_hits_misses_evictions(self, enabled):
        registry, _ = enabled
        cache = LRUCache(capacity=2, name="unit")
        labels = {"cache": "unit"}
        cache.get("a")                    # miss
        cache.put("a", 1)
        cache.get("a")                    # hit
        cache.put("b", 2)
        cache.put("c", 3)                 # evicts "a"
        assert registry.get_value("repro_cache_hits_total", labels) == 1
        assert registry.get_value("repro_cache_misses_total", labels) == 1
        assert registry.get_value("repro_cache_evictions_total", labels) == 1
        # The plain .stats view stays authoritative and in agreement.
        assert cache.stats.hits == 1
        assert cache.stats.evictions == 1

    def test_unnamed_cache_creates_no_series(self, enabled):
        registry, _ = enabled
        cache = LRUCache(capacity=2)
        cache.get("a")
        assert registry.collect() == []

    def test_cache_built_while_disabled_stays_uninstrumented(self):
        cache = LRUCache(capacity=2, name="early")
        registry, _ = obs.enable()
        try:
            cache.get("a")
            assert registry.collect() == []
        finally:
            obs.disable()

    def test_engine_caches_publish_under_their_names(self, enabled):
        registry, _ = enabled
        engine = MetricsEngine()
        module = _module()
        engine.measure(module)
        engine.measure(module)
        for name in ("functions", "transitions"):
            assert registry.get_value(
                "repro_cache_misses_total", {"cache": name}
            ) is not None
        assert registry.get_value(
            "repro_cache_hits_total", {"cache": "functions"}
        ) >= 1
        # One record cache replaces the per-quantity caches.
        for gone in ("size", "mca", "embedding", "flat"):
            assert registry.get_value(
                "repro_cache_hits_total", {"cache": gone}
            ) is None

    def test_dead_engines_leave_no_collect_hooks(self, enabled):
        registry, _ = enabled
        live = MetricsEngine()
        baseline = len(registry._collect_hooks)
        for _ in range(100):
            MetricsEngine()
        gc.collect()
        registry.collect()
        assert len(registry._collect_hooks) == baseline
        # The live engine's cache counters still sync on read.
        labels = {"cache": "functions"}
        hits_before = registry.get_value("repro_cache_hits_total", labels)
        module = _module()
        live.measure(module)
        live.measure(module)
        assert registry.get_value(
            "repro_cache_hits_total", labels
        ) > hits_before


class TestTrainingMetrics:
    def test_train_step_publishes_loss_epsilon_replay(self, enabled):
        registry, _ = enabled
        config = AgentConfig(
            state_dim=4, num_actions=3, hidden=(8,),
            min_replay=8, batch_size=4, train_every=2, seed=3,
        )
        agent = DQNAgent(config)
        rng = np.random.RandomState(0)
        for _ in range(12):
            s, s2 = rng.randn(4), rng.randn(4)
            agent.remember(s, 1, 0.5, s2, False)
        assert agent.train_steps > 0
        assert registry.get_value("repro_train_updates_total") == (
            agent.train_steps
        )
        assert registry.get_value("repro_train_loss") == agent.last_loss
        assert registry.get_value("repro_train_replay_size") == len(
            agent.memory
        )
        eps = registry.get_value("repro_train_epsilon")
        assert eps is not None and 0.0 <= eps <= 1.0


class TestOracleInstrumentation:
    def test_check_publishes_pass_metrics_and_sequence_trace(self, enabled):
        registry, tracer = enabled
        module = generate_fuzz_program(FuzzProfile(name="f", seed=1))
        oracle = DifferentialOracle()
        result = oracle.check(module, ["mem2reg", "dce"])
        assert result.kind == "ok"
        assert registry.get_value(
            "repro_pass_runs_total", {"pass": "mem2reg"}
        ) == 1
        trace = tracer.traces()[-1]
        assert trace.name == "sequence"
        assert [c.name for c in trace.children] == ["mem2reg", "dce"]


class TestCampaignSnapshot:
    def test_snapshot_path_enables_and_writes_then_restores(self, tmp_path):
        path = tmp_path / "fuzz.json"
        assert obs.enabled() is False
        report = run_campaign(
            FuzzConfig(seeds=2, sequences="oz", snapshot_path=path)
        )
        assert report.seeds_run == 2
        assert obs.enabled() is False  # restored what it enabled
        snap = json.loads(path.read_text())
        names = {f["name"] for f in snap["metrics"]}
        assert "repro_pass_runs_total" in names
        assert snap["traces"], "campaign should record sequence traces"
