"""Incremental metrics engine: engine == object-walk reference replay,
hit accounting, the function-record cache, no-op visibility, and the
shared-default-weights fix."""

import numpy as np
import pytest

import repro.core.metrics as metrics_mod
from repro.core import (
    MetricsEngine,
    PhaseOrderingEnv,
    PosetRL,
    RewardWeights,
)
from repro.core.metrics import FunctionRecord, Transition, TransitionCache
from repro.caching import LRUCache
from repro.testing.generator import FuzzProfile, generate_fuzz_program
from repro.workloads import ProgramProfile, generate_program, load_suite
from tests.metrics_reference import reference_measure, reference_replay

EVAL_SUITES = ("mibench", "spec2006", "spec2017")


def fixed_actions(env, seed, length=15):
    rng = np.random.RandomState(seed)
    return [int(rng.randint(env.num_actions)) for _ in range(length)]


@pytest.fixture(scope="module")
def module():
    return generate_program(ProgramProfile(name="mc", seed=23, segments=6))


def assert_matches_reference(env, infos, ref, label=""):
    """Every step of an env rollout equals the reference replay: sizes,
    throughputs, changed flags, rewards and states, compared exactly."""
    assert env.base_size == ref.base_size, label
    assert env.base_throughput == ref.base_throughput, label
    assert len(infos) == len(ref.steps), label
    for k, ((state, reward, info), want) in enumerate(zip(infos, ref.steps)):
        where = f"{label} step {k}"
        assert info.bin_size == want.bin_size, where
        assert info.throughput == want.throughput, where
        assert info.changed == want.changed, where
        assert reward == want.reward, where
        assert np.array_equal(state, want.state), where


def run_env(env, actions):
    """Reset and step ``env``; returns (reset state, [(state, reward, info)])."""
    first = env.reset()
    out = []
    for action in actions:
        state, reward, _, info = env.step(action)
        out.append((state, reward, info))
    return first, out


class TestEquivalence:
    @pytest.mark.parametrize("suite", EVAL_SUITES)
    def test_cached_rollout_bit_identical_on_suite(self, suite):
        """The engine-backed env must reproduce the object-walk reference
        replay exactly on every workload-suite module (sizes,
        throughputs, changed flags, rewards and state embeddings)."""
        for seed_offset, (name, mod) in enumerate(load_suite(suite)):
            env = PhaseOrderingEnv(mod)
            actions = fixed_actions(env, seed=seed_offset)
            first, infos = run_env(env, actions)
            ref = reference_replay(mod, actions)
            label = f"{suite}/{name}"
            assert np.array_equal(first, ref.base_state), label
            assert_matches_reference(env, infos, ref, label)

    def test_repeated_episode_stays_identical(self, module):
        """Transition-cache replay (episode 2+) must serve the exact
        metrics the reference replay computes."""
        env = PhaseOrderingEnv(module)
        # Distinct actions ⇒ distinct transition keys ⇒ a miss-only first
        # episode and a hit-only replay.
        actions = list(np.random.RandomState(99).permutation(env.num_actions)[:15])
        _, first = run_env(env, actions)
        assert not any(info.cache_hit for _, _, info in first)
        _, replay = run_env(env, actions)
        assert all(info.cache_hit for _, _, info in replay)
        ref = reference_replay(module, actions)
        assert_matches_reference(env, first, ref)
        assert_matches_reference(env, replay, ref)

    def test_revisited_episodes_match_reference(self, module):
        """An ε-greedy-style pool — three sequences revisited in turn —
        lands every episode on the reference replay's final size."""
        rng = np.random.RandomState(7)
        distinct = [
            [int(a) for a in rng.randint(0, 34, size=15)] for _ in range(3)
        ]
        references = [reference_replay(module, seq) for seq in distinct]
        env = PhaseOrderingEnv(module)
        for episode in range(6):
            k = episode % len(distinct)
            _, infos = run_env(env, distinct[k])
            assert_matches_reference(env, infos, references[k], f"ep {episode}")
        assert env.cache_stats()["transitions"]["hits"] > 0

    def test_shared_engine_across_envs(self, module):
        """PosetRL-style sharing: one engine, many envs over the same
        module — second env's episode is served from the cache."""
        engine = MetricsEngine()
        env1 = PhaseOrderingEnv(module, metrics=engine)
        actions = fixed_actions(env1, seed=3)
        env1.rollout(actions)
        env2 = PhaseOrderingEnv(module, metrics=engine)
        infos = env2.rollout(actions)
        assert all(i.cache_hit for i in infos)


class TestTransitionAccounting:
    def test_hit_miss_counters(self, module):
        env = PhaseOrderingEnv(module)
        actions = list(range(10))  # distinct ⇒ distinct transition keys
        env.rollout(actions)
        stats = env.cache_stats()["transitions"]
        assert stats["misses"] == 10
        assert stats["hits"] == 0
        env.rollout(actions)
        stats = env.cache_stats()["transitions"]
        assert stats["hits"] == 10
        assert stats["misses"] == 10

    def test_prefix_sharing_between_sequences(self, module):
        """Two action sequences sharing a prefix share cached transitions."""
        env = PhaseOrderingEnv(module)
        env.rollout([1, 2, 3, 4])
        before = env.cache_stats()["transitions"]
        env.rollout([1, 2, 3, 7])
        after = env.cache_stats()["transitions"]
        assert after["hits"] - before["hits"] == 3
        assert after["misses"] - before["misses"] == 1

    def test_eviction_counting(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.stats.evictions == 1
        assert "a" not in cache and "c" in cache

    def test_transition_cache_capacity(self):
        tc = TransitionCache(capacity=1)
        t = Transition(
            result_fingerprint="x", changed=False, size=1, throughput=1.0,
            cycles=1.0, embedding=np.zeros(4),
        )
        tc.put("fp1", 0, t)
        tc.put("fp2", 0, t)
        assert len(tc) == 1
        assert tc.stats.evictions == 1

    def test_function_cache_hits_on_partial_change(self, module):
        """A step that leaves most functions untouched re-measures only
        the changed ones: the function-record cache must show hits."""
        engine = MetricsEngine()
        env = PhaseOrderingEnv(module, metrics=engine)
        env.reset()
        for action in fixed_actions(env, seed=13, length=8):
            env.step(action)
        stats = engine.stats()
        assert stats["functions"]["hits"] > 0
        # One record build per miss, never more.
        assert stats["flat"]["builds"] == stats["functions"]["misses"]


class TestFunctionRecords:
    def test_records_hold_frozen_results(self):
        """One FunctionRecord per defined function, holding results only,
        with an embedding no lookup can mutate. (Retention and per-function
        invalidation are covered in tests/ir/test_flat_core.py.)"""
        engine = MetricsEngine()
        module = generate_fuzz_program(FuzzProfile(seed=4))
        fps = engine.function_fingerprints(module)
        engine.measure(module, fps)
        keys = [fps[fn.name] for fn in module.functions if not fn.is_declaration]
        assert keys and len(engine.functions) == len(keys)
        for key in keys:
            record = engine.functions.peek(key)
            assert isinstance(record, FunctionRecord)
            assert not record.embedding.flags.writeable

    def test_cache_never_exceeds_capacity(self, monkeypatch):
        """Capacity bounds the one cache; an eviction between the size
        lookup and the MCA/embedding reads rebuilds, still exactly."""
        monkeypatch.setattr(metrics_mod, "FUNCTION_CACHE_SIZE", 2)
        engine = MetricsEngine()
        assert engine.functions.capacity == 2
        for seed in (0, 3, 6):
            module = generate_fuzz_program(FuzzProfile(seed=seed))
            assert sum(not f.is_declaration for f in module.functions) > 2
            got = engine.measure(module)
            assert len(engine.functions) <= 2
            size, mca, embedding = reference_measure(module)
            assert got.size_report == size
            assert got.mca == mca
            assert np.array_equal(got.embedding, embedding)
        assert engine.functions.stats.evictions > 0


class TestNoOpVisibility:
    def test_noop_actions_recorded_in_stepinfo(self, module):
        """Re-applying the same subsequence at a fixpoint is a no-op and
        must be visible as ``changed=False`` with unchanged metrics."""
        env = PhaseOrderingEnv(module)
        env.reset()
        action = 0
        # Drive to the action's fixpoint, then one more application.
        last = None
        for _ in range(6):
            _, _, _, info = env.step(action)
            last = info
        assert last is not None and not last.changed
        assert last.bin_size == env.last_size

    def test_noop_has_zero_reward(self, module):
        env = PhaseOrderingEnv(module, episode_length=8)
        env.reset()
        rewards = []
        for _ in range(8):
            _, reward, _, info = env.step(2)
            rewards.append((reward, info.changed))
        # Once the fixpoint is reached every later step is a free no-op.
        tail = [r for r, changed in rewards if not changed]
        assert all(r == 0.0 for r in tail)

    def test_uncached_env_also_records_changed_flag(self, module):
        """The uncached reference replay sees the same fixpoint no-op."""
        env = PhaseOrderingEnv(module)
        _, infos = run_env(env, [0] * 6)
        ref = reference_replay(module, [0] * 6)
        assert infos[-1][2].changed is False
        assert ref.steps[-1].changed is False
        assert_matches_reference(env, infos, ref)


class TestWeightsDefault:
    def test_env_weights_not_shared_between_instances(self, module):
        a = PhaseOrderingEnv(module)
        b = PhaseOrderingEnv(module)
        assert a.weights is not b.weights
        assert a.weights == RewardWeights()

    def test_agent_weights_not_shared_between_instances(self):
        a = PosetRL(seed=0)
        b = PosetRL(seed=1)
        assert a.weights is not b.weights

    def test_explicit_weights_still_respected(self, module):
        w = RewardWeights(alpha=1.0, beta=0.0)
        env = PhaseOrderingEnv(module, weights=w)
        assert env.weights is w


class TestEngineLifecycle:
    def test_clear_resets_counters_and_contents(self, module):
        engine = MetricsEngine()
        env = PhaseOrderingEnv(module, metrics=engine)
        env.rollout([0, 1, 2])
        assert len(engine.transitions) > 0
        engine.clear()
        assert len(engine.transitions) == 0
        assert len(engine.functions) == 0
        stats = engine.stats()
        assert stats["functions"]["hits"] == 0
        assert stats["flat"]["builds"] == 0

    def test_stats_shape(self, module):
        env = PhaseOrderingEnv(module)
        env.rollout([0, 1])
        stats = env.cache_stats()
        assert {"functions", "transitions", "flat"} <= set(stats)
        assert stats["flat"]["builds"] > 0
        assert stats["flat"]["row_rebuilds"] > 0
        for alias in ("size", "mca", "embedding"):
            assert stats[alias] == stats["functions"]
