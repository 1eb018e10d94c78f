"""Distributed actor-learner training: serial equivalence and determinism.

The pipeline's load-bearing guarantee mirrors the vectorized trainer's:
it is not a different algorithm. With one actor, synchronous chunking
(``chunk_size=1, broadcast_every=1``) and uniform replay, the run must
reproduce ``train_vectorized(n_envs=1)`` bit-for-bit — actions, replay
contents, losses, final weights, and every RNG stream including the ones
living in the actor subprocess. With more actors the schedule stays
deterministic (round-robin issue, in-order ingest), so a fixed seed
yields identical learner weights across independent cross-process runs.
"""

import multiprocessing as mp
import tempfile

import numpy as np
import pytest

from repro.core.agent_api import PosetRL
from repro.rl.dqn import AgentConfig
from repro.workloads import ProgramProfile, generate_program

EPISODE_LENGTH = 5


@pytest.fixture(scope="module")
def corpus():
    return [
        (
            f"prog{i}",
            generate_program(ProgramProfile(name=f"prog{i}", seed=i, segments=2)),
        )
        for i in range(3)
    ]


def _make_agent(seed=3, algo=None):
    config = AgentConfig(min_replay=8, batch_size=4, train_every=2,
                         target_sync_every=16)
    return PosetRL(seed=seed, episode_length=EPISODE_LENGTH,
                   agent_config=config, algo=algo)


def _assert_same_stream(state_a, state_b):
    assert np.array_equal(state_a[1], state_b[1])
    assert state_a[2] == state_b[2]


class TestSerialEquivalence:
    def test_one_actor_sync_is_bit_identical(self, corpus):
        """actors=1 + chunk_size=1 + broadcast_every=1 + uniform replay
        reproduces the vectorized (hence serial) trajectory exactly."""
        episodes = 6
        vec = _make_agent()
        vec_stats = vec.train_vectorized(corpus, episodes=episodes, n_envs=1)
        dist = _make_agent()
        dist_stats = dist.train_distributed(
            corpus, episodes=episodes, actors=1,
            chunk_size=1, broadcast_every=1,
        )

        assert len(vec_stats) == len(dist_stats) == episodes
        for v, d in zip(vec_stats, dist_stats):
            assert v.module == d.module
            assert v.actions == d.actions
            assert v.total_reward == d.total_reward
            assert v.final_size == d.final_size
            assert v.epsilon == d.epsilon

        # Replay contents: byte-identical, in insertion order.
        assert len(vec.agent.memory) == len(dist.agent.memory)
        for i in range(len(vec.agent.memory)):
            a, b = vec.agent.memory[i], dist.agent.memory[i]
            assert np.array_equal(a.state, b.state)
            assert np.array_equal(a.next_state, b.next_state)
            assert (a.action, a.reward, a.done) == (b.action, b.reward, b.done)

        # Learning: same updates, same final loss, identical weights.
        assert vec.agent.train_steps == dist.agent.train_steps > 0
        assert vec.agent.last_loss == dist.agent.last_loss
        for wa, wb in zip(
            vec.agent.online.get_weights(), dist.agent.online.get_weights()
        ):
            assert np.array_equal(wa, wb)

        # Learner-side replay-sampling stream ended in the same place.
        _assert_same_stream(
            vec.agent.memory._rng.get_state(),
            dist.agent.memory._rng.get_state(),
        )
        # Actor-side streams: the subprocess reports its end states; they
        # must match the serial agent's exploration RNG and the facade's
        # corpus-sampling RNG — the actor made exactly the serial draws.
        report = dist.last_distributed_report
        assert len(report.final_actor_stats) == 1
        final = report.final_actor_stats[0]
        _assert_same_stream(vec.agent._rng.get_state(), final.explore_rng_state)
        _assert_same_stream(vec._rng.get_state(), final.sample_rng_state)

    def test_report_health(self, corpus):
        dist = _make_agent(seed=11)
        dist.train_distributed(corpus, episodes=4, actors=1,
                               chunk_size=1, broadcast_every=1)
        report = dist.last_distributed_report
        assert report.clean_drain
        assert report.broadcasts >= 1
        # Synchronous mode: every chunk acted on the freshest weights.
        assert report.max_staleness == 0
        d = report.as_dict()
        assert d["n_actors"] == 1 and d["clean_drain"] is True


class TestCrossRunDeterminism:
    @pytest.mark.parametrize("algo", ["ddqn", "prioritized-ddqn", "ppo"])
    def test_same_seed_same_weights(self, corpus, algo):
        """Two independent multi-process runs with one seed finish with
        identical learner weights (and identical episode records)."""
        def run():
            rl = _make_agent(seed=5, algo=algo)
            stats = rl.train_distributed(corpus, episodes=6, actors=2,
                                         broadcast_every=2)
            net = rl.agent.net if algo == "ppo" else rl.agent.online
            return stats, net.get_weights(), rl.last_distributed_report

        stats_a, weights_a, report_a = run()
        stats_b, weights_b, report_b = run()
        assert report_a.clean_drain and report_b.clean_drain
        assert report_a.broadcasts == report_b.broadcasts >= 1
        for sa, sb in zip(stats_a, stats_b):
            assert sa.module == sb.module and sa.actions == sb.actions
        for wa, wb in zip(weights_a, weights_b):
            assert np.array_equal(wa, wb)

    def test_prioritized_run_reports_priority_stats(self, corpus):
        rl = _make_agent(seed=5, algo="prioritized-ddqn")
        rl.train_distributed(corpus, episodes=6, actors=2)
        report = rl.last_distributed_report
        assert report.priority_stats is not None
        assert report.priority_stats["total"] > 0
        assert rl.agent.train_steps > 0

    def test_ppo_distributed_trains(self, corpus):
        rl = _make_agent(seed=5, algo="ppo")
        rl.train_distributed(corpus, episodes=6, actors=2)
        assert rl.agent.train_steps > 0  # flush covers sub-horizon runs
        assert rl.last_distributed_report.clean_drain


class TestActorDeath:
    def test_killed_actor_raises_and_cleans_up(
        self, corpus, tmp_path, monkeypatch
    ):
        """An actor killed mid-run makes ``train_distributed`` raise (no
        hang), leaves no child process and removes the temporary
        snapshot directory."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        before = set(mp.active_children())
        killed = []

        def kill_one_actor(_stats):
            if not killed:
                victim = next(
                    p for p in mp.active_children() if p not in before
                )
                victim.kill()
                victim.join(timeout=10)
                killed.append(victim)

        rl = _make_agent(seed=17)
        with pytest.raises((EOFError, OSError)):
            rl.train_distributed(corpus, episodes=40, actors=2,
                                 callback=kill_one_actor)
        assert killed
        assert [p for p in mp.active_children() if p not in before] == []
        assert list(tmp_path.iterdir()) == []


class TestBudgetAndValidation:
    def test_budget_semantics_match_vectorized(self, corpus):
        rl = _make_agent(seed=7)
        stats = rl.train_distributed(corpus, total_steps=2 * EPISODE_LENGTH,
                                     actors=1)
        assert rl.last_distributed_report.total_steps >= 2 * EPISODE_LENGTH
        assert len(stats) >= 2

    def test_rejects_bad_arguments(self, corpus):
        rl = _make_agent()
        with pytest.raises(ValueError):
            rl.train_distributed(corpus)  # neither budget given
        with pytest.raises(ValueError):
            rl.train_distributed(corpus, total_steps=10, episodes=2)
        with pytest.raises(ValueError):
            rl.train_distributed(corpus, episodes=2, actors=0)
        with pytest.raises(ValueError):
            rl.train_distributed([], episodes=2)

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError):
            _make_agent(algo="a2c")
