"""One training loop: serial equivalence at n_envs=1, batched sanity.

The load-bearing guarantee of the training loop is that it is the
paper's algorithm: with ``n_envs=1`` and the same seed, ``train`` and
``train_vectorized`` consume the same RNG streams and produce exactly
the trajectory of the per-transition reference loop in
``tests/training_reference.py`` — module sampling order, action
sequences, replay (or PPO lane) contents, training losses, and final
network weights — for every learner.
"""

import numpy as np
import pytest

from repro.core.agent_api import PosetRL, TrainThroughput
from repro.rl.dqn import AgentConfig
from repro.rl.ppo import PPOConfig
from repro.workloads import ProgramProfile, generate_program

from tests.training_reference import reference_train

EPISODE_LENGTH = 5
ALGOS = ["ddqn", "dqn", "prioritized-ddqn", "ppo"]


@pytest.fixture(scope="module")
def corpus():
    return [
        (
            f"prog{i}",
            generate_program(ProgramProfile(name=f"prog{i}", seed=i, segments=2)),
        )
        for i in range(3)
    ]


def _make_agent(seed=3, algo="ddqn"):
    # Small min_replay / horizon so training updates (and their sampling
    # RNG) are exercised inside the comparison window.
    config = AgentConfig(min_replay=8, batch_size=4, train_every=2,
                        target_sync_every=16)
    ppo_config = PPOConfig(horizon=8, minibatch_size=4, epochs=2)
    return PosetRL(seed=seed, episode_length=EPISODE_LENGTH,
                   agent_config=config, ppo_config=ppo_config, algo=algo)


def _rng_position(rng):
    # key array AND stream position: equal positions mean the runs made
    # exactly the same draws.
    state = rng.get_state()
    return state[1].tolist(), state[2]


def _lane_snapshot(rl):
    """PPO lane buffers at an episode boundary (before any flush)."""
    return {
        lane: (
            np.array(buf.states), list(buf.actions), list(buf.rewards),
            np.array(buf.next_states), list(buf.dones),
            list(buf.logprobs), list(buf.values),
        )
        for lane, buf in rl.agent._lanes.items()
    }


def _learner_state(rl):
    """Everything a trained learner carries that the loop could perturb."""
    agent = rl.agent
    state = {
        "steps": agent.steps,
        "train_steps": agent.train_steps,
        "last_loss": agent.last_loss,
        "facade_rng": _rng_position(rl._rng),
        "agent_rng": _rng_position(agent._rng),
    }
    if rl.algo == "ppo":
        state["weights"] = agent.net.get_weights()
        state["updates"] = agent.updates
        state["last_stats"] = dict(agent.last_stats)
        return state
    memory = agent.memory
    state["weights"] = agent.online.get_weights() + agent.target.get_weights()
    state["memory_rng"] = _rng_position(memory._rng)
    state["replay"] = [
        (t.state, t.next_state, t.action, t.reward, t.done)
        for t in (memory[i] for i in range(len(memory)))
    ]
    if rl.algo == "prioritized-ddqn":
        state["priorities"] = memory.tree._tree.copy()
    return state


def _assert_same(a, b, path="state"):
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            _assert_same(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), path
    else:
        assert a == b, path


def _run(algo, corpus, episodes, mode):
    """Train one fresh facade; returns (episode rows, lanes, learner)."""
    rl = _make_agent(algo=algo)
    lanes = []

    def on_episode(record):
        if algo == "ppo":
            lanes.append(_lane_snapshot(rl))

    if mode == "reference":
        stats = reference_train(rl, corpus, episodes, callback=on_episode)
    elif mode == "train":
        stats = rl.train(corpus, episodes=episodes, callback=on_episode)
    else:
        stats = rl.train_vectorized(
            corpus, episodes=episodes, n_envs=1, callback=on_episode
        )
    rows = [
        (s.episode, s.module, s.actions, s.total_reward, s.final_size,
         s.epsilon)
        for s in stats
    ]
    return rows, lanes, _learner_state(rl)


@pytest.mark.parametrize("algo", ALGOS)
class TestSerialEquivalence:
    def test_n_envs_1_is_trajectory_identical(self, corpus, algo):
        episodes = 6
        reference = _run(algo, corpus, episodes, "reference")
        rows, lanes, learner = reference
        assert len(rows) == episodes
        assert learner["train_steps"] > 0
        assert len(lanes) == (episodes if algo == "ppo" else 0)
        for mode in ("train", "train_vectorized"):
            _assert_same(reference, _run(algo, corpus, episodes, mode), mode)

    def test_per_episode_loss_sequence_identical(self, corpus, algo):
        """The loss visible after each episode matches the reference."""

        def losses(mode):
            rl = _make_agent(algo=algo)
            seq = []

            def cb(record):
                seq.append((record.total_reward, rl.agent.last_loss))

            if mode == "reference":
                reference_train(rl, corpus, 4, callback=cb)
            else:
                rl.train(corpus, episodes=4, callback=cb)
            return seq

        assert losses("reference") == losses("train")


class TestBatchedTraining:
    def test_n_envs_4_trains_and_reports(self, corpus):
        agent = _make_agent()
        stats = agent.train_vectorized(corpus, total_steps=40, n_envs=4)
        assert len(stats) == 40 // EPISODE_LENGTH
        assert all(len(s.actions) == EPISODE_LENGTH for s in stats)
        assert agent.agent.steps == 40
        report = agent.last_train_throughput
        assert isinstance(report, TrainThroughput)
        assert report.n_envs == 4 and report.total_steps == 40
        assert report.steps_per_second > 0
        assert report.episodes == len(stats)
        d = report.as_dict()
        assert d["episodes_per_second"] > 0

    def test_train_reports_one_env(self, corpus):
        agent = _make_agent()
        stats = agent.train(corpus, episodes=2)
        report = agent.last_train_throughput
        assert report.n_envs == 1
        assert report.episodes == len(stats) == 2
        assert report.total_steps == 2 * EPISODE_LENGTH

    def test_history_extended(self, corpus):
        agent = _make_agent()
        agent.train_vectorized(corpus, total_steps=10, n_envs=2)
        agent.train_vectorized(corpus, total_steps=10, n_envs=2)
        assert len(agent.train_history) == 4

    def test_argument_validation(self, corpus):
        agent = _make_agent()
        with pytest.raises(ValueError):
            agent.train_vectorized(corpus)  # neither budget given
        with pytest.raises(ValueError):
            agent.train_vectorized(corpus, total_steps=10, episodes=2)
        with pytest.raises(ValueError):
            agent.train_vectorized(corpus, total_steps=0)
        with pytest.raises(ValueError):
            agent.train_vectorized([], total_steps=10)
        with pytest.raises(ValueError):
            agent.train([], episodes=2)
