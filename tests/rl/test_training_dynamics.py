"""Training-loop dynamics of the PosetRL facade."""

import numpy as np
import pytest

from repro import PosetRL, load_suite
from repro.core import RewardWeights
from repro.core.presets import quick_config


@pytest.fixture(scope="module")
def corpus():
    return load_suite("llvm_test_suite")[:6]


def test_training_is_reproducible_per_seed(corpus):
    def run(seed):
        agent = PosetRL(action_space="odg", seed=seed,
                        agent_config=quick_config())
        stats = agent.train(corpus, episodes=12)
        return [s.total_reward for s in stats], [s.actions for s in stats]

    r1, a1 = run(5)
    r2, a2 = run(5)
    assert r1 == r2 and a1 == a2
    r3, _ = run(6)
    assert r1 != r3


def test_callback_invoked_per_episode(corpus):
    seen = []
    agent = PosetRL(action_space="manual", seed=1, agent_config=quick_config())
    agent.train(corpus, episodes=5, callback=lambda s: seen.append(s.episode))
    assert seen == [0, 1, 2, 3, 4]


def test_reward_weights_propagate_to_env(corpus):
    agent = PosetRL(
        action_space="odg", seed=0,
        weights=RewardWeights(alpha=100.0, beta=0.0),
        agent_config=quick_config(),
    )
    env = agent.make_env(corpus[0][1])
    env.reset()
    _, reward, _, info = env.step(23)
    assert reward == pytest.approx(100.0 * info.size_reward)


def test_training_reward_correlates_with_size_movement(corpus):
    """Episodes with net size reduction must have received positive
    cumulative size components (consistency of the bookkeeping)."""
    agent = PosetRL(action_space="odg", seed=2, agent_config=quick_config())
    stats = agent.train(corpus, episodes=8)
    for record in stats:
        name = record.module
        module = dict(corpus)[name]
        env = agent.make_env(module)
        env.reset()
        for action in record.actions:
            env.step(action)
        assert env.last_size == record.final_size


def test_episode_length_respected(corpus):
    agent = PosetRL(action_space="odg", seed=0, episode_length=7,
                    agent_config=quick_config())
    stats = agent.train(corpus[:2], episodes=3)
    assert all(len(s.actions) == 7 for s in stats)
    actions = agent.predict(corpus[0][1])
    assert len(actions) == 7


def test_double_dqn_flag(corpus):
    double = PosetRL(action_space="odg", algo="ddqn",
                     agent_config=quick_config())
    vanilla = PosetRL(action_space="odg", algo="dqn",
                      agent_config=quick_config())
    assert double.agent.double and not vanilla.agent.double


def test_unknown_algo_rejected():
    with pytest.raises(ValueError):
        PosetRL(algo="a2c")
