"""Float32 is the one compute dtype of the learner and of inference.

After real training (Double DQN with the ``scaled_config`` network, and
PPO), every array of every layer — weights, biases, Adam moments,
work buffers — is still float32: nothing in an update promotes to float64.
Float64 inputs are cast on entry, so inference returns float32 too.
"""

import numpy as np
import pytest

from repro.core.agent_api import PosetRL
from repro.core.presets import quick_config
from repro.rl.ppo import PPOConfig
from repro.serving.registry import ModelRegistry
from repro.workloads import ProgramProfile, generate_program


@pytest.fixture(scope="module")
def corpus():
    return [
        (
            f"prog{i}",
            generate_program(ProgramProfile(name=f"prog{i}", seed=i, segments=2)),
        )
        for i in range(3)
    ]


def _layer_arrays(layers):
    for layer in layers:
        for name, value in vars(layer).items():
            if isinstance(value, np.ndarray):
                yield name, value


@pytest.fixture(scope="module")
def ddqn(corpus):
    # quick_config is scaled_config (300-256-128-34, 128-row updates)
    # with a replay fill of 128, so updates start within a short run.
    rl = PosetRL(seed=0, agent_config=quick_config())
    rl.train(corpus, episodes=12)
    assert rl.agent.train_steps > 0
    return rl


class TestTrainedArraysStayFloat32:
    def test_ddqn_online_and_target(self, ddqn):
        for net in (ddqn.agent.online, ddqn.agent.target):
            arrays = list(_layer_arrays(net.layers))
            assert len(arrays) == 8 * len(net.layers)
            for name, value in arrays:
                assert value.dtype == np.float32, name

    def test_ppo_policy_value(self, corpus):
        rl = PosetRL(
            seed=0, algo="ppo",
            ppo_config=PPOConfig(horizon=32, minibatch_size=16, epochs=2),
        )
        rl.train(corpus, episodes=4)
        assert rl.agent.updates > 0
        for name, value in _layer_arrays(rl.agent.net.layers):
            assert value.dtype == np.float32, name


class TestFloat64Inputs:
    def test_predict_returns_float32(self, ddqn):
        state = np.random.RandomState(0).standard_normal(300)
        assert state.dtype == np.float64
        assert ddqn.agent.online.predict(state).dtype == np.float32

    def test_registered_model_act_matches_predict(self, ddqn):
        states = np.random.RandomState(1).standard_normal((64, 300))
        registry = ModelRegistry()
        model = registry.get(registry.register(ddqn.agent.online))
        expected = ddqn.agent.online.predict(states).argmax(axis=1)
        assert np.array_equal(model.act(states), expected)
