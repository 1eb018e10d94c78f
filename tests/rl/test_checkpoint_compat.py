"""Float64 checkpoints still load into the float32 networks.

Every ``.npz`` written before the learner moved to float32 holds float64
arrays. They are cast on load, through each load path: ``DQNAgent.load``,
the serving model registry and ``PPOAgent.load``. The cast weights act
greedily like the float64 forward, and a float32 save → load round trip
is exact.
"""

import json

import numpy as np
import pytest

from repro.rl import (
    AgentConfig,
    DoubleDQNAgent,
    PPOAgent,
    PPOConfig,
    PolicyValueNetwork,
    QNetwork,
)
from repro.serving.registry import ModelRegistry

STATE_DIM, NUM_ACTIONS, HIDDEN = 300, 34, (256, 128)


def _float64_params(dims, seed):
    """(weight, bias) pairs in float64, not float32-representable."""
    rng = np.random.RandomState(seed)
    return [
        (
            rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in),
            rng.standard_normal(fan_out) * 0.1,
        )
        for fan_in, fan_out in dims
    ]


def _write(path, params, *, kind=None):
    """A checkpoint in the float64 format of every earlier ``save``."""
    arrays = {}
    for i, (w, b) in enumerate(params):
        arrays[f"p{2 * i}"] = w
        arrays[f"p{2 * i + 1}"] = b
    arrays["meta"] = np.array([STATE_DIM, NUM_ACTIONS, 1e-3])
    arrays["hidden"] = np.array(HIDDEN, dtype=np.int64)
    if kind is not None:
        arrays["kind"] = np.array(kind)
    else:
        arrays["metadata_json"] = np.array(json.dumps({"action_space": "odg"}))
    np.savez(path, **arrays)


def _relu_mlp(x, params):
    """The float64 reference forward (ReLU on every layer but the last)."""
    for i, (w, b) in enumerate(params):
        x = x @ w + b
        if i < len(params) - 1:
            x = np.maximum(x, 0.0)
    return x


def _assert_cast(layers, params):
    for layer, (w, b) in zip(layers, params):
        assert layer.weight.dtype == np.float32
        assert layer.bias.dtype == np.float32
        assert np.array_equal(layer.weight, w.astype(np.float32))
        assert np.array_equal(layer.bias, b.astype(np.float32))


@pytest.fixture(scope="module")
def states():
    return np.random.RandomState(11).standard_normal((256, STATE_DIM))


@pytest.fixture
def q_checkpoint(tmp_path):
    dims = list(zip((STATE_DIM, *HIDDEN), (*HIDDEN, NUM_ACTIONS)))
    params = _float64_params(dims, seed=1)
    path = str(tmp_path / "q64.npz")
    _write(path, params)
    return path, params


@pytest.fixture
def pv_checkpoint(tmp_path):
    trunk = _float64_params(zip((STATE_DIM, HIDDEN[0]), HIDDEN), seed=2)
    heads = _float64_params([(HIDDEN[-1], NUM_ACTIONS), (HIDDEN[-1], 1)], seed=3)
    path = str(tmp_path / "pv64.npz")
    _write(path, trunk + heads, kind="policy_value")
    return path, trunk, heads


class TestFloat64Checkpoints:
    def test_dqn_agent_load(self, q_checkpoint, states):
        path, params = q_checkpoint
        agent = DoubleDQNAgent(AgentConfig(hidden=HIDDEN))
        agent.load(path)
        for net in (agent.online, agent.target):
            _assert_cast(net.layers, params)
        expected = _relu_mlp(states, params).argmax(axis=1)
        assert [agent.act(s, greedy=True) for s in states] == expected.tolist()

    def test_registry_load(self, q_checkpoint, states):
        path, params = q_checkpoint
        registry = ModelRegistry()
        model = registry.get(registry.register_checkpoint(path))
        _assert_cast(model.network.layers, params)
        expected = _relu_mlp(states, params).argmax(axis=1)
        assert np.array_equal(model.act(states), expected)

    def test_ppo_agent_load(self, pv_checkpoint, states):
        path, trunk, heads = pv_checkpoint
        agent = PPOAgent(PPOConfig(hidden=HIDDEN))
        agent.load(path)
        _assert_cast(agent.net.layers, trunk + heads)
        expected = _relu_mlp(states, trunk + heads[:1]).argmax(axis=1)
        assert [agent.act(s, greedy=True) for s in states] == expected.tolist()


class TestFloat32RoundTrip:
    def test_qnetwork_exact(self, tmp_path):
        net = QNetwork(STATE_DIM, NUM_ACTIONS, HIDDEN, seed=4)
        path = str(tmp_path / "q32.npz")
        net.save(path)
        for a, b in zip(net.get_weights(), QNetwork.load(path).get_weights()):
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b)

    def test_policy_value_exact(self, tmp_path):
        net = PolicyValueNetwork(STATE_DIM, NUM_ACTIONS, HIDDEN, seed=5)
        path = str(tmp_path / "pv32.npz")
        net.save(path)
        loaded = PolicyValueNetwork.load(path)
        for a, b in zip(net.get_weights(), loaded.get_weights()):
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b)
