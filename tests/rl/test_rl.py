"""RL machinery: network (with numerical gradient check), replay,
schedules, DQN/Double-DQN agents."""

import copy

import numpy as np
import pytest

from repro.rl import (
    AgentConfig,
    DQNAgent,
    DoubleDQNAgent,
    ExponentialSchedule,
    LinearSchedule,
    QNetwork,
    ReplayMemory,
    paper_epsilon_schedule,
)
from tests.rl.precision import to_float64


class TestQNetwork:
    def test_shapes(self):
        net = QNetwork(state_dim=10, num_actions=4, hidden=(16,))
        single = net.predict(np.zeros(10))
        batch = net.predict(np.zeros((3, 10)))
        assert single.shape == (4,)
        assert batch.shape == (3, 4)

    def test_training_reduces_loss(self):
        rng = np.random.RandomState(0)
        net = QNetwork(8, 3, hidden=(32,), learning_rate=5e-3, seed=1)
        states = rng.standard_normal((64, 8))
        actions = rng.randint(0, 3, size=64)
        targets = states[:, 0] * 2.0 + actions
        first = net.train_batch(states, actions, targets)
        for _ in range(300):
            last = net.train_batch(states, actions, targets)
        assert last < first * 0.5

    def test_gradient_matches_numerical(self):
        """Backprop gradient vs central finite differences, on the same
        network code cast to float64 (float32 cannot resolve a central
        difference at ``eps = 1e-6``)."""
        net = to_float64(QNetwork(5, 2, hidden=(7,), learning_rate=0.0, seed=3))
        rng = np.random.RandomState(4)
        states = rng.standard_normal((4, 5))
        actions = np.array([0, 1, 1, 0])
        targets = rng.standard_normal(4)

        def loss():
            q = net.predict(states)
            picked = q[np.arange(4), actions]
            err = picked - targets
            # huber with delta=1
            return float(
                np.mean(
                    np.where(np.abs(err) <= 1, 0.5 * err**2, np.abs(err) - 0.5)
                )
            )

        # Analytic gradient via a hacked train step: record weight delta with
        # lr=1 and plain SGD is not exposed, so check via Adam direction is
        # unreliable — instead, recompute the gradient manually using the
        # internals.
        layer = net.layers[0]
        eps = 1e-6
        # numerical grad for one weight entry
        i, j = 2, 3
        original = layer.weight[i, j]
        layer.weight[i, j] = original + eps
        up = loss()
        layer.weight[i, j] = original - eps
        down = loss()
        layer.weight[i, j] = original
        numerical = (up - down) / (2 * eps)

        # Analytic: replicate the backward pass.
        x = states
        activations = [x]
        pres = []
        h = x
        for l in net.layers:
            pre, h = l.forward(h)
            pres.append(pre)
            activations.append(h)
        q = activations[-1]
        picked = q[np.arange(4), actions]
        err = picked - targets
        grad_q = np.zeros_like(q)
        grad_q[np.arange(4), actions] = np.clip(err, -1, 1) / 4
        grad = grad_q
        grads_w = [None] * len(net.layers)
        for k in range(len(net.layers) - 1, -1, -1):
            grad, gw, gb = net.layers[k].backward(activations[k], pres[k], grad)
            grads_w[k] = gw
        assert grads_w[0][i, j] == pytest.approx(numerical, rel=1e-4, abs=1e-7)

    def test_float32_gradient_matches_float64(self):
        """At the ``scaled_config`` shapes (300-256-128-34, 128 rows), the
        float32 analytic gradient of every parameter matches the float64
        one of the same weights on the same inputs."""
        net32 = QNetwork(300, 34, hidden=(256, 128), seed=0)
        net64 = to_float64(copy.deepcopy(net32))
        rng = np.random.RandomState(5)
        states = rng.standard_normal((128, 300)).astype(np.float32)
        actions = rng.randint(0, 34, size=128)
        targets = rng.standard_normal(128)

        def grads(net):
            activations, pres = [np.asarray(states, dtype=net.dtype)], []
            for layer in net.layers:
                pre, h = layer.forward(activations[-1])
                pres.append(pre)
                activations.append(h)
            q = activations[-1]
            rows = np.arange(128)
            grad = np.zeros_like(q)
            grad[rows, actions] = np.clip(q[rows, actions] - targets, -1, 1) / 128
            out = []
            for k in range(len(net.layers) - 1, -1, -1):
                grad, gw, gb = net.layers[k].backward(
                    activations[k], pres[k], grad, input_grad=k > 0
                )
                out += [gw, gb]
            return out

        for g32, g64 in zip(grads(net32), grads(net64)):
            assert g32.dtype == np.float32 and g64.dtype == np.float64
            rel = np.linalg.norm(g32 - g64) / np.linalg.norm(g64)
            assert rel < 1e-4

    def test_weight_copy(self):
        a = QNetwork(6, 3, hidden=(8,), seed=1)
        b = QNetwork(6, 3, hidden=(8,), seed=2)
        state = np.ones(6)
        assert not np.allclose(a.predict(state), b.predict(state))
        b.copy_from(a)
        assert np.allclose(a.predict(state), b.predict(state))

    def test_save_load_roundtrip(self, tmp_path):
        net = QNetwork(6, 3, hidden=(128, 64), seed=5)
        path = str(tmp_path / "model.npz")
        net.save(path)
        loaded = QNetwork.load(path)
        state = np.linspace(-1, 1, 6)
        assert np.allclose(net.predict(state), loaded.predict(state))

    def test_save_load_nondefault_hidden(self, tmp_path):
        """Regression: checkpoints must carry their hidden-layer sizes.
        A (64, 32) network used to come back mis-shaped because ``load``
        assumed the default (128, 64) architecture."""
        net = QNetwork(6, 3, hidden=(64, 32), seed=5)
        path = str(tmp_path / "model.npz")
        net.save(path)
        loaded = QNetwork.load(path)
        assert loaded.hidden == (64, 32)
        state = np.linspace(-1, 1, 6)
        assert np.allclose(net.predict(state), loaded.predict(state))

    def test_load_infers_hidden_from_legacy_checkpoint(self, tmp_path):
        """Checkpoints written before the ``hidden`` field still load:
        the architecture is inferred from the weight-matrix shapes."""
        net = QNetwork(6, 3, hidden=(48, 24, 12), seed=2)
        path = str(tmp_path / "legacy.npz")
        arrays = {f"p{i}": w for i, w in enumerate(net.get_weights())}
        arrays["meta"] = np.array([6, 3, net.learning_rate])
        np.savez(path, **arrays)  # no "hidden" entry, like old saves
        loaded = QNetwork.load(path)
        assert loaded.hidden == (48, 24, 12)
        state = np.linspace(-1, 1, 6)
        assert np.allclose(net.predict(state), loaded.predict(state))

    def test_load_rejects_mismatched_hidden(self, tmp_path):
        net = QNetwork(6, 3, hidden=(64, 32), seed=5)
        path = str(tmp_path / "model.npz")
        net.save(path)
        with pytest.raises(ValueError, match="hidden layers"):
            QNetwork.load(path, hidden=(128, 64))

    def test_predict_no_copy_for_float32(self):
        """The act-path boundary cast is a no-op for the float32 states
        the environment hands over."""
        net = QNetwork(4, 2, hidden=(8,))
        state = np.ones(4, dtype=np.float32)
        assert np.asarray(state, dtype=net.dtype) is state
        assert net.predict(state).shape == (2,)


class TestReplay:
    def test_push_and_len(self):
        mem = ReplayMemory(capacity=4)
        for i in range(3):
            mem.push(np.zeros(2), i, float(i), np.ones(2), False)
        assert len(mem) == 3

    def test_ring_overwrite(self):
        mem = ReplayMemory(capacity=4)
        for i in range(10):
            mem.push(np.full(2, i), i % 2, float(i), np.ones(2), False)
        assert len(mem) == 4
        states, actions, rewards, next_states, dones = mem.sample(4)
        assert rewards.min() >= 6  # only the last four survive

    def test_sample_shapes_and_types(self):
        mem = ReplayMemory(capacity=16, seed=1)
        for i in range(16):
            mem.push(np.zeros(3), 1, 0.5, np.zeros(3), i % 2 == 0)
        s, a, r, ns, d = mem.sample(8)
        assert s.shape == (8, 3) and ns.shape == (8, 3)
        assert a.dtype == np.int64 and d.dtype == bool

    def test_sample_too_many_raises(self):
        mem = ReplayMemory(capacity=8)
        mem.push(np.zeros(1), 0, 0.0, np.zeros(1), False)
        with pytest.raises(ValueError):
            mem.sample(2)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReplayMemory(capacity=0)


class TestSchedules:
    def test_linear_endpoints(self):
        s = LinearSchedule(1.0, 0.01, 100)
        assert s.value(0) == 1.0
        assert s.value(100) == pytest.approx(0.01)
        assert s.value(1000) == pytest.approx(0.01)
        assert s.value(50) == pytest.approx(0.505)

    def test_paper_schedule(self):
        s = paper_epsilon_schedule()
        assert s.value(0) == 1.0
        assert s.value(20_000) == pytest.approx(0.01)
        assert s.steps == 20_000

    def test_exponential(self):
        s = ExponentialSchedule(1.0, 0.1, 0.9)
        assert s.value(0) == 1.0
        assert s.value(100) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            ExponentialSchedule(1.0, 0.1, 1.5)


class TestAgents:
    def _config(self, **kw):
        defaults = dict(
            state_dim=6,
            num_actions=4,
            hidden=(16,),
            min_replay=8,
            batch_size=4,
            train_every=2,
            target_sync_every=16,
            epsilon_steps=50,
            seed=0,
        )
        defaults.update(kw)
        return AgentConfig(**defaults)

    def test_epsilon_anneals_with_steps(self):
        agent = DoubleDQNAgent(self._config())
        assert agent.epsilon == 1.0
        for _ in range(60):
            agent.remember(np.zeros(6), 0, 0.0, np.zeros(6), False)
        assert agent.epsilon == pytest.approx(0.01)

    def test_greedy_act_is_argmax(self):
        agent = DoubleDQNAgent(self._config())
        state = np.ones(6)
        action = agent.act(state, greedy=True)
        assert action == int(np.argmax(agent.q_values(state)))

    def test_exploration_uses_all_actions(self):
        agent = DoubleDQNAgent(self._config(epsilon_steps=10_000))
        actions = {agent.act(np.zeros(6)) for _ in range(200)}
        assert actions == {0, 1, 2, 3}

    def test_training_happens(self):
        agent = DoubleDQNAgent(self._config())
        rng = np.random.RandomState(0)
        for _ in range(50):
            agent.remember(
                rng.standard_normal(6), int(rng.randint(4)),
                float(rng.standard_normal()), rng.standard_normal(6), False,
            )
        assert agent.train_steps > 0
        assert agent.last_loss is not None

    def test_double_dqn_differs_from_vanilla_in_target(self):
        config = self._config()
        vanilla = DQNAgent(config)
        double = DoubleDQNAgent(config)
        assert not vanilla.double and double.double
        # Force divergent online/target nets, compare bootstrapped values.
        rng = np.random.RandomState(1)
        for agent in (vanilla, double):
            for layer in agent.online.layers:
                layer.weight += rng.standard_normal(layer.weight.shape) * 0.5
        states = rng.standard_normal((5, 6))
        assert not np.allclose(vanilla._next_q(states), double._next_q(states))

    def test_agent_learns_trivial_bandit(self):
        """One state, action 2 always pays: its Q-value should win."""
        agent = DoubleDQNAgent(
            self._config(epsilon_steps=150, target_sync_every=8)
        )
        agent.online.learning_rate = 5e-3
        state = np.ones(6)
        rng = np.random.RandomState(2)
        for _ in range(400):
            action = agent.act(state)
            reward = 1.0 if action == 2 else -0.2
            agent.remember(state, action, reward, state, True)
        assert agent.act(state, greedy=True) == 2

    def test_save_load(self, tmp_path):
        agent = DoubleDQNAgent(self._config(hidden=(128, 64)))
        path = str(tmp_path / "agent.npz")
        agent.save(path)
        other = DoubleDQNAgent(self._config(hidden=(128, 64), seed=9))
        other.load(path)
        state = np.linspace(0, 1, 6)
        assert np.allclose(agent.q_values(state), other.q_values(state))

    def test_save_load_nondefault_hidden_agent(self, tmp_path):
        """Regression: an agent with hidden=(64, 32) round-trips."""
        agent = DoubleDQNAgent(self._config(hidden=(64, 32)))
        path = str(tmp_path / "agent.npz")
        agent.save(path)
        other = DoubleDQNAgent(self._config(hidden=(64, 32), seed=9))
        other.load(path)
        state = np.linspace(0, 1, 6)
        assert np.allclose(agent.q_values(state), other.q_values(state))
        assert np.allclose(
            agent.q_values(state), other.target.predict(state)
        )


class TestActBatch:
    """``act`` over a batch of states, one row per call."""

    def _config(self, **kw):
        defaults = dict(
            state_dim=6, num_actions=4, hidden=(16,), min_replay=8,
            batch_size=4, train_every=2, target_sync_every=16,
            epsilon_steps=50, seed=0,
        )
        defaults.update(kw)
        return AgentConfig(**defaults)

    def test_greedy_batch_is_rowwise_argmax(self):
        """The one-row forward of greedy ``act`` picks what a batched
        forward's row-wise argmax picks."""
        agent = DoubleDQNAgent(self._config())
        states = np.random.RandomState(3).standard_normal((5, 6))
        actions = [agent.act(state, greedy=True) for state in states]
        q = agent.online.predict(states)
        assert actions == q.argmax(axis=1).tolist()

    def test_exploration_covers_actions(self):
        agent = DoubleDQNAgent(self._config(epsilon_steps=10_000))
        states = np.zeros((8, 6))
        seen = set()
        for _ in range(40):
            seen.update(agent.act(state) for state in states)
        assert seen == {0, 1, 2, 3}
