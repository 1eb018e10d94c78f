"""PPO agent: analytic gradients vs finite differences, GAE shape,
agent behavior behind the DQN-compatible facade interface."""

import numpy as np
import pytest

from repro.rl import PPOAgent, PPOConfig, PolicyValueNetwork, ppo_loss_and_grads
from repro.rl.ppo import log_softmax
from tests.rl.precision import to_float64


def _small_net(seed=0):
    return PolicyValueNetwork(6, 4, hidden=(8, 5), seed=seed)


def _batch(net, n=12, seed=1):
    rng = np.random.RandomState(seed)
    states = rng.standard_normal((n, net.state_dim))
    actions = rng.randint(net.num_actions, size=n)
    logits, _ = net.predict(states)
    logp = log_softmax(logits)
    # Perturb old logprobs so ratios leave 1.0 and both clip branches
    # appear in the batch.
    old_logprobs = logp[np.arange(n), actions] + rng.uniform(-0.4, 0.4, n)
    advantages = rng.standard_normal(n)
    returns = rng.standard_normal(n)
    return states, actions, old_logprobs, advantages, returns


class TestLossGradients:
    def test_matches_finite_differences(self):
        """Analytic (grad_w, grad_b) match central finite differences of
        the scalar loss at sampled coordinates of every layer, on the
        same network code cast to float64."""
        net = to_float64(_small_net())
        data = _batch(net)
        kwargs = dict(clip_ratio=0.2, value_coef=0.5, entropy_coef=0.01)

        def loss_only():
            loss, _, _ = ppo_loss_and_grads(net, *data, **kwargs)
            return loss

        _, _, grads = ppo_loss_and_grads(net, *data, **kwargs)
        rng = np.random.RandomState(7)
        eps = 1e-6
        for layer, (grad_w, grad_b) in zip(net.layers, grads):
            for param, grad in ((layer.weight, grad_w), (layer.bias, grad_b)):
                flat = param.ravel()
                for idx in rng.choice(flat.size, size=min(6, flat.size),
                                      replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    up = loss_only()
                    flat[idx] = orig - eps
                    down = loss_only()
                    flat[idx] = orig
                    numeric = (up - down) / (2 * eps)
                    assert grad.ravel()[idx] == pytest.approx(
                        numeric, rel=1e-4, abs=1e-7
                    )

    def test_loss_is_pure(self):
        """Two calls on the same inputs return identical loss and grads
        and leave the network weights untouched."""
        net = _small_net()
        before = net.get_weights()
        data = _batch(net)
        l1, s1, g1 = ppo_loss_and_grads(net, *data)
        l2, _, g2 = ppo_loss_and_grads(net, *data)
        assert l1 == l2
        for (wa, ba), (wb, bb) in zip(g1, g2):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)
        for a, b in zip(before, net.get_weights()):
            assert np.array_equal(a, b)
        assert set(s1) >= {"policy_loss", "value_loss", "entropy"}

    def test_clipping_flattens_out_of_band_gradient(self):
        """A positive-advantage row pushed far above 1+ε contributes no
        policy gradient (the min selects the flat clipped branch)."""
        net = _small_net()
        n = 1
        rng = np.random.RandomState(3)
        states = rng.standard_normal((n, net.state_dim))
        actions = np.array([2])
        logits, _ = net.predict(states)
        logp = log_softmax(logits)
        # old_logprob far below the current logprob → ratio >> 1+ε.
        old_logprobs = logp[np.arange(n), actions] - 2.0
        advantages = np.array([1.5])
        returns = np.zeros(n)
        _, stats, grads = ppo_loss_and_grads(
            net, states, actions, old_logprobs, advantages, returns,
            value_coef=0.0, entropy_coef=0.0,
        )
        assert stats["mean_ratio"] > 1.2
        for grad_w, grad_b in grads:
            assert np.allclose(grad_w, 0.0) and np.allclose(grad_b, 0.0)


class TestPolicyValueNetwork:
    def test_save_load_roundtrip(self, tmp_path):
        net = _small_net(seed=4)
        path = str(tmp_path / "pv.npz")
        net.save(path, metadata={"algo": "ppo"})
        restored = PolicyValueNetwork.load(path)
        for a, b in zip(net.get_weights(), restored.get_weights()):
            assert np.array_equal(a, b)
        states = np.random.RandomState(0).standard_normal((3, net.state_dim))
        la, va = net.predict(states)
        lb, vb = restored.predict(states)
        assert np.array_equal(la, lb) and np.array_equal(va, vb)

    def test_rejects_qnetwork_checkpoint(self, tmp_path):
        from repro.rl import QNetwork

        path = str(tmp_path / "q.npz")
        QNetwork(6, 4, (8,), 1e-3, seed=0).save(path)
        with pytest.raises(ValueError):
            PolicyValueNetwork.load(path)


class TestPPOAgent:
    def _agent(self, horizon=32, seed=0):
        return PPOAgent(PPOConfig(
            state_dim=6, num_actions=4, hidden=(8, 5), horizon=horizon,
            minibatch_size=8, epochs=2, seed=seed,
        ))

    def _roll(self, agent, steps, seed=5, episode_len=4):
        rng = np.random.RandomState(seed)
        state = rng.standard_normal(6)
        for t in range(steps):
            action = agent.act(state)
            next_state = rng.standard_normal(6)
            done = t % episode_len == episode_len - 1
            agent.remember(state, action, rng.standard_normal(), next_state, done)
            state = next_state

    def test_update_fires_at_horizon_and_clears_buffers(self):
        agent = self._agent(horizon=16)
        self._roll(agent, 16)
        assert agent.updates == 1
        assert agent.train_steps > 0
        assert agent._buffer == []
        assert agent.last_loss is not None

    def test_flush_trains_on_subhorizon_tail(self):
        agent = self._agent(horizon=1000)
        self._roll(agent, 12)
        assert agent.updates == 0
        loss = agent.flush()
        assert loss is not None and agent.updates == 1
        assert agent.flush() is None  # nothing buffered → no-op

    def test_deterministic_for_fixed_seed(self):
        runs = []
        for _ in range(2):
            agent = self._agent(horizon=16, seed=9)
            self._roll(agent, 32, seed=2)
            runs.append(agent.net.get_weights())
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_greedy_act_is_argmax_and_draws_no_rng(self):
        agent = self._agent()
        state = np.random.RandomState(1).standard_normal(6)
        before = agent._rng.get_state()
        action = agent.act(state, greedy=True)
        after = agent._rng.get_state()
        assert np.array_equal(before[1], after[1]) and before[2] == after[2]
        assert action == int(np.argmax(agent.q_values(state)))

    def test_epsilon_is_zero(self):
        assert self._agent().epsilon == 0.0
