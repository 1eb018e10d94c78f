"""PPO agent: clipped-surrogate policy optimization over the phase ODG.

The AutoPhase papers (PAPERS.md: Huang et al. 2019, 2020) use PPO for
exactly this phase-ordering problem and report it beats DQN variants, so
the repo carries it as a second algorithm behind the same training
facade. :class:`PPOAgent` exposes the acting/remembering interface
:class:`~repro.core.agent_api.PosetRL` drives (``act`` / ``remember``).

Architecture: a shared trunk of :class:`~repro.rl.network.DenseLayer`
stacks (the same layers the Q-network uses) feeding two linear heads —
action logits and a scalar state value. Updates are standard PPO:
generalized advantage estimation over the contiguous trajectory buffer,
advantage normalization, then ``epochs`` passes of shuffled minibatches
through the clipped surrogate + value + entropy loss.

All gradients are computed analytically in
:func:`ppo_loss_and_grads` — a pure function of (network, batch) so the
test suite can check it against finite differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observability import get_registry
from .network import DenseLayer, adam_step


@dataclass
class PPOConfig:
    """PPO hyper-parameters (standard AutoPhase-style choices)."""

    state_dim: int = 300
    num_actions: int = 34
    hidden: Sequence[int] = (128, 64)
    learning_rate: float = 3e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    epochs: int = 4
    minibatch_size: int = 64
    #: Transitions accumulated before an update runs.
    horizon: int = 256
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    #: Same reward conditioning as the DQN path (AgentConfig.reward_scale).
    reward_scale: float = 0.1
    seed: int = 0


class PolicyValueNetwork:
    """Shared-trunk MLP with a policy (logits) head and a value head."""

    def __init__(
        self,
        state_dim: int,
        num_actions: int,
        hidden: Sequence[int] = (128, 64),
        learning_rate: float = 3e-4,
        seed: int = 0,
    ):
        self.state_dim = state_dim
        self.num_actions = num_actions
        self.learning_rate = learning_rate
        rng = np.random.RandomState(seed)
        dims = [state_dim, *hidden]
        self.trunk: List[DenseLayer] = [
            DenseLayer(rng, dims[i], dims[i + 1], relu=True)
            for i in range(len(dims) - 1)
        ]
        self.policy_head = DenseLayer(rng, dims[-1], num_actions, relu=False)
        self.value_head = DenseLayer(rng, dims[-1], 1, relu=False)
        self._adam_t = 0

    @property
    def hidden(self) -> Tuple[int, ...]:
        return tuple(layer.weight.shape[1] for layer in self.trunk)

    @property
    def dtype(self) -> np.dtype:
        """The compute dtype: inputs are cast to it once, on entry."""
        return self.trunk[0].weight.dtype

    @property
    def layers(self) -> List[DenseLayer]:
        """All layers in canonical (trunk..., policy, value) order."""
        return [*self.trunk, self.policy_head, self.value_head]

    # -- inference -----------------------------------------------------------
    def forward(
        self, states: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray], List[np.ndarray]]:
        """(logits, values, trunk activations, trunk pre-activations)."""
        x = np.atleast_2d(np.asarray(states, dtype=self.dtype))
        activations = [x]
        pres: List[np.ndarray] = []
        h = x
        for layer in self.trunk:
            pre, h = layer.forward(h)
            pres.append(pre)
            activations.append(h)
        _, logits = self.policy_head.forward(h)
        _, values = self.value_head.forward(h)
        return logits, values[:, 0], activations, pres

    def predict(self, states: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(logits, values) for a batch or a single state row."""
        squeeze = np.ndim(states) == 1
        logits, values, _, _ = self.forward(states)
        if squeeze:
            return logits[0], float(values[0])
        return logits, values

    def apply_gradients(self, grads: Sequence[Tuple[np.ndarray, np.ndarray]]) -> None:
        """One Adam step from per-layer (grad_w, grad_b) in layer order."""
        self._adam_t += 1
        for layer, (grad_w, grad_b) in zip(self.layers, grads):
            adam_step(layer, grad_w, grad_b, self._adam_t, self.learning_rate)

    # -- weight management ----------------------------------------------------
    def get_weights(self) -> List[np.ndarray]:
        out: List[np.ndarray] = []
        for layer in self.layers:
            out.append(layer.weight.copy())
            out.append(layer.bias.copy())
        return out

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        assert len(weights) == 2 * len(self.layers)
        for i, layer in enumerate(self.layers):
            layer.weight[...] = weights[2 * i]
            layer.bias[...] = weights[2 * i + 1]

    def copy_from(self, other: "PolicyValueNetwork") -> None:
        self.set_weights(other.get_weights())

    # -- persistence -----------------------------------------------------------
    def save(self, path: str, metadata: Optional[Dict[str, Any]] = None) -> None:
        arrays = {f"p{i}": w for i, w in enumerate(self.get_weights())}
        arrays["meta"] = np.array(
            [self.state_dim, self.num_actions, self.learning_rate]
        )
        arrays["hidden"] = np.array(self.hidden, dtype=np.int64)
        arrays["kind"] = np.array("policy_value")
        if metadata:
            arrays["metadata_json"] = np.array(json.dumps(metadata))
        np.savez(path, **arrays)

    @classmethod
    def load(cls, path: str) -> "PolicyValueNetwork":
        data = np.load(path)
        if "kind" not in data.files or str(data["kind"]) != "policy_value":
            raise ValueError(
                f"{path!r} is not a policy/value checkpoint"
            )
        meta = data["meta"]
        hidden = tuple(int(h) for h in data["hidden"])
        net = cls(int(meta[0]), int(meta[1]), hidden, float(meta[2]))
        weights = [data[f"p{i}"] for i in range(2 * len(net.layers))]
        net.set_weights(weights)
        return net


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def ppo_loss_and_grads(
    net: PolicyValueNetwork,
    states: np.ndarray,
    actions: np.ndarray,
    old_logprobs: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    *,
    clip_ratio: float = 0.2,
    value_coef: float = 0.5,
    entropy_coef: float = 0.01,
) -> Tuple[float, Dict[str, float], List[Tuple[np.ndarray, np.ndarray]]]:
    """Clipped-surrogate PPO loss and its analytic parameter gradients.

    Loss = -E[min(r·A, clip(r, 1±ε)·A)] + c_v·½E[(V-R)²] - c_e·E[H(π)].

    Returns ``(loss, stats, grads)`` where ``grads`` is a per-layer list
    of ``(grad_w, grad_b)`` in :attr:`PolicyValueNetwork.layers` order —
    ready for :meth:`PolicyValueNetwork.apply_gradients`, and pure
    enough for a finite-difference check (no optimizer state touched).
    """
    dtype = net.dtype
    states = np.atleast_2d(np.asarray(states, dtype=dtype))
    actions = np.asarray(actions, dtype=np.int64).ravel()
    old_logprobs = np.asarray(old_logprobs, dtype=dtype).ravel()
    advantages = np.asarray(advantages, dtype=dtype).ravel()
    returns = np.asarray(returns, dtype=dtype).ravel()
    batch = states.shape[0]
    rows = np.arange(batch)

    logits, values, activations, pres = net.forward(states)
    logp = log_softmax(logits)
    probs = np.exp(logp)
    logp_a = logp[rows, actions]

    ratio = np.exp(logp_a - old_logprobs)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - clip_ratio, 1.0 + clip_ratio) * advantages
    surrogate = np.minimum(unclipped, clipped)
    policy_loss = -float(surrogate.mean())

    value_error = values - returns
    value_loss = 0.5 * float(np.mean(value_error**2))

    entropy_rows = -(probs * logp).sum(axis=1)
    entropy = float(entropy_rows.mean())

    loss = policy_loss + value_coef * value_loss - entropy_coef * entropy

    # -- gradients w.r.t. logits and values ---------------------------------
    # d surrogate / d logp_a: the min picks the unclipped branch (or the
    # clipped one while the ratio is still inside the clip band, where the
    # two coincide); a selected clipped branch outside the band is flat.
    in_band = (ratio >= 1.0 - clip_ratio) & (ratio <= 1.0 + clip_ratio)
    active = (unclipped <= clipped) | in_band
    d_logp_a = np.where(active, ratio * advantages, 0.0) / batch
    # logp_a = z_a - logsumexp(z):  d logp_a / d z_j = 1[j=a] - p_j.
    grad_logits = -d_logp_a[:, None] * (
        (actions[:, None] == np.arange(net.num_actions)[None, :]) - probs
    )
    # Entropy: dH/dz_j = -p_j (logp_j + H).
    d_entropy = -probs * (logp + entropy_rows[:, None])
    grad_logits -= entropy_coef * d_entropy / batch
    grad_values = value_coef * value_error / batch

    # -- backprop: heads, then shared trunk ---------------------------------
    trunk_out = activations[-1]
    grads: List[Optional[Tuple[np.ndarray, np.ndarray]]]
    grads = [None] * (len(net.trunk) + 2)
    grad_trunk_p, gw, gb = net.policy_head.backward(
        trunk_out, logits, grad_logits
    )
    grads[len(net.trunk)] = (gw, gb)
    grad_trunk_v, gw, gb = net.value_head.backward(
        trunk_out, grad_values[:, None], grad_values[:, None]
    )
    grads[len(net.trunk) + 1] = (gw, gb)
    grad = grad_trunk_p + grad_trunk_v
    for i in range(len(net.trunk) - 1, -1, -1):
        layer = net.trunk[i]
        grad, gw, gb = layer.backward(
            activations[i], pres[i], grad, input_grad=i > 0
        )
        grads[i] = (gw, gb)

    stats = {
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "mean_ratio": float(ratio.mean()),
    }
    return loss, stats, grads  # type: ignore[return-value]


class PPOAgent:
    """On-policy PPO behind the DQN-compatible acting interface.

    Transitions accumulate in one buffer, in the order they were
    stored, so GAE runs over contiguous trajectories; once
    ``config.horizon`` transitions are stored, one PPO update (``epochs``
    × shuffled minibatches) consumes and clears them.
    """

    double = False

    def __init__(self, config: Optional[PPOConfig] = None):
        self.config = config or PPOConfig()
        c = self.config
        self.net = PolicyValueNetwork(
            c.state_dim, c.num_actions, c.hidden, c.learning_rate, seed=c.seed
        )
        self._rng = np.random.RandomState(c.seed + 7)
        #: ``(state, action, scaled reward, next state, done, logprob,
        #: value)`` per stored transition, oldest first.
        self._buffer: List[Tuple[Any, ...]] = []
        #: ``(logprob, value)`` of the last sampled action, consumed by
        #: the :meth:`remember` that stores it.
        self._pending: Optional[Tuple[float, float]] = None
        self.steps = 0
        self.train_steps = 0
        self.updates = 0
        self.last_loss: Optional[float] = None
        self.last_stats: Dict[str, float] = {}

    # -- facade compatibility -------------------------------------------------
    @property
    def epsilon(self) -> float:
        """PPO explores through its stochastic policy; no ε schedule."""
        return 0.0

    # -- acting ----------------------------------------------------------------
    def policy(self, state: np.ndarray) -> np.ndarray:
        """Action probabilities for one state."""
        logits, _ = self.net.predict(state)
        logp = log_softmax(logits[None, :])[0]
        return np.exp(logp)

    def act(self, state: np.ndarray, greedy: bool = False) -> int:
        """Sample from the policy (or take its argmax), forwarding
        ``state`` as one ``(1, state_dim)`` row."""
        logits, values = self.net.predict(np.reshape(state, (1, -1)))
        logp = log_softmax(logits)[0]
        if greedy:
            return int(np.argmax(logp))
        probs = np.exp(logp)
        u = self._rng.random_sample()
        action = int(
            min(np.searchsorted(np.cumsum(probs), u), len(probs) - 1)
        )
        self._pending = (float(logp[action]), float(values[0]))
        return action

    # -- remembering -------------------------------------------------------------
    def remember(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
    ) -> None:
        cached, self._pending = self._pending, None
        if cached is None:
            # Off-policy ingest (e.g. journaled traffic): score the
            # transition under the current policy.
            logits, v = self.net.predict(state)
            logp = log_softmax(logits[None, :])[0]
            cached = (float(logp[int(action)]), float(v))
        logprob, value = cached
        dtype = self.net.dtype
        self._buffer.append((
            np.array(state, dtype=dtype).ravel(),
            int(action),
            float(reward) * self.config.reward_scale,
            np.array(next_state, dtype=dtype).ravel(),
            bool(done),
            logprob,
            value,
        ))
        self.steps += 1
        if len(self._buffer) >= self.config.horizon:
            self.update()

    # -- updates -------------------------------------------------------------
    def flush(self) -> Optional[float]:
        """Run a final update on the residual sub-horizon buffer.

        Training loops call this when a budget ends so short runs (fewer
        than ``horizon`` transitions) still learn from what they gathered.
        No-op when nothing is buffered.
        """
        if not self._buffer:
            return None
        return self.update()

    def _advantages(
        self,
        rewards: np.ndarray,
        values: np.ndarray,
        dones: np.ndarray,
        last_next_state: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """GAE advantages and returns over the contiguous buffer."""
        c = self.config
        T = len(rewards)
        next_values = np.empty(T, dtype=np.float64)
        # V(s_{t+1}) is the stored value of the next row (the buffer is
        # contiguous); episode ends bootstrap 0, the buffer's tail
        # bootstraps from the current network.
        next_values[:-1] = values[1:]
        if dones[-1]:
            next_values[-1] = 0.0
        else:
            _, tail = self.net.predict(last_next_state)
            next_values[-1] = tail
        next_values[dones] = 0.0
        deltas = rewards + c.gamma * next_values - values
        advantages = np.empty(T, dtype=np.float64)
        running = 0.0
        for t in range(T - 1, -1, -1):
            if dones[t]:
                running = 0.0
            running = deltas[t] + c.gamma * c.gae_lambda * running
            advantages[t] = running
        return advantages, advantages + values

    def update(self) -> Optional[float]:
        """Run one PPO update over everything stored; returns mean loss."""
        c = self.config
        if not self._buffer:
            return None
        (states, actions, rewards, next_states, dones, logprobs,
         values) = zip(*self._buffer)
        all_adv, all_ret = self._advantages(
            np.asarray(rewards, dtype=np.float64),
            np.asarray(values, dtype=np.float64),
            np.asarray(dones, dtype=bool),
            next_states[-1],
        )
        all_states = np.stack(states)
        all_actions = np.asarray(actions, dtype=np.int64)
        all_logprobs = np.asarray(logprobs, dtype=np.float64)
        std = all_adv.std()
        all_adv = (all_adv - all_adv.mean()) / (std + 1e-8)

        n = len(all_actions)
        batch_size = min(c.minibatch_size, n)
        losses: List[float] = []
        for _ in range(c.epochs):
            order = self._rng.permutation(n)
            for start in range(0, n, batch_size):
                rows = order[start:start + batch_size]
                loss, stats, grads = ppo_loss_and_grads(
                    self.net,
                    all_states[rows],
                    all_actions[rows],
                    all_logprobs[rows],
                    all_adv[rows],
                    all_ret[rows],
                    clip_ratio=c.clip_ratio,
                    value_coef=c.value_coef,
                    entropy_coef=c.entropy_coef,
                )
                self.net.apply_gradients(grads)
                self.train_steps += 1
                losses.append(loss)
                self.last_stats = stats
        self._buffer.clear()
        self._pending = None
        self.updates += 1
        self.last_loss = float(np.mean(losses)) if losses else None
        registry = get_registry()
        if registry.enabled and self.last_loss is not None:
            registry.counter(
                "repro_train_updates_total", "gradient updates"
            ).inc(len(losses))
            registry.gauge(
                "repro_train_loss", "loss of the most recent update"
            ).set(self.last_loss)
            registry.gauge(
                "repro_train_ppo_entropy", "policy entropy at the last update"
            ).set(self.last_stats.get("entropy", 0.0))
        return self.last_loss

    # -- persistence ------------------------------------------------------------
    def save(self, path: str, metadata: Optional[dict] = None) -> None:
        self.net.save(path, metadata=metadata)

    def load(self, path: str) -> None:
        self.net.copy_from(PolicyValueNetwork.load(path))

    # -- facade hooks the DQN agent also provides --------------------------------
    @property
    def memory(self):  # pragma: no cover - interface parity
        return None

    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Action preferences (logits) — argmax matches greedy acting."""
        logits, _ = self.net.predict(state)
        return logits
