"""DQN and Double DQN agents.

The paper uses Double DQN (Section II-B): the online network selects the
best next action, the target network evaluates it — curbing the Q-value
overestimation of vanilla DQN. Plain DQN is also provided for the
ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..observability import get_registry
from .network import QNetwork
from .priority import PrioritizedReplayMemory
from .replay import ReplayMemory
from .schedule import LinearSchedule


@dataclass
class AgentConfig:
    """Hyper-parameters (defaults follow the paper where it states them:
    lr 1e-4, ε 1.0→0.01 over 20k steps; the rest are standard choices)."""

    state_dim: int = 300
    num_actions: int = 34
    hidden: Sequence[int] = (128, 64)
    learning_rate: float = 1e-4
    gamma: float = 0.99
    batch_size: int = 32
    replay_capacity: int = 10_000
    min_replay: int = 64
    train_every: int = 4      # the paper's µ: train every µ steps
    target_sync_every: int = 256
    epsilon_start: float = 1.0
    epsilon_end: float = 0.01
    epsilon_steps: int = 20_000
    #: Rewards are scaled by this factor before entering the TD target —
    #: raw POSET-RL rewards reach ±10 (α=10 on size fractions), which would
    #: keep the Huber loss in its linear (slow) regime.
    reward_scale: float = 0.1
    #: Prioritized (sum-tree proportional) replay instead of uniform.
    #: Sampling follows |TD error|^alpha; importance-sampling weights use
    #: beta annealed beta_start → 1 over ``priority_beta_steps`` agent steps.
    prioritized_replay: bool = False
    priority_alpha: float = 0.6
    priority_beta_start: float = 0.4
    priority_beta_steps: int = 20_000
    seed: int = 0


class DQNAgent:
    """Vanilla DQN: the target network both selects and evaluates."""

    double = False

    def __init__(self, config: Optional[AgentConfig] = None):
        self.config = config or AgentConfig()
        c = self.config
        self.online = QNetwork(
            c.state_dim, c.num_actions, c.hidden, c.learning_rate, seed=c.seed
        )
        self.target = QNetwork(
            c.state_dim, c.num_actions, c.hidden, c.learning_rate, seed=c.seed + 1
        )
        self.target.copy_from(self.online)
        if c.prioritized_replay:
            self.memory: ReplayMemory = PrioritizedReplayMemory(
                c.replay_capacity,
                seed=c.seed,
                alpha=c.priority_alpha,
                beta=c.priority_beta_start,
            )
        else:
            self.memory = ReplayMemory(c.replay_capacity, seed=c.seed)
        self.epsilon_schedule = LinearSchedule(
            c.epsilon_start, c.epsilon_end, c.epsilon_steps
        )
        self.steps = 0
        self.train_steps = 0
        self.last_loss: Optional[float] = None
        self._rng = np.random.RandomState(c.seed + 7)

    # -- acting ---------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        return self.epsilon_schedule.value(self.steps)

    def act(self, state: np.ndarray, greedy: bool = False) -> int:
        """ε-greedy action (or pure greedy for evaluation).

        Exploring costs one uniform draw and then a ``randint``; otherwise
        the online network scores ``state`` as one ``(1, state_dim)`` row.
        """
        if not greedy and self._rng.random_sample() < self.epsilon:
            return int(self._rng.randint(self.config.num_actions))
        q = self.online.predict(np.reshape(state, (1, -1)))
        return int(q.argmax(axis=1)[0])

    def q_values(self, state: np.ndarray) -> np.ndarray:
        return self.online.predict(state)

    # -- learning ----------------------------------------------------------------
    def remember(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
    ) -> None:
        """Store one transition and count the step: every ``train_every``
        steps (once ``min_replay`` transitions are stored) the online
        network trains, every ``target_sync_every`` the target syncs."""
        c = self.config
        self.memory.push(
            state, action, float(reward) * c.reward_scale, next_state, done
        )
        self.steps += 1
        if len(self.memory) >= c.min_replay and self.steps % c.train_every == 0:
            self.last_loss = self._train_step()
        if self.steps % c.target_sync_every == 0:
            self.target.copy_from(self.online)

    def _next_q(
        self, next_states: np.ndarray, online_q: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Bootstrap value of each next state: the target network's best
        Q. (``online_q``, the online network's Q-values of the same rows,
        is what Double DQN selects with; plain DQN ignores it.)"""
        target_q = self.target.predict(next_states)
        return target_q.max(axis=1)

    @property
    def priority_beta(self) -> float:
        """IS-correction exponent, annealed beta_start → 1 over training."""
        c = self.config
        frac = min(1.0, self.steps / max(1, c.priority_beta_steps))
        return c.priority_beta_start + (1.0 - c.priority_beta_start) * frac

    def _train_step(self) -> float:
        c = self.config
        prioritized = isinstance(self.memory, PrioritizedReplayMemory)
        weights = None
        if prioritized:
            batch, indices, weights = self.memory.sample_prioritized(
                c.batch_size, beta=self.priority_beta
            )
        else:
            batch = self.memory.sample(c.batch_size)
        states, actions, rewards, next_states, dones = batch

        def targets(online_next_q: Optional[np.ndarray] = None) -> np.ndarray:
            next_value = self._next_q(next_states, online_next_q)
            return rewards + c.gamma * next_value * (~dones)

        self.train_steps += 1
        # Double DQN selects the next action with the online network, so
        # its next-state rows join the update's own forward.
        loss, td_errors = self.online.train_batch(
            states, actions, targets if self.double else targets(),
            sample_weights=weights, return_td_errors=True,
            next_states=next_states if self.double else None,
        )
        if prioritized:
            self.memory.update_priorities(indices, np.abs(td_errors))
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "repro_train_updates_total", "gradient updates"
            ).inc()
            registry.gauge(
                "repro_train_loss", "loss of the most recent update"
            ).set(loss)
            registry.gauge(
                "repro_train_epsilon", "current exploration rate"
            ).set(self.epsilon)
            registry.gauge(
                "repro_train_replay_size", "transitions in replay memory"
            ).set(len(self.memory))
            if isinstance(self.memory, PrioritizedReplayMemory):
                stats = self.memory.priority_stats()
                registry.gauge(
                    "repro_learner_replay_priority_mean",
                    "mean live replay priority mass",
                ).set(stats["mean"])
                registry.gauge(
                    "repro_learner_replay_priority_max",
                    "max live replay priority mass",
                ).set(stats["max"])
        return loss

    def train_from_replay(self, updates: int) -> List[float]:
        """Run up to ``updates`` gradient steps from the stored replay only.

        This is the offline fine-tune entry point: no environment steps,
        no exploration — just repeated sampling of whatever experience
        has been pushed into :attr:`memory` (e.g. journaled traffic
        trajectories). The target network is synchronized every
        ``target_sync_every / train_every`` updates so the sync-per-update
        ratio matches online training. Returns the losses of the updates
        actually run — empty when the buffer is below ``min_replay`` /
        ``batch_size``.
        """
        c = self.config
        needed = max(c.batch_size, c.min_replay)
        losses: List[float] = []
        if updates <= 0 or len(self.memory) < needed:
            return losses
        sync_every = max(1, c.target_sync_every // max(1, c.train_every))
        for i in range(updates):
            loss = self._train_step()
            self.last_loss = loss
            losses.append(loss)
            if (i + 1) % sync_every == 0:
                self.target.copy_from(self.online)
        return losses

    # -- persistence ------------------------------------------------------------
    def save(self, path: str, metadata: Optional[dict] = None) -> None:
        self.online.save(path, metadata=metadata)

    def load(self, path: str) -> None:
        net = QNetwork.load(path, self.config.hidden)
        self.online.copy_from(net)
        self.target.copy_from(net)


class DoubleDQNAgent(DQNAgent):
    """Double DQN: online net picks argmax, target net scores it."""

    double = True

    def _next_q(
        self, next_states: np.ndarray, online_q: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if online_q is None:
            online_q = self.online.predict(next_states)
        best = online_q.argmax(axis=1)
        target_q = self.target.predict(next_states)
        return target_q[np.arange(len(best)), best]
