"""DQN and Double DQN agents.

The paper uses Double DQN (Section II-B): the online network selects the
best next action, the target network evaluates it — curbing the Q-value
overestimation of vanilla DQN. Plain DQN is also provided for the
ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..observability import get_registry
from .network import QNetwork
from .priority import PrioritizedReplayMemory
from .replay import ReplayMemory
from .schedule import LinearSchedule, paper_epsilon_schedule


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
        """ε-greedy action (or pure greedy for evaluation): a one-row
        :meth:`act_batch`."""
        return int(self.act_batch(np.reshape(state, (1, -1)), greedy)[0])

    def act_batch(self, states: np.ndarray, greedy: bool = False) -> np.ndarray:
        """ε-greedy actions for a whole ``(n, state_dim)`` batch.

        One ``QNetwork.predict`` forward serves every row. The per-row
        exploration draws happen in row order — one uniform draw, then a
        ``randint`` only when exploring — so the RNG stream depends only
        on the number of rows acted on, not on how they were batched.
        """
        states = np.asarray(states, dtype=np.float64)
        if states.ndim != 2:
            raise ValueError(f"expected (n, state_dim) batch, got {states.shape}")
        n = states.shape[0]
        actions = np.empty(n, dtype=np.int64)
        explore = np.zeros(n, dtype=bool)
        if not greedy:
            eps = self.epsilon
            for i in range(n):
                if self._rng.random_sample() < eps:
                    explore[i] = True
                    actions[i] = int(self._rng.randint(self.config.num_actions))
        exploit = ~explore
        if exploit.any():
            q = self.online.predict(states)
            actions[exploit] = q.argmax(axis=1)[exploit]
        return actions

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
        """Store one transition: a one-row :meth:`remember_batch`."""
        self.remember_batch([state], [action], [reward], [next_state], [done])

    def remember_batch(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        dones: np.ndarray,
    ) -> None:
        """Store ``n`` transitions (rows), preserving serial semantics.

        Step counting, the ``train_every`` training cadence and target
        synchronization all remain *per transition*: a training update
        that one-at-a-time storage would have run between two pushes
        still runs between them here, so batching changes nothing about
        when (or on what) the network trains.

        Insertion is still vectorized: updates and target syncs can only
        fire at ``train_every`` / ``target_sync_every`` step boundaries,
        so transitions are bulk-written with ``push_batch`` in chunks
        that end exactly on those boundaries — identical observable
        behavior, far fewer per-row Python round-trips.
        """
        c = self.config
        states = np.atleast_2d(np.asarray(states))
        next_states = np.atleast_2d(np.asarray(next_states))
        actions = np.asarray(actions)
        dones = np.asarray(dones)
        scaled = np.asarray(rewards, dtype=np.float64) * c.reward_scale
        n = len(actions)
        i = 0
        while i < n:
            remaining = n - i
            if len(self.memory) + remaining < c.min_replay:
                # No update can fire inside this batch; only sync
                # boundaries limit the chunk.
                to_train = remaining
            else:
                to_train = c.train_every - (self.steps % c.train_every)
            to_sync = c.target_sync_every - (self.steps % c.target_sync_every)
            chunk = min(remaining, to_train, to_sync)
            end = i + chunk
            self.memory.push_batch(
                states[i:end],
                actions[i:end],
                scaled[i:end],
                next_states[i:end],
                dones[i:end],
            )
            self.steps += chunk
            i = end
            if (
                len(self.memory) >= c.min_replay
                and self.steps % c.train_every == 0
            ):
                self.last_loss = self._train_step()
            if self.steps % c.target_sync_every == 0:
                self.target.copy_from(self.online)

    def _next_q(self, next_states: np.ndarray) -> np.ndarray:
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
        if isinstance(self.memory, PrioritizedReplayMemory):
            batch, indices, weights = self.memory.sample_prioritized(
                c.batch_size, beta=self.priority_beta
            )
            states, actions, rewards, next_states, dones = batch
            next_value = self._next_q(next_states)
            targets = rewards + c.gamma * next_value * (~dones)
            self.train_steps += 1
            loss, td_errors = self.online.train_batch(
                states, actions, targets,
                sample_weights=weights, return_td_errors=True,
            )
            self.memory.update_priorities(indices, np.abs(td_errors))
        else:
            states, actions, rewards, next_states, dones = self.memory.sample(
                c.batch_size
            )
            next_value = self._next_q(next_states)
            targets = rewards + c.gamma * next_value * (~dones)
            self.train_steps += 1
            loss = self.online.train_batch(states, actions, targets)
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

    def _next_q(self, next_states: np.ndarray) -> np.ndarray:
        online_q = self.online.predict(next_states)
        best = online_q.argmax(axis=1)
        target_q = self.target.predict(next_states)
        return target_q[np.arange(len(best)), best]
