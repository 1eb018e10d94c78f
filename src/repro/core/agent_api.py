"""High-level POSET-RL API.

:class:`PosetRL` wires everything together: action space (manual or ODG),
Double-DQN agent, training over a corpus of modules, greedy prediction,
and suite evaluation against ``-Oz``. This is the facade the examples and
benchmark harness drive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.module import Module
from ..ir.verifier import VerificationError, verify_module
from ..observability import get_registry
from ..rl.dqn import AgentConfig, DoubleDQNAgent, DQNAgent
from ..rl.ppo import PPOAgent, PPOConfig
from .environment import (
    ActionSpace,
    DEFAULT_EPISODE_LENGTH,
    PhaseOrderingEnv,
    apply_action,
    greedy_rollout,
    make_action_space,
)
from .evaluate import BenchmarkResult, SuiteSummary, evaluate_suite
from .metrics import MetricsEngine
from .rewards import RewardWeights
from .vector_env import VectorPhaseOrderingEnv


@dataclass
class TrainStats:
    """Per-episode training diagnostics."""

    episode: int
    module: str
    total_reward: float
    final_size: int
    epsilon: float
    actions: List[int] = field(default_factory=list)


@dataclass
class TrainThroughput:
    """Wall-clock throughput of one training run."""

    n_envs: int
    total_steps: int
    episodes: int
    wall_seconds: float
    train_updates: int

    @property
    def steps_per_second(self) -> float:
        return self.total_steps / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def episodes_per_second(self) -> float:
        return self.episodes / self.wall_seconds if self.wall_seconds else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "n_envs": self.n_envs,
            "total_steps": self.total_steps,
            "episodes": self.episodes,
            "wall_seconds": round(self.wall_seconds, 4),
            "train_updates": self.train_updates,
            "steps_per_second": round(self.steps_per_second, 2),
            "episodes_per_second": round(self.episodes_per_second, 2),
        }


#: Histogram buckets for per-episode total reward (raw POSET-RL rewards
#: reach ±10 on the size term alone).
EPISODE_REWARD_BUCKETS = (
    -20.0, -10.0, -5.0, -2.0, -1.0, -0.5, 0.0,
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0,
)


def _publish_episode(record: "TrainStats") -> None:
    """Mirror one finished episode into the metric registry."""
    registry = get_registry()
    if not registry.enabled:
        return
    registry.counter(
        "repro_train_episodes_total", "finished training episodes"
    ).inc()
    registry.counter(
        "repro_train_env_steps_total", "environment transitions consumed"
    ).inc(len(record.actions))
    registry.histogram(
        "repro_train_episode_reward", "total reward per episode",
        buckets=EPISODE_REWARD_BUCKETS,
    ).observe(record.total_reward)
    registry.gauge(
        "repro_train_epsilon", "current exploration rate"
    ).set(record.epsilon)


def _publish_throughput(report: "TrainThroughput") -> None:
    registry = get_registry()
    if not registry.enabled:
        return
    registry.gauge(
        "repro_train_steps_per_second",
        "environment steps per wall second of the last training run",
    ).set(report.steps_per_second)


class PosetRL:
    """Train/predict/evaluate phase orderings for size and runtime."""

    def __init__(
        self,
        action_space: str = "odg",
        target: str = "x86-64",
        weights: Optional[RewardWeights] = None,
        episode_length: int = DEFAULT_EPISODE_LENGTH,
        agent_config: Optional[AgentConfig] = None,
        ppo_config: Optional[PPOConfig] = None,
        double_dqn: bool = True,
        algo: Optional[str] = None,
        seed: int = 0,
    ):
        self.action_space_kind = action_space
        self.actions = make_action_space(action_space)
        self.target = target
        self.weights = weights if weights is not None else RewardWeights()
        self.episode_length = episode_length
        #: One incremental metrics engine shared by every environment this
        #: facade creates — the cross-episode/cross-module reuse is where
        #: the training-loop speedup comes from.
        self.metrics = MetricsEngine(target)
        if algo is None:
            algo = "ddqn" if double_dqn else "dqn"
        if algo not in ("ddqn", "dqn", "prioritized-ddqn", "ppo"):
            raise ValueError(f"unknown algo {algo!r}")
        self.algo = algo
        config = agent_config or AgentConfig()
        config = replace(
            config, num_actions=len(self.actions), seed=seed
        )
        if algo == "ppo":
            if ppo_config is None:
                ppo_config = PPOConfig(
                    state_dim=config.state_dim,
                    num_actions=config.num_actions,
                    hidden=tuple(config.hidden),
                    gamma=config.gamma,
                    reward_scale=config.reward_scale,
                    seed=seed,
                )
            else:
                ppo_config = replace(
                    ppo_config, num_actions=len(self.actions), seed=seed
                )
            self.agent = PPOAgent(ppo_config)
        else:
            if algo == "prioritized-ddqn":
                config = replace(config, prioritized_replay=True)
            agent_cls = DQNAgent if algo == "dqn" else DoubleDQNAgent
            self.agent = agent_cls(config)
        self._rng = np.random.RandomState(seed + 13)
        self.train_history: List[TrainStats] = []
        #: Throughput report of the most recent :meth:`train` /
        #: :meth:`train_vectorized` call.
        self.last_train_throughput: Optional[TrainThroughput] = None
        #: ``(input fingerprint, actions, optimized module)`` of the last
        #: :meth:`predict`, consumed by :meth:`apply_actions`.
        self._last_rollout: Optional[Tuple[str, Tuple[int, ...], Module]] = None

    # -- environments --------------------------------------------------------
    def make_env(self, module: Module) -> PhaseOrderingEnv:
        return PhaseOrderingEnv(
            module,
            self.actions,
            target=self.target,
            weights=self.weights,
            episode_length=self.episode_length,
            metrics=self.metrics,
        )

    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Hit/miss/eviction counters of the shared metrics engine."""
        return self.metrics.stats()

    # -- training ---------------------------------------------------------------
    def _flush_updates(self) -> None:
        """Let buffer-based agents (PPO) learn from the residual
        sub-horizon tail when a training budget ends."""
        flush = getattr(self.agent, "flush", None)
        if flush is not None:
            flush()

    def train(
        self,
        modules: Sequence[Tuple[str, Module]],
        episodes: int = 50,
        callback: Optional[Callable[[TrainStats], None]] = None,
    ) -> List[TrainStats]:
        """ε-greedy training over a corpus, one environment at a time.

        ``modules`` are (name, module) pairs — e.g. the 130 llvm-test-suite
        single-source programs the paper trains on. Episodes sample the
        corpus uniformly; each episode runs ``episode_length`` steps. This
        is :meth:`train_vectorized` with ``n_envs=1``.
        """
        if not modules:
            raise ValueError("training corpus is empty")
        return self.train_vectorized(
            modules, episodes=episodes, n_envs=1, callback=callback
        )

    def make_vector_env(
        self, modules: Sequence[Tuple[str, Module]], n_envs: int
    ) -> VectorPhaseOrderingEnv:
        """``n_envs`` lockstep environments over ``modules``.

        Slots share this facade's metrics engine and its corpus-sampling
        RNG, so every training run continues one module sequence.
        """
        return VectorPhaseOrderingEnv(
            modules, n_envs, self.make_env, rng=self._rng
        )

    def train_vectorized(
        self,
        modules: Sequence[Tuple[str, Module]],
        total_steps: Optional[int] = None,
        n_envs: int = 8,
        *,
        episodes: Optional[int] = None,
        callback: Optional[Callable[[TrainStats], None]] = None,
    ) -> List[TrainStats]:
        """Batched ε-greedy training: ``n_envs`` environments per decision.

        Each iteration makes one batched ``act_batch`` forward over the
        ``(n_envs, state_dim)`` observation matrix, steps every
        environment in lockstep, and stores the resulting transitions
        with per-transition semantics (step counting, training cadence,
        target syncs). With ``n_envs=1`` this is the paper's serial loop:
        one module draw per episode, one ε-greedy action and one stored
        transition per step. Larger ``n_envs`` amortize the network
        forward over the batch.

        Give exactly one of ``total_steps`` (environment transitions,
        summed over envs; the loop stops at the first lockstep boundary
        ≥ it) or ``episodes`` (converted via ``episode_length``).
        Episode records extend ``train_history``; the wall-clock summary
        lands in :attr:`last_train_throughput`.
        """
        if (total_steps is None) == (episodes is None):
            raise ValueError("specify exactly one of total_steps / episodes")
        if episodes is not None:
            total_steps = episodes * self.episode_length
        assert total_steps is not None
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")

        venv = self.make_vector_env(modules, n_envs)
        stats: List[TrainStats] = []
        steps_done = 0
        train_updates_before = self.agent.train_steps
        start = time.perf_counter()
        venv.reset()
        while steps_done < total_steps:
            # Pending auto-resets materialize here — after the previous
            # step's transitions were stored, which is when a per-episode
            # loop would sample its next module.
            states = venv.observations
            actions = self.agent.act_batch(states)
            next_states, rewards, dones, _infos = venv.step(actions)
            self.agent.remember_batch(
                states, actions, rewards, next_states, dones
            )
            steps_done += venv.n_envs
            for rec in venv.pop_completed():
                record = TrainStats(
                    episode=len(stats),
                    module=rec.module,
                    total_reward=rec.total_reward,
                    final_size=rec.final_size,
                    epsilon=self.agent.epsilon,
                    actions=rec.actions,
                )
                stats.append(record)
                _publish_episode(record)
                if callback is not None:
                    callback(record)
        self._flush_updates()
        self.last_train_throughput = TrainThroughput(
            n_envs=n_envs,
            total_steps=steps_done,
            episodes=len(stats),
            wall_seconds=time.perf_counter() - start,
            train_updates=self.agent.train_steps - train_updates_before,
        )
        _publish_throughput(self.last_train_throughput)
        self.train_history.extend(stats)
        return stats

    # -- inference -----------------------------------------------------------------
    def predict(self, module: Module) -> List[int]:
        """Greedy rollout: the predicted sub-sequence ordering (Table VI).

        The rollout's end state is the optimized module; it is kept (one
        entry, keyed by the input's fingerprint and the actions) for the
        :meth:`apply_actions` call that usually follows.
        """
        env = self.make_env(module)
        fingerprint = env.fingerprint
        actions, optimized = greedy_rollout(
            env, lambda state: self.agent.act(state, greedy=True)
        )
        self._last_rollout = (fingerprint, tuple(actions), optimized)
        return actions

    def apply_actions(
        self, module: Module, actions: Sequence[int], verify: bool = True
    ) -> Module:
        """Apply a predicted action sequence to a fresh copy of ``module``.

        Right after :meth:`predict` on an unchanged ``module`` with the
        same actions, the rollout's module is handed over instead of
        re-running the passes (once: the entry is then dropped).
        Otherwise the sequence is replayed on a clone.

        The result is verified before it is returned: a pass that broke an
        IR invariant raises :class:`ValueError` naming the offending action
        index and its pass sub-sequence (located by replaying the sequence
        with per-action verification — the happy path verifies only once).
        """
        memo, self._last_rollout = self._last_rollout, None
        if (
            memo is not None
            and memo[1] == tuple(actions)
            and memo[0] == self.metrics.fingerprint(module)
        ):
            result = memo[2]
        else:
            result = module.clone()
            fingerprint = self.metrics.fingerprint(result)
            for action in actions:
                fingerprint, _, _ = apply_action(
                    self.actions, action, result, self.metrics, fingerprint
                )
        if verify:
            try:
                verify_module(result)
            except VerificationError as exc:
                probe = module.clone()
                for index, action in enumerate(actions):
                    self.actions.apply(action, probe)
                    try:
                        verify_module(probe)
                    except VerificationError as inner:
                        raise ValueError(
                            f"action {index} (id {action}: "
                            f"{' '.join(self.actions.passes_for(action))}) "
                            f"produced invalid IR: {inner}"
                        ) from exc
                raise ValueError(
                    f"predicted sequence produced invalid IR: {exc}"
                ) from exc
        return result

    def predicted_pass_sequence(self, actions: Sequence[int]) -> List[str]:
        passes: List[str] = []
        for action in actions:
            passes.extend(self.actions.passes_for(action))
        return passes

    # -- evaluation -------------------------------------------------------------------
    def evaluate_suite(
        self,
        suite_name: str,
        modules: Sequence[Tuple[str, Module]],
    ) -> SuiteSummary:
        """Table IV / Table V style summary for one benchmark suite."""
        return evaluate_suite(
            suite_name,
            modules,
            predict=self.predict,
            apply_actions=self.apply_actions,
            target=self.target,
        )

    # -- persistence -----------------------------------------------------------
    def save(self, path: str) -> None:
        """Checkpoint the online network, with serving-facing metadata.

        The embedded metadata (action-space name, target, episode length,
        training stats) lets :class:`repro.serving.ModelRegistry` rebuild a
        correctly-configured serving model from the file alone.
        """
        self.agent.save(path, metadata=self.checkpoint_metadata())

    def checkpoint_metadata(self) -> Dict[str, object]:
        return {
            "action_space": self.action_space_kind,
            "target": self.target,
            "episode_length": self.episode_length,
            "num_actions": len(self.actions),
            "algo": self.algo,
            "double_dqn": self.agent.double,
            "train_episodes": len(self.train_history),
            "train_steps": self.agent.steps,
            "train_updates": self.agent.train_steps,
            "epsilon": self.agent.epsilon,
        }

    def load(self, path: str) -> None:
        self.agent.load(path)
