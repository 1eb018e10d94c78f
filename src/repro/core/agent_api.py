"""High-level POSET-RL API.

:class:`PosetRL` wires everything together: action space (manual or ODG),
Double-DQN agent, training over a corpus of modules, greedy prediction,
and suite evaluation against ``-Oz``. This is the facade the examples and
benchmark harness drive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.module import Module
from ..ir.verifier import VerificationError, verify_module
from ..observability import get_registry
from ..rl.dqn import AgentConfig, DoubleDQNAgent, DQNAgent
from ..rl.ppo import PPOAgent, PPOConfig
from .environment import (
    DEFAULT_EPISODE_LENGTH,
    PhaseOrderingEnv,
    apply_action,
    greedy_rollout,
    make_action_space,
)
from .evaluate import SuiteSummary, evaluate_suite
from .metrics import MetricsEngine
from .rewards import RewardWeights


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
        algo: str = "ddqn",
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
        #: Throughput report of the most recent :meth:`train` call.
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
    def train(
        self,
        modules: Sequence[Tuple[str, Module]],
        episodes: int = 50,
        callback: Optional[Callable[[TrainStats], None]] = None,
    ) -> List[TrainStats]:
        """ε-greedy training over a corpus, one transition at a time.

        ``modules`` are (name, module) pairs — e.g. the 130 llvm-test-suite
        single-source programs the paper trains on. Each episode draws a
        module uniformly from the corpus, resets its environment (one per
        distinct name, reused when the draw repeats) and runs
        ``episode_length`` steps of act → step → remember. Episode records
        extend ``train_history``; the wall-clock summary lands in
        :attr:`last_train_throughput`.
        """
        if not modules:
            raise ValueError("training corpus is empty")
        if episodes <= 0:
            raise ValueError("episodes must be positive")
        agent = self.agent
        envs: Dict[str, PhaseOrderingEnv] = {}
        stats: List[TrainStats] = []
        steps = 0
        train_updates_before = agent.train_steps
        start = time.perf_counter()
        for episode in range(episodes):
            name, module = modules[int(self._rng.randint(len(modules)))]
            env = envs.get(name)
            if env is None:
                env = envs[name] = self.make_env(module)
            state = env.reset()
            total = 0.0
            actions: List[int] = []
            done = False
            while not done:
                action = agent.act(state)
                next_state, reward, done, _ = env.step(action)
                agent.remember(state, action, reward, next_state, done)
                state = next_state
                total += reward
                actions.append(action)
            steps += len(actions)
            record = TrainStats(
                episode=episode,
                module=name,
                total_reward=total,
                final_size=env.last_size,
                epsilon=agent.epsilon,
                actions=actions,
            )
            stats.append(record)
            _publish_episode(record)
            if callback is not None:
                callback(record)
        # Buffer-based agents (PPO) learn from the residual sub-horizon
        # tail when the budget ends.
        flush = getattr(agent, "flush", None)
        if flush is not None:
            flush()
        self.last_train_throughput = TrainThroughput(
            total_steps=steps,
            episodes=len(stats),
            wall_seconds=time.perf_counter() - start,
            train_updates=agent.train_steps - train_updates_before,
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
        actions = greedy_rollout(
            env, lambda state: self.agent.act(state, greedy=True)
        )
        self._last_rollout = (fingerprint, tuple(actions), env.current)
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
