"""Non-learned phase-ordering policies.

Baselines and bounds to position the RL agent against:

* :func:`greedy_reward_policy` — one-step-lookahead maximization of the
  paper's reward (Eq. 1): an oracle-ish upper bound on what a converged
  value function could do per step;
* :func:`greedy_size_policy` / :func:`greedy_throughput_policy` — the
  single-objective extremes (α-only / β-only);
* :func:`random_policy` — uniform actions (the floor);
* :func:`oz_decomposition_policy` — replays the action space's own
  sub-sequences in their -Oz-derived order (what a non-learned scheduler
  would do with the same action space).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..ir.module import Module
from .environment import ActionSpace, PhaseOrderingEnv, greedy_rollout
from .metrics import ModuleMetrics
from .rewards import RewardWeights, combined_reward

__all__ = [
    "PolicyResult",
    "greedy_reward_policy",
    "greedy_size_policy",
    "greedy_throughput_policy",
    "oz_decomposition_policy",
    "random_policy",
    "rollout_policy",
]


class PolicyResult:
    """Outcome of running a policy on one module."""

    def __init__(self, env: PhaseOrderingEnv, actions: List[int]):
        self.actions = actions
        self.final_size = env.last_size
        self.final_throughput = env.last_throughput
        self.final_cycles = 1e9 / env.last_throughput
        self.base_size = env.base_size
        self.module = env.current

    @property
    def size_reduction_from_base_pct(self) -> float:
        return 100.0 * (self.base_size - self.final_size) / self.base_size


def rollout_policy(
    module: Module,
    choose: Callable[[PhaseOrderingEnv], int],
    action_space: Optional[ActionSpace] = None,
    target: str = "x86-64",
    steps: int = 15,
    weights: RewardWeights = RewardWeights(),
) -> PolicyResult:
    """Drive an environment with an arbitrary per-step chooser."""
    env = PhaseOrderingEnv(
        module, action_space, target=target, weights=weights,
        episode_length=steps,
    )
    actions = greedy_rollout(env, lambda _state: choose(env))
    return PolicyResult(env, actions)


def _lookahead_chooser(
    score: Callable[[PhaseOrderingEnv, ModuleMetrics], float]
) -> Callable[[PhaseOrderingEnv], int]:
    """Chooser that applies every action to a clone, measures it with the
    env's metrics engine (so functions an action left unchanged reuse
    their cached records) and keeps the best score."""

    def choose(env: PhaseOrderingEnv) -> int:
        best_action, best_score = 0, None
        for action in range(env.num_actions):
            trial = env.current.clone()
            env.action_space.apply(action, trial)
            s = score(env, env.metrics.measure(trial))
            if best_score is None or s > best_score:
                best_action, best_score = action, s
        return best_action

    return choose


def greedy_reward_policy(
    module: Module,
    action_space: Optional[ActionSpace] = None,
    target: str = "x86-64",
    steps: int = 15,
    weights: RewardWeights = RewardWeights(),
) -> PolicyResult:
    """Maximize the paper's combined reward one step at a time."""

    def score(env: PhaseOrderingEnv, trial: ModuleMetrics) -> float:
        return combined_reward(
            env.last_size, trial.size, env.base_size,
            env.last_throughput, trial.throughput, env.base_throughput,
            weights,
        )

    return rollout_policy(
        module, _lookahead_chooser(score), action_space, target, steps, weights
    )


def greedy_size_policy(
    module: Module,
    action_space: Optional[ActionSpace] = None,
    target: str = "x86-64",
    steps: int = 15,
) -> PolicyResult:
    """Minimize object size one step at a time (β = 0 extreme)."""

    def score(env: PhaseOrderingEnv, trial: ModuleMetrics) -> float:
        return -float(trial.size)

    return rollout_policy(module, _lookahead_chooser(score), action_space, target, steps)


def greedy_throughput_policy(
    module: Module,
    action_space: Optional[ActionSpace] = None,
    target: str = "x86-64",
    steps: int = 15,
) -> PolicyResult:
    """Minimize estimated cycles one step at a time (α = 0 extreme)."""

    def score(env: PhaseOrderingEnv, trial: ModuleMetrics) -> float:
        return -trial.cycles

    return rollout_policy(module, _lookahead_chooser(score), action_space, target, steps)


def random_policy(
    module: Module,
    action_space: Optional[ActionSpace] = None,
    target: str = "x86-64",
    steps: int = 15,
    seed: int = 0,
) -> PolicyResult:
    """Uniform random actions — the floor every learned policy must beat."""
    rng = np.random.RandomState(seed)

    def choose(env: PhaseOrderingEnv) -> int:
        return int(rng.randint(env.num_actions))

    return rollout_policy(module, choose, action_space, target, steps)


def oz_decomposition_policy(
    module: Module,
    action_space: Optional[ActionSpace] = None,
    target: str = "x86-64",
) -> PolicyResult:
    """Apply every sub-sequence of the action space once, in table order —
    i.e. replay the (decomposed) -Oz ordering through the action space."""
    env = PhaseOrderingEnv(module, action_space, target=target,
                           episode_length=10_000)
    env.reset()
    actions = list(range(env.num_actions))
    for action in actions:
        env.step(action)
    return PolicyResult(env, actions)
