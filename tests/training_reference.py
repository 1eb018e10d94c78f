"""Per-transition reference for the training loop.

The oracle ``PosetRL.train`` / ``train_vectorized`` (and, through them,
the distributed actors) are compared against: the paper's loop written
out one transition at a time. Each episode draws its module from the
facade's corpus RNG, resets a per-name cached environment, then runs
``agent.act`` → ``env.step`` → ``agent.remember`` until ``done`` — no
vector env, no batching, no lazy reset.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.agent_api import PosetRL, TrainStats
from repro.core.environment import PhaseOrderingEnv
from repro.ir.module import Module


def reference_train(
    rl: PosetRL,
    modules: Sequence[Tuple[str, Module]],
    episodes: int,
    callback: Optional[Callable[[TrainStats], None]] = None,
) -> List[TrainStats]:
    """Train ``rl`` for ``episodes`` episodes, one transition at a time."""
    envs: Dict[str, PhaseOrderingEnv] = {}
    stats: List[TrainStats] = []
    for episode in range(episodes):
        name, module = modules[int(rl._rng.randint(len(modules)))]
        env = envs.get(name)
        if env is None:
            env = envs[name] = rl.make_env(module)
        state = env.reset()
        total = 0.0
        actions: List[int] = []
        done = False
        while not done:
            action = rl.agent.act(state)
            next_state, reward, done, _info = env.step(action)
            rl.agent.remember(state, action, reward, next_state, done)
            state = next_state
            total += reward
            actions.append(action)
        record = TrainStats(
            episode=episode,
            module=name,
            total_reward=total,
            final_size=env.last_size,
            epsilon=rl.agent.epsilon,
            actions=actions,
        )
        stats.append(record)
        if callback is not None:
            callback(record)
    flush = getattr(rl.agent, "flush", None)
    if flush is not None:
        flush()
    rl.train_history.extend(stats)
    return stats
