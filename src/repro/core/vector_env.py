"""Synchronous vector environment: N phase-ordering envs in lockstep.

:class:`VectorPhaseOrderingEnv` drives ``n_envs`` :class:`PhaseOrderingEnv`
instances over a sampled corpus so an agent can make one batched decision
per wall-clock step — ``act_batch`` on an ``(n_envs, state_dim)`` matrix —
instead of one network forward per environment. Episodes auto-reset: when
a slot finishes its episode, the completed trajectory is recorded (see
:class:`EpisodeRecord` / :meth:`pop_completed`) and the slot resamples a
module from the corpus on the *next* observation request.

Resets are deliberately lazy. The corpus-sampling RNG draw for a slot's
next episode happens when observations are next needed, not at the moment
``done`` flips — after the learner has stored the finishing transition,
which is where a per-episode loop (draw a module, roll out, store) makes
its draw. With ``n_envs=1`` the vector env therefore consumes the RNG
stream exactly as such a loop does, so
:meth:`repro.core.agent_api.PosetRL.train` (``n_envs=1``) reproduces that
loop bit for bit.

Slots hold real ``PhaseOrderingEnv`` objects built by ``env_factory``;
a factory that closes over one :class:`~repro.core.metrics.MetricsEngine`
lets every slot feed, and benefit from, the same transition cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.module import Module
from .environment import PhaseOrderingEnv, StepInfo


@dataclass
class EpisodeRecord:
    """One finished episode, accumulated by the vector env."""

    module: str
    total_reward: float
    final_size: int
    actions: List[int] = field(default_factory=list)


class VectorPhaseOrderingEnv:
    """N lockstep phase-ordering environments over a sampled corpus."""

    def __init__(
        self,
        modules: Sequence[Tuple[str, Module]],
        n_envs: int,
        env_factory: Callable[[Module], PhaseOrderingEnv],
        *,
        rng: Optional[np.random.RandomState] = None,
    ):
        if not modules:
            raise ValueError("training corpus is empty")
        if n_envs <= 0:
            raise ValueError("n_envs must be positive")
        self.modules = list(modules)
        self.n_envs = n_envs
        self._env_factory = env_factory
        self._rng = rng if rng is not None else np.random.RandomState(0)
        self._needs_reset = [True] * n_envs
        self._obs: Optional[np.ndarray] = None
        self._completed: List[EpisodeRecord] = []
        self._slot_names: List[Optional[str]] = [None] * n_envs
        self._ep_rewards = [0.0] * n_envs
        self._ep_actions: List[List[int]] = [[] for _ in range(n_envs)]
        # Per-slot env caches keyed by benchmark name: one slot reuses its
        # env when the corpus resamples the same program, but two
        # concurrently-active slots never share one mutable env instance.
        self._env_cache: List[Dict[str, PhaseOrderingEnv]] = [
            {} for _ in range(n_envs)
        ]
        self._slot_envs: List[Optional[PhaseOrderingEnv]] = [None] * n_envs

    # -- slot plumbing ------------------------------------------------------
    def _materialize_resets(self) -> None:
        """Sample modules and reset every slot flagged ``needs_reset``.

        Sampling happens in slot order with one RNG draw per slot — the
        draws a per-episode loop would make at its next episode starts.
        """
        for slot in range(self.n_envs):
            if not self._needs_reset[slot]:
                continue
            name, module = self.modules[
                int(self._rng.randint(len(self.modules)))
            ]
            self._slot_names[slot] = name
            self._ep_rewards[slot] = 0.0
            self._ep_actions[slot] = []
            self._needs_reset[slot] = False
            env = self._env_cache[slot].get(name)
            if env is None:
                env = self._env_factory(module)
                self._env_cache[slot][name] = env
            self._slot_envs[slot] = env
            state = env.reset()
            if self._obs is None:
                # The env's own state dtype (float32 embeddings), which
                # is also the learner's: no cast on the way to the network.
                state = np.asarray(state)
                self._obs = np.zeros(
                    (self.n_envs, state.shape[-1]), dtype=state.dtype
                )
            self._obs[slot] = state

    # -- gym-style vector API ----------------------------------------------
    @property
    def state_dim(self) -> Optional[int]:
        return None if self._obs is None else self._obs.shape[1]

    @property
    def observations(self) -> np.ndarray:
        """Current ``(n_envs, state_dim)`` observations.

        Materializes any pending auto-resets (this is where finished
        slots draw their next module). Returns a copy: :meth:`step`
        updates the internal buffer in place, and callers hold on to the
        pre-step observations until they have stored the transition.
        """
        self._materialize_resets()
        assert self._obs is not None
        return self._obs.copy()

    def reset(self) -> np.ndarray:
        """Resample and reset every slot; returns the stacked states."""
        self._needs_reset = [True] * self.n_envs
        self._completed.clear()
        return self.observations

    def step(
        self, actions: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[StepInfo]]:
        """Advance every slot one step in lockstep.

        Returns ``(next_states, rewards, dones, infos)``. For slots that
        finished their episode, ``next_states`` holds the *terminal*
        observation (what a learner should store for the transition);
        the post-reset observation appears in :attr:`observations` once
        the slot's lazy reset runs. Completed episodes are queued for
        :meth:`pop_completed`.
        """
        if len(actions) != self.n_envs:
            raise ValueError(
                f"expected {self.n_envs} actions, got {len(actions)}"
            )
        self._materialize_resets()
        assert self._obs is not None

        next_states = np.empty_like(self._obs)
        rewards = np.zeros(self.n_envs, dtype=np.float64)
        dones = np.zeros(self.n_envs, dtype=bool)
        infos: List[StepInfo] = []
        for slot in range(self.n_envs):
            env = self._slot_envs[slot]
            assert env is not None
            state, reward, done, info = env.step(int(actions[slot]))
            next_states[slot] = state
            rewards[slot] = reward
            dones[slot] = done
            infos.append(info)
            self._ep_rewards[slot] += reward
            self._ep_actions[slot].append(info.action)
            if done:
                name = self._slot_names[slot]
                assert name is not None
                self._completed.append(
                    EpisodeRecord(
                        module=name,
                        total_reward=self._ep_rewards[slot],
                        # StepInfo.bin_size is the post-step size, i.e.
                        # the env's ``last_size`` at episode end.
                        final_size=info.bin_size,
                        actions=list(self._ep_actions[slot]),
                    )
                )
                self._needs_reset[slot] = True
            else:
                self._obs[slot] = state
        return next_states, rewards, dones, infos

    def pop_completed(self) -> List[EpisodeRecord]:
        """Drain episodes finished since the last call (oldest first)."""
        done, self._completed = self._completed, []
        return done
