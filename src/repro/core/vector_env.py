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
``done`` flips — exactly where the serial training loop in
:meth:`repro.core.agent_api.PosetRL.train` draws it. With ``n_envs=1``
the vector path therefore consumes the shared RNG stream identically to
the serial loop, which is what makes batched training bit-for-bit
reproducible against it.

Two execution modes:

* **in-process** (default): slots hold real ``PhaseOrderingEnv`` objects
  created through an ``env_factory`` and share the session
  :class:`~repro.core.metrics.MetricsEngine` — every slot feeds, and
  benefits from, the same transition cache.
* **worker processes** (``workers=k``): slots are partitioned over ``k``
  child processes, each stepping its share of environments while the
  others run — on multi-core machines this parallelizes the expensive
  pass-pipeline/measurement work that dominates cache-miss stepping.
  ``Module`` objects do not pickle, so modules cross the process boundary
  once per (worker, benchmark) as printed IR text, the same convention as
  :func:`repro.core.evaluate.evaluate_suite`. Each worker owns a private
  metrics engine; trajectories are identical to in-process mode because
  environment stepping is deterministic.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import print_module
from .environment import (
    DEFAULT_EPISODE_LENGTH,
    PhaseOrderingEnv,
    StepInfo,
    make_action_space,
)
from .metrics import MetricsEngine
from .rewards import RewardWeights


@dataclass
class EpisodeRecord:
    """One finished episode, accumulated by the vector env."""

    module: str
    total_reward: float
    final_size: int
    actions: List[int] = field(default_factory=list)


@dataclass
class EnvSpec:
    """Picklable recipe for building a ``PhaseOrderingEnv`` in a worker."""

    action_space_kind: str = "odg"
    target: str = "x86-64"
    weights: Optional[RewardWeights] = None
    episode_length: int = DEFAULT_EPISODE_LENGTH


def _env_worker(conn, spec: EnvSpec) -> None:
    """Child-process loop: builds envs on demand, steps them on command.

    Protocol (all messages are tuples, batched per worker):

    * ``("reset", [(slot, name, ir_text_or_None), ...])`` → list of state
      arrays. ``ir_text`` accompanies the first use of ``name`` only; the
      worker caches parsed envs by benchmark name.
    * ``("step", [(slot, action), ...])`` → list of
      ``(state, reward, done, StepInfo)``.
    * ``("close",)`` → exit.
    """
    action_space = make_action_space(spec.action_space_kind)
    engine = MetricsEngine(spec.target)
    # Parsed modules are shared per name; envs are cached per *slot* —
    # two slots running the same benchmark need independent mutable
    # environments (they share metrics through ``engine`` instead).
    parsed: Dict[str, Module] = {}
    envs: Dict[Tuple[int, str], PhaseOrderingEnv] = {}
    active: Dict[int, PhaseOrderingEnv] = {}
    try:
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "reset":
                states = []
                for slot, name, ir_text in msg[1]:
                    if ir_text is not None and name not in parsed:
                        parsed[name] = parse_module(ir_text)
                    env = envs.get((slot, name))
                    if env is None:
                        env = PhaseOrderingEnv(
                            parsed[name],
                            action_space,
                            target=spec.target,
                            weights=spec.weights,
                            episode_length=spec.episode_length,
                            metrics=engine,
                        )
                        envs[(slot, name)] = env
                    active[slot] = env
                    states.append(np.asarray(env.reset()))
                conn.send(states)
            elif cmd == "step":
                results = []
                for slot, action in msg[1]:
                    state, reward, done, info = active[slot].step(int(action))
                    results.append(
                        (np.asarray(state), float(reward), bool(done), info)
                    )
                conn.send(results)
            elif cmd == "close":
                return
    except (EOFError, KeyboardInterrupt):  # parent died / interrupted
        return
    finally:
        conn.close()


class VectorPhaseOrderingEnv:
    """N lockstep phase-ordering environments over a sampled corpus."""

    def __init__(
        self,
        modules: Sequence[Tuple[str, Module]],
        n_envs: int,
        env_factory: Optional[Callable[[Module], PhaseOrderingEnv]] = None,
        *,
        rng: Optional[np.random.RandomState] = None,
        workers: int = 0,
        spec: Optional[EnvSpec] = None,
    ):
        if not modules:
            raise ValueError("training corpus is empty")
        if n_envs <= 0:
            raise ValueError("n_envs must be positive")
        self.modules = list(modules)
        self.n_envs = n_envs
        self._rng = rng if rng is not None else np.random.RandomState(0)
        self._needs_reset = [True] * n_envs
        self._obs: Optional[np.ndarray] = None
        self._completed: List[EpisodeRecord] = []
        self._slot_names: List[Optional[str]] = [None] * n_envs
        self._ep_rewards = [0.0] * n_envs
        self._ep_actions: List[List[int]] = [[] for _ in range(n_envs)]
        self._closed = False

        self.workers = min(int(workers), n_envs) if workers else 0
        if self.workers:
            self._spec = spec if spec is not None else EnvSpec()
            ctx = mp.get_context()
            self._conns = []
            self._procs = []
            self._sent_names: List[Set[str]] = []
            for _ in range(self.workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_env_worker,
                    args=(child_conn, self._spec),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
                self._sent_names.append(set())
        else:
            if env_factory is None:
                if spec is not None:
                    s = spec
                    shared = MetricsEngine(s.target)
                    space = make_action_space(s.action_space_kind)

                    def env_factory(module: Module) -> PhaseOrderingEnv:
                        return PhaseOrderingEnv(
                            module,
                            space,
                            target=s.target,
                            weights=s.weights,
                            episode_length=s.episode_length,
                            metrics=shared,
                        )
                else:
                    raise ValueError(
                        "in-process mode needs an env_factory (or a spec)"
                    )
            self._env_factory = env_factory
            # Per-slot env caches keyed by benchmark name: one slot reuses
            # its env when the corpus resamples the same program (matching
            # the serial loop's cache), but two concurrently-active slots
            # never share one mutable env instance.
            self._env_cache: List[Dict[str, PhaseOrderingEnv]] = [
                {} for _ in range(n_envs)
            ]
            self._slot_envs: List[Optional[PhaseOrderingEnv]] = [None] * n_envs

    # -- slot plumbing ------------------------------------------------------
    def _worker_for(self, slot: int) -> int:
        return slot % self.workers

    def _sample(self) -> Tuple[str, Module]:
        return self.modules[int(self._rng.randint(len(self.modules)))]

    def _materialize_resets(self) -> None:
        """Sample modules and reset every slot flagged ``needs_reset``.

        Sampling happens in slot order with one RNG draw per slot — the
        draws the serial loop would make at its next episode starts.
        """
        pending = [i for i in range(self.n_envs) if self._needs_reset[i]]
        if not pending:
            return
        picks: List[Tuple[int, str, Module]] = []
        for slot in pending:
            name, module = self._sample()
            picks.append((slot, name, module))
            self._slot_names[slot] = name
            self._ep_rewards[slot] = 0.0
            self._ep_actions[slot] = []
            self._needs_reset[slot] = False

        if self.workers:
            by_worker: Dict[int, List[Tuple[int, str, Optional[str]]]] = {}
            for slot, name, module in picks:
                w = self._worker_for(slot)
                ir_text = None
                if name not in self._sent_names[w]:
                    ir_text = print_module(module)
                    self._sent_names[w].add(name)
                by_worker.setdefault(w, []).append((slot, name, ir_text))
            for w, items in by_worker.items():
                self._conns[w].send(("reset", items))
            for w, items in by_worker.items():
                states = self._conns[w].recv()
                for (slot, _, _), state in zip(items, states):
                    self._store_obs(slot, state)
        else:
            for slot, name, module in picks:
                env = self._env_cache[slot].get(name)
                if env is None:
                    env = self._env_factory(module)
                    self._env_cache[slot][name] = env
                self._slot_envs[slot] = env
                self._store_obs(slot, env.reset())

    def _store_obs(self, slot: int, state: np.ndarray) -> None:
        if self._obs is None:
            self._obs = np.zeros(
                (self.n_envs, np.asarray(state).shape[-1]), dtype=np.float64
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
        for slot in range(self.n_envs):
            self._needs_reset[slot] = True
            self._ep_rewards[slot] = 0.0
            self._ep_actions[slot] = []
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
        if any(self._needs_reset):
            self._materialize_resets()
        assert self._obs is not None

        results: List[Optional[Tuple[np.ndarray, float, bool, StepInfo]]]
        results = [None] * self.n_envs
        if self.workers:
            by_worker: Dict[int, List[Tuple[int, int]]] = {}
            for slot in range(self.n_envs):
                by_worker.setdefault(self._worker_for(slot), []).append(
                    (slot, int(actions[slot]))
                )
            for w, items in by_worker.items():
                self._conns[w].send(("step", items))
            for w, items in by_worker.items():
                for (slot, _), result in zip(items, self._conns[w].recv()):
                    results[slot] = result
        else:
            for slot in range(self.n_envs):
                env = self._slot_envs[slot]
                assert env is not None
                state, reward, done, info = env.step(int(actions[slot]))
                results[slot] = (state, reward, done, info)

        next_states = np.empty_like(self._obs)
        rewards = np.zeros(self.n_envs, dtype=np.float64)
        dones = np.zeros(self.n_envs, dtype=bool)
        infos: List[StepInfo] = []
        for slot, result in enumerate(results):
            assert result is not None
            state, reward, done, info = result
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

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.workers:
            for conn in self._conns:
                try:
                    conn.send(("close",))
                    conn.close()
                except (BrokenPipeError, OSError):
                    pass
            for proc in self._procs:
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()

    def __enter__(self) -> "VectorPhaseOrderingEnv":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter shutdown ordering
        try:
            self.close()
        except Exception:
            pass
