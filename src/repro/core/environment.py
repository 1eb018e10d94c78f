"""The phase-ordering RL environment (Section III-A).

Gym-style interface over one program: the state is the IR2Vec-style
300-d embedding of the current module, an action applies one optimization
sub-sequence through the pass manager, and the reward combines the object
file's size delta with the MCA throughput delta (both normalized against
the unoptimized module, Eqns 1-3).

Metrics are produced through a :class:`~repro.core.metrics.MetricsEngine`:
per-function size/MCA/embedding results are memoized on structural
fingerprints, and whole ``(state, action)`` transitions are cached so that
revisited prefixes (ubiquitous under ε-greedy training) skip the pass
pipeline and the measurements. Each env owns one private module per
episode, cloned from the original by the first step that needs it and
mutated in place by every miss; actions taken through changed hits are
replayed on it when it is next needed, and must reach the same state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.module import Module
from ..passes.base import PassManager
from .metrics import MetricsEngine, Transition
from .rewards import RewardWeights, combined_reward
from .subsequences import PAPER_ODG_SUBSEQUENCES

#: Episode length: the paper's predicted sequences (Table VI) are 15
#: actions long.
DEFAULT_EPISODE_LENGTH = 15


@dataclass
class StepInfo:
    """Extra diagnostics returned from :meth:`PhaseOrderingEnv.step`."""

    action: int
    passes: List[str]
    bin_size: int
    throughput: float
    size_reward: float
    throughput_reward: float
    #: Whether the action modified the module (the ``ActionSpace.apply``
    #: changed-flag; no-op actions leave every metric untouched).
    changed: bool = True
    #: Whether this step was served from the transition cache.
    cache_hit: bool = False
    #: Wall seconds spent in the pass pipeline for this step (0.0 on
    #: transition-cache hits: no pass ran).
    passes_seconds: float = 0.0
    #: Wall seconds spent measuring (codegen size + MCA + embedding;
    #: 0.0 on transition-cache hits and structural no-ops).
    measure_seconds: float = 0.0


class ActionSpace:
    """A list of pass sub-sequences, pre-instantiated as PassManagers."""

    def __init__(self, subsequences: Sequence[Sequence[str]]):
        self.subsequences: List[List[str]] = [list(s) for s in subsequences]
        self._managers = [
            PassManager(list(s)) for s in self.subsequences
        ]

    def __len__(self) -> int:
        return len(self.subsequences)

    def passes_for(self, action: int) -> List[str]:
        return list(self.subsequences[action])

    def apply(self, action: int, module: Module) -> bool:
        return self._managers[action].run(module)


def apply_action(
    actions: ActionSpace,
    action: int,
    module: Module,
    engine: MetricsEngine,
    fingerprint: str,
) -> Tuple[str, Optional[Dict[str, str]], float]:
    """Apply ``action`` in place to ``module``, whose fingerprint is
    ``fingerprint``. Returns the result's fingerprint, its per-function
    digests when a pass reported a change (None otherwise) and the wall
    seconds the passes took.

    The changed-flag is advisory; fingerprint equality is the
    authoritative no-op check (sound in both directions). A no-op
    restores the functions' local-name counters: advancing them would
    make one structural state print differently depending on the path
    that reached it.
    """
    counters = [(fn, fn._name_counter) for fn in module.functions]
    start = time.perf_counter()
    applied = actions.apply(action, module)
    passes_s = time.perf_counter() - start
    if not applied:
        function_fps = None
        result_fp = fingerprint
    else:
        function_fps = engine.function_fingerprints(module)
        result_fp = engine.fingerprint(module, function_fps)
    if result_fp == fingerprint:
        for fn, counter in counters:
            fn._name_counter = counter
    return result_fp, function_fps, passes_s


class PhaseOrderingEnv:
    """RL environment optimizing one module for size and throughput."""

    def __init__(
        self,
        module: Module,
        action_space: Optional[ActionSpace] = None,
        target: str = "x86-64",
        weights: Optional[RewardWeights] = None,
        episode_length: int = DEFAULT_EPISODE_LENGTH,
        metrics: Optional[MetricsEngine] = None,
    ):
        self.original = module
        self.action_space = action_space or ActionSpace(PAPER_ODG_SUBSEQUENCES)
        self.target = target
        self.weights = weights if weights is not None else RewardWeights()
        self.episode_length = episode_length
        self.metrics = metrics if metrics is not None else MetricsEngine(target)
        self.encoder = self.metrics.encoder

        # Baseline ("without any optimization") metrics — Eqns 2-3
        # denominators and the initial state — computed once. Per-function
        # fingerprints are computed once here and threaded through every
        # consumer.
        base_fps = self.metrics.function_fingerprints(module)
        base = self.metrics.measure(module, base_fps)
        self.base_size = base.size
        self.base_throughput = base.throughput
        self._base_fingerprint = self.metrics.fingerprint(module, base_fps)
        self._base_state = base.embedding
        self._base_state.setflags(write=False)
        self._single = False
        self.reset()

    @classmethod
    def _single_episode(cls, module: Module, **kwargs) -> "PhaseOrderingEnv":
        """An env whose one episode mutates ``module``, which nobody else
        holds (a served request's own parse), instead of a clone; as
        ``original`` then stops being the input, it refuses :meth:`reset`."""
        env = cls(module, **kwargs)
        env._module = module
        env._single = True
        return env

    @property
    def current(self) -> Module:
        """The module in its current (post-actions) state: the env's
        private module.

        Cloned from the original on first access in an episode. Actions
        taken through transition-cache hits since the last miss are
        replayed on it first; the replay must reach :attr:`fingerprint`,
        else a :class:`RuntimeError` names both fingerprints and the
        replayed actions (a pass that is not deterministic).
        """
        if self._module is None:
            self._module = self.original.clone()
        if self._lag:
            lag, self._lag = self._lag, []
            for action in lag:
                self.action_space.apply(action, self._module)
            replayed = self.metrics.fingerprint(self._module)
            if replayed != self._fingerprint:
                raise RuntimeError(
                    f"replaying actions {lag} reached fingerprint "
                    f"{replayed}, not the env's {self._fingerprint}"
                )
            self._module_fingerprint = replayed
        return self._module

    @property
    def fingerprint(self) -> str:
        """Structural fingerprint of the current module, maintained
        incrementally along the transition-cache chain."""
        return self._fingerprint

    # -- gym-style API ---------------------------------------------------------
    @property
    def num_actions(self) -> int:
        return len(self.action_space)

    @property
    def state_dim(self) -> int:
        return self.encoder.dimension

    def observe(self) -> np.ndarray:
        return self._state

    def reset(self) -> np.ndarray:
        if self._single:
            raise RuntimeError("a single-episode env cannot reset")
        # The episode's private module, cloned from the original by the
        # first step that needs one, and its fingerprint. ``_lag`` holds
        # the actions taken through changed transition-cache hits since
        # the last miss: replaying them on ``_module`` reaches
        # ``_fingerprint``, the current state's fingerprint (maintained
        # incrementally, so a chain of hits never re-walks a module).
        self._module: Optional[Module] = None
        self._module_fingerprint = self._base_fingerprint
        self._lag: List[int] = []
        self._fingerprint = self._base_fingerprint
        self._state = self._base_state
        self.steps = 0
        self.last_size = self.base_size
        self.last_throughput = self.base_throughput
        self.history: List[StepInfo] = []
        return self._state

    def step(self, action: int) -> Tuple[np.ndarray, float, bool, StepInfo]:
        if not (0 <= action < self.num_actions):
            raise IndexError(f"action {action} out of range")
        passes = self.action_space.passes_for(action)

        (size, throughput, changed, cache_hit,
         passes_s, measure_s) = self._cached_apply(action)
        reward = combined_reward(
            self.last_size,
            size,
            self.base_size,
            self.last_throughput,
            throughput,
            self.base_throughput,
            self.weights,
        )
        info = StepInfo(
            action=action,
            passes=passes,
            bin_size=size,
            throughput=throughput,
            size_reward=(self.last_size - size) / self.base_size,
            throughput_reward=(throughput - self.last_throughput)
            / self.base_throughput,
            changed=changed,
            cache_hit=cache_hit,
            passes_seconds=passes_s,
            measure_seconds=measure_s,
        )
        self.history.append(info)
        self.last_size = size
        self.last_throughput = throughput
        self.steps += 1
        done = self.steps >= self.episode_length
        return self.observe(), reward, done, info

    def _cached_apply(
        self, action: int
    ) -> Tuple[int, float, bool, bool, float, float]:
        """Apply ``action`` through the transition cache.

        Returns ``(size, throughput, changed, cache_hit, passes_seconds,
        measure_seconds)`` and leaves ``self.current`` / ``self._state``
        / ``self._fingerprint`` describing the post-action module.
        """
        engine = self.metrics
        fingerprint = self._fingerprint
        hit = engine.transitions.get(fingerprint, action)
        if hit is not None:
            if hit.changed:
                if hit.result_fingerprint == self._module_fingerprint:
                    self._lag.clear()  # back on the private module's state
                else:
                    self._lag.append(action)
            self._fingerprint = hit.result_fingerprint
            self._state = hit.embedding
            return hit.size, hit.throughput, hit.changed, True, 0.0, 0.0

        module = self.current  # clones or replays the lag if needed
        result_fp, function_fps, passes_s = apply_action(
            self.action_space, action, module, engine, fingerprint
        )
        changed = result_fp != fingerprint
        measure_s = 0.0
        if changed:
            start = time.perf_counter()
            measured = engine.measure(module, function_fps)
            measure_s = time.perf_counter() - start
            size, throughput = measured.size, measured.throughput
            cycles, embedding = measured.cycles, measured.embedding
        else:
            size, throughput = self.last_size, self.last_throughput
            cycles = 0.0
            embedding = self._state
        # The state array is shared between the cache, the env and the
        # agent: freeze it so an accidental in-place edit cannot corrupt
        # future hits.
        embedding.setflags(write=False)
        engine.transitions.put(
            fingerprint,
            action,
            Transition(
                result_fingerprint=result_fp,
                changed=changed,
                size=size,
                throughput=throughput,
                cycles=cycles,
                embedding=embedding,
            ),
        )
        self._module_fingerprint = result_fp
        self._fingerprint = result_fp
        self._state = embedding
        return size, throughput, changed, False, passes_s, measure_s

    # -- observability ---------------------------------------------------------
    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Hit/miss/eviction counters of the underlying metrics engine."""
        return self.metrics.stats()

    # -- convenience -----------------------------------------------------------
    def rollout(self, actions: Sequence[int]) -> List[StepInfo]:
        """Reset and apply a fixed action sequence; returns step infos."""
        self.reset()
        infos = []
        for action in actions:
            _, _, done, info = self.step(action)
            infos.append(info)
            if done:
                break
        return infos


def greedy_rollout(
    env: PhaseOrderingEnv, choose: Callable[[np.ndarray], int]
) -> List[int]:
    """Reset ``env`` and step it to the end of its episode, taking
    ``choose(state)`` at every step; returns the actions.

    The end state stays in the env: ``env.current`` materializes it (a
    clone plus any lagged actions replayed), so a caller that needs only
    the actions or the env's measurements never pays for it.
    """
    state = env.reset()
    actions: List[int] = []
    done = False
    while not done:
        action = choose(state)
        state, _, done, _ = env.step(action)
        actions.append(action)
    return actions


def make_action_space(kind: str = "odg") -> ActionSpace:
    """``"odg"`` (Table III, 34 actions) or ``"manual"`` (Table II, 15)."""
    from .subsequences import MANUAL_SUBSEQUENCES

    if kind == "odg":
        return ActionSpace(PAPER_ODG_SUBSEQUENCES)
    if kind == "manual":
        return ActionSpace(MANUAL_SUBSEQUENCES)
    raise ValueError(f"unknown action space {kind!r} (use 'odg' or 'manual')")
