"""Asynchronous actor-learner training (Ape-X style, deterministic).

Topology: the ``n_actors`` workers of one
:class:`~repro.workers.WorkerPool` each step a one-slot
:class:`~repro.core.vector_env.VectorPhaseOrderingEnv` over the
training corpus (modules cross the pipe once, at spawn, as printed IR
text — ``Module`` objects do not pickle) and roll out ε-greedy (DQN) or
policy-sampled (PPO) episodes against a **pinned network snapshot**.
The parent process is the learner: it ingests rollout chunks into the
agent's replay ring (optionally sum-tree prioritized) or PPO lane
buffers, trains, and periodically broadcasts fresh weights by writing a
``.npz`` checkpoint — the same format ``QNetwork.save`` produces — and
sending its path to the actors.

Scheduling is *pipelined but deterministic*: each actor always has at
most one outstanding rollout request, requests are issued round-robin,
and the learner ingests replies strictly in issue order. Actors
therefore generate experience concurrently with learner ingestion and
with each other, while the learner-side event sequence — and with it the
trained weights — is a pure function of the seed. Two runs of the same
configuration produce identical learner weights. An actor that dies
mid-run makes the run raise (the pipe breaks) rather than hang; the pool
is closed and a temporary snapshot directory removed on the way out.

Serial equivalence: with ``actors=1``, ``chunk_size=1`` and
``broadcast_every=1`` (broadcast after every ingested transition) the
actor always acts on the learner's current weights, its exploration and
corpus-sampling RNG streams are seeded exactly as the in-process agent's
(``seed+7`` / ``seed+13``), and the learner stores transitions through
the same ``remember_batch`` path — the whole run is bit-identical to
``PosetRL.train_vectorized(n_envs=1)``. The test suite pins this.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observability import get_registry
from ..workers import WorkerPool, serve
from .schedule import LinearSchedule

if TYPE_CHECKING:  # pragma: no cover - the core package imports this one
    from ..core.vector_env import EpisodeRecord

#: Seed stride between actors: actor ``i`` offsets every stream by
#: ``ACTOR_SEED_STRIDE * i`` so actor 0 matches the in-process streams.
ACTOR_SEED_STRIDE = 7919

#: Histogram buckets for broadcast latency (seconds).
BROADCAST_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)


@dataclass
class ActorSpec:
    """Picklable recipe for one actor process."""

    corpus: List[Tuple[str, str]]  # (benchmark name, printed IR text)
    action_space_kind: str = "odg"
    target: str = "x86-64"
    weights: Any = None  # RewardWeights (picklable dataclass)
    episode_length: int = 15
    algo: str = "ddqn"  # acting mode: ddqn/dqn/prioritized-ddqn vs ppo
    num_actions: int = 34
    epsilon_start: float = 1.0
    epsilon_end: float = 0.01
    epsilon_steps: int = 20_000
    seed: int = 0
    actor_id: int = 0


@dataclass
class ActorChunk:
    """One rollout chunk returned by an actor."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray
    #: PPO only: per-transition log-prob/value under the pinned snapshot.
    logprobs: Optional[np.ndarray]
    values: Optional[np.ndarray]
    #: Finished episodes, oldest first.
    episodes: List["EpisodeRecord"]
    snapshot_version: int
    wall_seconds: float


@dataclass
class ActorFinalStats:
    """Actor-side end state returned at drain (for the determinism tests)."""

    actor_id: int
    steps: int
    episodes: int
    explore_rng_state: Tuple
    sample_rng_state: Tuple
    snapshot_version: int


@dataclass
class DistributedReport:
    """Wall-clock + pipeline health summary of one distributed run."""

    n_actors: int
    algo: str
    total_steps: int
    episodes: int
    wall_seconds: float
    train_updates: int
    broadcasts: int
    chunk_size: int
    broadcast_every: int
    broadcast_latency_s: List[float] = field(default_factory=list)
    staleness_steps: List[int] = field(default_factory=list)
    actor_steps_per_second: Dict[int, float] = field(default_factory=dict)
    clean_drain: bool = False
    priority_stats: Optional[Dict[str, float]] = None
    final_actor_stats: List[ActorFinalStats] = field(default_factory=list)

    @property
    def steps_per_second(self) -> float:
        return self.total_steps / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def mean_staleness(self) -> float:
        return (
            float(np.mean(self.staleness_steps))
            if self.staleness_steps else 0.0
        )

    @property
    def max_staleness(self) -> int:
        return max(self.staleness_steps) if self.staleness_steps else 0

    @property
    def mean_broadcast_latency_s(self) -> float:
        return (
            float(np.mean(self.broadcast_latency_s))
            if self.broadcast_latency_s else 0.0
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "n_actors": self.n_actors,
            "algo": self.algo,
            "total_steps": self.total_steps,
            "episodes": self.episodes,
            "wall_seconds": round(self.wall_seconds, 4),
            "steps_per_second": round(self.steps_per_second, 2),
            "train_updates": self.train_updates,
            "broadcasts": self.broadcasts,
            "chunk_size": self.chunk_size,
            "broadcast_every": self.broadcast_every,
            "mean_broadcast_latency_ms": round(
                1e3 * self.mean_broadcast_latency_s, 3
            ),
            "mean_staleness_steps": round(self.mean_staleness, 2),
            "max_staleness_steps": self.max_staleness,
            "actor_steps_per_second": {
                str(k): round(v, 2)
                for k, v in self.actor_steps_per_second.items()
            },
            "clean_drain": self.clean_drain,
            "priority_stats": self.priority_stats,
        }


def _actor_worker(conn, spec: ActorSpec) -> None:
    """Child-process entry: act against the pinned snapshot on command.

    Protocol (request/response; the parent never has more than one
    outstanding request per actor):

    * ``("load", path, version, global_steps)`` → ``("ok", version)``.
      Loads the ``.npz`` snapshot, pins it, and re-bases the ε schedule
      on the learner's global step count.
    * ``("rollout", n)`` → :class:`ActorChunk` of exactly ``n``
      transitions, stepped through a one-slot
      :class:`~repro.core.vector_env.VectorPhaseOrderingEnv` (episodes
      auto-reset; the corpus is resampled lazily, exactly where the
      in-process trainer draws).
    * ``("drain",)`` → :class:`ActorFinalStats`.
    * ``("close",)`` → exit.
    """
    # Imports kept inside the worker: the module must import cheaply in
    # the parent even when actors are never spawned.
    from ..core.environment import PhaseOrderingEnv, make_action_space
    from ..core.metrics import MetricsEngine
    from ..core.vector_env import VectorPhaseOrderingEnv
    from ..ir.parser import parse_module
    from .network import QNetwork
    from .ppo import PolicyValueNetwork, log_softmax

    action_space = make_action_space(spec.action_space_kind)
    engine = MetricsEngine(spec.target)

    def make_env(module) -> PhaseOrderingEnv:
        return PhaseOrderingEnv(
            module,
            action_space,
            target=spec.target,
            weights=spec.weights,
            episode_length=spec.episode_length,
            metrics=engine,
        )

    offset = ACTOR_SEED_STRIDE * spec.actor_id
    explore_rng = np.random.RandomState(spec.seed + 7 + offset)
    sample_rng = np.random.RandomState(spec.seed + 13 + offset)
    venv = VectorPhaseOrderingEnv(
        [(name, parse_module(text)) for name, text in spec.corpus],
        1,
        make_env,
        rng=sample_rng,
    )
    schedule = LinearSchedule(
        spec.epsilon_start, spec.epsilon_end, spec.epsilon_steps
    )
    is_ppo = spec.algo == "ppo"

    net = None
    version = -1
    eps_base = 0  # learner global steps at the pinned snapshot
    steps_since_load = 0
    local_steps = 0
    episodes_done = 0

    def handle(msg, send):
        nonlocal net, version, eps_base, steps_since_load
        nonlocal local_steps, episodes_done
        cmd = msg[0]
        if cmd == "load":
            _, path, version, global_steps = msg
            net = (
                PolicyValueNetwork.load(path)
                if is_ppo
                else QNetwork.load(path)
            )
            eps_base = int(global_steps)
            steps_since_load = 0
            send(("ok", version))
        elif cmd == "rollout":
            n = int(msg[1])
            assert net is not None, "rollout before first weight load"
            t0 = time.perf_counter()
            states, acts, rewards = [], [], []
            next_states, dones = [], []
            logprobs: List[float] = []
            values: List[float] = []
            for _ in range(n):
                state = venv.observations[0]
                if is_ppo:
                    logits, value = net.predict(state)
                    logp = log_softmax(logits[None, :])[0]
                    probs = np.exp(logp)
                    u = explore_rng.random_sample()
                    action = int(
                        min(
                            np.searchsorted(np.cumsum(probs), u),
                            len(probs) - 1,
                        )
                    )
                    logprobs.append(float(logp[action]))
                    values.append(float(value))
                else:
                    # Exactly the DQNAgent.act_batch stream: one uniform
                    # draw, then a randint only when exploring.
                    eps = schedule.value(eps_base + steps_since_load)
                    if explore_rng.random_sample() < eps:
                        action = int(explore_rng.randint(spec.num_actions))
                    else:
                        action = int(np.argmax(net.predict(state)))
                next_row, reward_row, done_row, _ = venv.step([action])
                states.append(state)
                acts.append(action)
                rewards.append(reward_row[0])
                next_states.append(next_row[0])
                dones.append(done_row[0])
                steps_since_load += 1
                local_steps += 1
            episodes = venv.pop_completed()
            episodes_done += len(episodes)
            send(
                ActorChunk(
                    states=np.stack(states),
                    actions=np.asarray(acts, dtype=np.int64),
                    rewards=np.asarray(rewards, dtype=np.float64),
                    next_states=np.stack(next_states),
                    dones=np.asarray(dones, dtype=bool),
                    logprobs=np.asarray(logprobs) if is_ppo else None,
                    values=np.asarray(values) if is_ppo else None,
                    episodes=episodes,
                    snapshot_version=version,
                    wall_seconds=time.perf_counter() - t0,
                )
            )
        elif cmd == "drain":
            send(
                ActorFinalStats(
                    actor_id=spec.actor_id,
                    steps=local_steps,
                    episodes=episodes_done,
                    explore_rng_state=explore_rng.get_state(),
                    sample_rng_state=sample_rng.get_state(),
                    snapshot_version=version,
                )
            )
        elif cmd == "close":
            return False

    serve(conn, handle)


class SnapshotBroadcaster:
    """Writes versioned ``.npz`` weight snapshots and sends them to actors.

    Snapshots are written lazily: one file per learner version, shared by
    every actor that needs that version. ``save_fn(path)`` is whatever
    the agent uses to checkpoint (``QNetwork.save`` /
    ``PolicyValueNetwork.save``) — the broadcast rides the existing
    checkpoint format.
    """

    def __init__(self, pool: WorkerPool, save_fn, directory: str):
        self._pool = pool
        self._save = save_fn
        self._dir = directory
        self.version = -1
        self._version_steps: Dict[int, int] = {}
        self._saved_for: Optional[int] = None
        self._path = ""
        self.broadcasts = 0
        self.latencies: List[float] = []

    def steps_at(self, version: int) -> int:
        return self._version_steps.get(version, 0)

    def _ensure_snapshot(self, global_steps: int) -> None:
        if self._saved_for == global_steps:
            return
        self.version += 1
        self._path = os.path.join(
            self._dir, f"snapshot-{self.version:06d}.npz"
        )
        self._save(self._path)
        self._version_steps[self.version] = global_steps
        self._saved_for = global_steps

    def broadcast(self, actor: int, global_steps: int) -> float:
        """Ship current weights to one actor; returns wall latency."""
        t0 = time.perf_counter()
        self._ensure_snapshot(global_steps)
        reply = self._pool.request(
            actor, ("load", self._path, self.version, global_steps)
        )
        if reply != ("ok", self.version):  # pragma: no cover - protocol guard
            raise RuntimeError(f"actor {actor} bad load ack: {reply!r}")
        latency = time.perf_counter() - t0
        self.broadcasts += 1
        self.latencies.append(latency)
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "repro_learner_broadcasts_total",
                "weight snapshots shipped to actors",
            ).inc()
            registry.histogram(
                "repro_learner_broadcast_latency_seconds",
                "save+send+ack latency of one weight broadcast",
                buckets=BROADCAST_LATENCY_BUCKETS,
            ).observe(latency)
        return latency


def run_actor_learner(
    agent,
    specs: Sequence[ActorSpec],
    total_steps: int,
    *,
    chunk_size: int,
    broadcast_every: int,
    algo: str,
    save_fn,
    on_episode=None,
    snapshot_dir: Optional[str] = None,
) -> DistributedReport:
    """Drive the actor pool until ``total_steps`` transitions are ingested.

    ``agent`` is the learner-side agent (DQN family or PPO); ``save_fn``
    checkpoints its current weights to a path. ``on_episode`` receives
    each finished :class:`~repro.core.vector_env.EpisodeRecord` in
    deterministic ingestion order.
    """
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if broadcast_every <= 0:
        raise ValueError("broadcast_every must be positive")

    registry = get_registry()
    owns_dir = snapshot_dir is None
    directory = snapshot_dir or tempfile.mkdtemp(prefix="repro-actors-")
    report = DistributedReport(
        n_actors=len(specs),
        algo=algo,
        total_steps=0,
        episodes=0,
        wall_seconds=0.0,
        train_updates=0,
        broadcasts=0,
        chunk_size=chunk_size,
        broadcast_every=broadcast_every,
    )
    train_updates_before = agent.train_steps
    start = time.perf_counter()
    pool = WorkerPool(_actor_worker, specs)
    try:
        caster = SnapshotBroadcaster(pool, save_fn, directory)
        # Initial broadcast: every actor pins the starting weights.
        for actor in range(len(pool)):
            caster.broadcast(actor, global_steps=0)

        ingested = 0
        issued = 0
        chunks_since_broadcast = [0] * len(pool)
        outstanding: deque = deque()
        for actor in range(len(pool)):
            if issued < total_steps:
                pool.send(actor, ("rollout", chunk_size))
                outstanding.append(actor)
                issued += chunk_size

        while outstanding:
            actor = outstanding.popleft()
            chunk = pool.recv(actor)
            if not isinstance(chunk, ActorChunk):  # pragma: no cover
                raise RuntimeError(f"actor {actor} bad chunk: {type(chunk)}")
            n = len(chunk.actions)
            staleness = ingested - caster.steps_at(chunk.snapshot_version)
            report.staleness_steps.append(staleness)
            if chunk.wall_seconds > 0:
                report.actor_steps_per_second[actor] = (
                    n / chunk.wall_seconds
                )
            if algo == "ppo":
                agent.ingest_rollout(
                    actor,
                    chunk.states, chunk.actions, chunk.rewards,
                    chunk.next_states, chunk.dones,
                    chunk.logprobs, chunk.values,
                )
            else:
                agent.remember_batch(
                    chunk.states, chunk.actions, chunk.rewards,
                    chunk.next_states, chunk.dones,
                )
            ingested += n
            if registry.enabled:
                registry.counter(
                    "repro_learner_ingested_transitions_total",
                    "actor transitions ingested by the learner",
                ).inc(n)
                registry.gauge(
                    "repro_learner_snapshot_staleness_steps",
                    "learner steps ingested since the snapshot the last "
                    "chunk was generated with",
                ).set(staleness)
                registry.gauge(
                    "repro_actor_steps_per_second",
                    "environment steps per second inside one actor",
                    labels={"actor": str(actor)},
                ).set(n / chunk.wall_seconds if chunk.wall_seconds else 0.0)
                registry.counter(
                    "repro_actor_chunks_total",
                    "rollout chunks received per actor",
                    labels={"actor": str(actor)},
                ).inc()
            for episode in chunk.episodes:
                report.episodes += 1
                if on_episode is not None:
                    on_episode(episode)
            chunks_since_broadcast[actor] += 1
            if chunks_since_broadcast[actor] >= broadcast_every:
                caster.broadcast(actor, global_steps=ingested)
                chunks_since_broadcast[actor] = 0
            if issued < total_steps:
                pool.send(actor, ("rollout", chunk_size))
                outstanding.append(actor)
                issued += chunk_size

        for actor in range(len(pool)):
            pool.send(actor, ("drain",))
        finals = [pool.recv(actor) for actor in range(len(pool))]
        report.clean_drain = len(finals) == len(specs) and all(
            isinstance(f, ActorFinalStats) for f in finals
        )
        report.final_actor_stats = finals
        report.total_steps = ingested
        report.broadcasts = caster.broadcasts
        report.broadcast_latency_s = caster.latencies
    finally:
        pool.close()
        if owns_dir:
            shutil.rmtree(directory, ignore_errors=True)
    report.wall_seconds = time.perf_counter() - start
    report.train_updates = agent.train_steps - train_updates_before
    memory = getattr(agent, "memory", None)
    if memory is not None and hasattr(memory, "priority_stats"):
        report.priority_stats = memory.priority_stats()
    if registry.enabled:
        registry.gauge(
            "repro_learner_steps_per_second",
            "ingested transitions per wall second of the last "
            "distributed run",
        ).set(report.steps_per_second)
    return report
