"""Asynchronous actor-learner training (Ape-X style, deterministic).

Topology: ``n_actors`` child processes each own a private set of
:class:`~repro.core.environment.PhaseOrderingEnv` instances over the
training corpus (modules cross the pipe once as printed IR text — the
``vector_env`` worker idiom) and roll out ε-greedy (DQN) or
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
configuration produce identical learner weights.

Serial equivalence: with ``actors=1``, ``chunk_size=1`` and
``broadcast_every=1`` (broadcast after every ingested transition) the
actor always acts on the learner's current weights, its exploration and
corpus-sampling RNG streams are seeded exactly as the in-process agent's
(``seed+7`` / ``seed+13``), and the learner stores transitions through
the same ``remember_batch`` path — the whole run is bit-identical to
``PosetRL.train_vectorized(n_envs=1)``. The test suite pins this.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observability import get_registry
from .schedule import LinearSchedule

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
    #: (module, total_reward, final_size, actions) per finished episode.
    episodes: List[Tuple[str, float, int, List[int]]]
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
    """Child-process loop: act against the pinned snapshot on command.

    Protocol (request/response; the parent never has more than one
    outstanding request per actor):

    * ``("load", path, version, global_steps)`` → ``("ok", version)``.
      Loads the ``.npz`` snapshot, pins it, and re-bases the ε schedule
      on the learner's global step count.
    * ``("rollout", n)`` → :class:`ActorChunk` of exactly ``n``
      transitions (episodes auto-reset; corpus resampled lazily exactly
      where the serial loop would draw).
    * ``("drain",)`` → :class:`ActorFinalStats`.
    * ``("close",)`` → exit.
    """
    # Imports kept inside the worker: the module must import cheaply in
    # the parent even when actors are never spawned.
    from ..core.environment import PhaseOrderingEnv, make_action_space
    from ..core.metrics import MetricsEngine
    from ..ir.parser import parse_module
    from .network import QNetwork
    from .ppo import PolicyValueNetwork, log_softmax

    action_space = make_action_space(spec.action_space_kind)
    engine = MetricsEngine(spec.target)
    modules = [(name, parse_module(text)) for name, text in spec.corpus]
    envs: Dict[str, PhaseOrderingEnv] = {}
    offset = ACTOR_SEED_STRIDE * spec.actor_id
    explore_rng = np.random.RandomState(spec.seed + 7 + offset)
    sample_rng = np.random.RandomState(spec.seed + 13 + offset)
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

    env: Optional[PhaseOrderingEnv] = None
    state: Optional[np.ndarray] = None
    need_reset = True
    ep_name = ""
    ep_reward = 0.0
    ep_actions: List[int] = []

    try:
        while True:
            msg = conn.recv()
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
                conn.send(("ok", version))
            elif cmd == "rollout":
                n = int(msg[1])
                assert net is not None, "rollout before first weight load"
                t0 = time.perf_counter()
                states, acts, rewards = [], [], []
                next_states, dones = [], []
                logprobs: List[float] = []
                values: List[float] = []
                episodes: List[Tuple[str, float, int, List[int]]] = []
                for _ in range(n):
                    if need_reset:
                        ep_name, module = modules[
                            int(sample_rng.randint(len(modules)))
                        ]
                        env = envs.get(ep_name)
                        if env is None:
                            env = PhaseOrderingEnv(
                                module,
                                action_space,
                                target=spec.target,
                                weights=spec.weights,
                                episode_length=spec.episode_length,
                                metrics=engine,
                            )
                            envs[ep_name] = env
                        state = env.reset()
                        ep_reward = 0.0
                        ep_actions = []
                        need_reset = False
                    assert env is not None and state is not None
                    if is_ppo:
                        logits, value = net.predict(
                            np.asarray(state, dtype=np.float64)
                        )
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
                        # Exactly the DQNAgent.act stream: one uniform
                        # draw, then a randint only when exploring.
                        eps = schedule.value(eps_base + steps_since_load)
                        if explore_rng.random_sample() < eps:
                            action = int(
                                explore_rng.randint(spec.num_actions)
                            )
                        else:
                            q = net.predict(state)
                            action = int(np.argmax(q))
                    next_state, reward, done, _info = env.step(action)
                    states.append(np.asarray(state, dtype=np.float64))
                    acts.append(action)
                    rewards.append(float(reward))
                    next_states.append(
                        np.asarray(next_state, dtype=np.float64)
                    )
                    dones.append(bool(done))
                    ep_reward += reward
                    ep_actions.append(action)
                    steps_since_load += 1
                    local_steps += 1
                    if done:
                        episodes.append(
                            (ep_name, ep_reward, env.last_size,
                             list(ep_actions))
                        )
                        episodes_done += 1
                        need_reset = True
                    else:
                        state = next_state
                conn.send(
                    ActorChunk(
                        states=np.stack(states),
                        actions=np.asarray(acts, dtype=np.int64),
                        rewards=np.asarray(rewards, dtype=np.float64),
                        next_states=np.stack(next_states),
                        dones=np.asarray(dones, dtype=bool),
                        logprobs=(
                            np.asarray(logprobs) if is_ppo else None
                        ),
                        values=np.asarray(values) if is_ppo else None,
                        episodes=episodes,
                        snapshot_version=version,
                        wall_seconds=time.perf_counter() - t0,
                    )
                )
            elif cmd == "drain":
                conn.send(
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
                return
    except (EOFError, KeyboardInterrupt):  # parent died / interrupted
        return
    finally:
        conn.close()


class ActorPool:
    """Owns the actor processes and their request/response pipes."""

    def __init__(self, specs: Sequence[ActorSpec]):
        ctx = mp.get_context()
        self._conns = []
        self._procs = []
        for spec in specs:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_actor_worker, args=(child_conn, spec), daemon=True
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self.n_actors = len(specs)
        self._closed = False

    def send_load(self, actor: int, path: str, version: int,
                  global_steps: int) -> None:
        self._conns[actor].send(("load", path, version, global_steps))
        reply = self._conns[actor].recv()
        if reply != ("ok", version):  # pragma: no cover - protocol guard
            raise RuntimeError(f"actor {actor} bad load ack: {reply!r}")

    def request_rollout(self, actor: int, n: int) -> None:
        self._conns[actor].send(("rollout", n))

    def recv_chunk(self, actor: int) -> ActorChunk:
        chunk = self._conns[actor].recv()
        if not isinstance(chunk, ActorChunk):  # pragma: no cover
            raise RuntimeError(f"actor {actor} bad chunk: {type(chunk)}")
        return chunk

    def drain(self) -> List[ActorFinalStats]:
        stats = []
        for conn in self._conns:
            conn.send(("drain",))
        for conn in self._conns:
            stats.append(conn.recv())
        return stats

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
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

    def __enter__(self) -> "ActorPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SnapshotBroadcaster:
    """Writes versioned ``.npz`` weight snapshots and sends them to actors.

    Snapshots are written lazily: one file per learner version, shared by
    every actor that needs that version. ``save_fn(path)`` is whatever
    the agent uses to checkpoint (``QNetwork.save`` /
    ``PolicyValueNetwork.save``) — the broadcast rides the existing
    checkpoint format.
    """

    def __init__(self, pool: ActorPool, save_fn, directory: str):
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
        self._pool.send_load(actor, self._path, self.version, global_steps)
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
    each finished ``(module, total_reward, final_size, actions)`` tuple
    in deterministic ingestion order.
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
    pool = ActorPool(specs)
    try:
        caster = SnapshotBroadcaster(pool, save_fn, directory)
        # Initial broadcast: every actor pins the starting weights.
        for actor in range(pool.n_actors):
            caster.broadcast(actor, global_steps=0)

        ingested = 0
        issued = 0
        chunks_since_broadcast = [0] * pool.n_actors
        outstanding: deque = deque()
        for actor in range(pool.n_actors):
            if issued < total_steps:
                pool.request_rollout(actor, chunk_size)
                outstanding.append(actor)
                issued += chunk_size

        while outstanding:
            actor = outstanding.popleft()
            chunk = pool.recv_chunk(actor)
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
                pool.request_rollout(actor, chunk_size)
                outstanding.append(actor)
                issued += chunk_size

        finals = pool.drain()
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
