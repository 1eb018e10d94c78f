"""Horizontally sharded serving gateway: one front door, N shard workers.

A single :class:`~repro.serving.service.OptimizationService` is bounded
by one Python process — one scheduler thread runs every pass pipeline and
measurement under the GIL, no matter how many clients submit.
:class:`ShardedGateway` removes that ceiling the way AutoPhase scales its
phase-ordering evaluation: N worker *processes*, each running a full
``OptimizationService``, behind a socketless front door that owns

* **admission control** — a bounded in-flight window. When
  ``max_pending`` requests are outstanding, new arrivals are *shed*
  immediately (a 429-style ``rejected`` result whose reason starts with
  ``shed:``) instead of queueing without bound, so overload degrades
  into bounded latency plus an explicit shed rate.
* **per-tenant rate limits** — a token bucket per tenant
  (``tenant_rate`` requests/second, ``tenant_burst`` capacity); a tenant
  exceeding its budget is shed without touching any shared queue, so one
  noisy tenant cannot move another tenant's p99.
* **fingerprint-affine routing** — ``shard =
  int(module_fingerprint, 16) % n_shards``. The structural fingerprint
  is deterministic across processes (no salted ``hash()``), so the same
  module always lands on the same shard and that shard's
  ``ResultCache``, environment pool and function-record cache stay hot for
  its slice of the keyspace: sharding does not cold-split the caches.
  An exact-text routing memo in front of the fingerprint means repeat
  requests (the common serving case) are routed without re-parsing.

Workers are subprocesses reached over :mod:`multiprocessing` pipes —
IR crosses as text, results come back as pickled
:class:`~repro.serving.service.OptimizeResult`\\ s, the same crossing
:func:`~repro.core.evaluate.evaluate_suite` and the distributed actors
use. The gateway heartbeats
every worker; a crashed or wedged worker is **restarted** and its
in-flight requests are **failed over** to a sibling shard (a request
that survives two worker losses resolves as ``rejected`` rather than
hanging). :meth:`hot_reload` broadcasts a new model version to every
shard atomically-per-worker, and :meth:`stop` drains: each worker stops
accepting, flushes its in-flight batches and reports final counters.

Observability lands in the process-wide registry as ``repro_gateway_*``
(in-flight depth, per-shard occupancy, shed/rejection counters, routing
memo hit ratio, worker restarts, end-to-end latency). Per-shard engine
metrics live in the worker processes; give each worker a
``shard_metrics_out`` path and merge the snapshots with
``python -m repro.tools.stats shard0.json shard1.json ...``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..core.environment import DEFAULT_EPISODE_LENGTH
from ..ir.fingerprint import module_fingerprint
from ..ir.parser import parse_module
from ..observability import get_registry
from ..rl.network import QNetwork
from .cache import text_key
from .registry import ModelRegistry
from .service import OptimizationService, OptimizeRequest, OptimizeResult

__all__ = [
    "GatewayStats",
    "ShardSpec",
    "ShardedGateway",
    "TokenBucket",
    "shard_for_fingerprint",
    "route_text",
]


def shard_for_fingerprint(fingerprint: str, n_shards: int) -> int:
    """Deterministic shard for a module fingerprint (hex digest).

    Stable across processes and interpreter runs: the fingerprint is a
    content hash, and no salted ``hash()`` is involved.
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    return int(fingerprint[:16], 16) % n_shards


def route_text(ir_text: str, n_shards: int) -> int:
    """Parse + fingerprint + :func:`shard_for_fingerprint` (test helper)."""
    return shard_for_fingerprint(
        module_fingerprint(parse_module(ir_text)), n_shards
    )


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second up to ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last = time.monotonic()

    def try_acquire(self, now: Optional[float] = None) -> bool:
        if now is None:
            now = time.monotonic()
        self.tokens = min(
            self.burst, self.tokens + (now - self.last) * self.rate
        )
        self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class ShardSpec:
    """Picklable recipe for one shard worker's ``OptimizationService``.

    Exactly one of ``checkpoint`` / ``network`` provides the model: a
    ``.npz`` path loaded worker-side, or a (small, numpy-only, hence
    picklable) :class:`QNetwork` shipped by value.
    """

    checkpoint: Optional[str] = None
    network: Optional[QNetwork] = None
    action_space: str = "odg"
    episode_length: int = DEFAULT_EPISODE_LENGTH
    model_version: str = "v1"
    model_metadata: Dict[str, Any] = field(default_factory=dict)
    target: str = "x86-64"
    max_batch: int = 8
    batch_window_s: float = 0.005
    request_timeout_s: float = 60.0
    max_instructions: int = 100_000
    result_cache_size: Optional[int] = 1024
    include_ir: bool = True
    verify: bool = True
    semantic_check: bool = False
    #: Per-shard observability: when set, the worker enables a fresh
    #: registry and writes a snapshot here on drain/close (format as in
    #: ``--metrics-out``; merge shards with ``repro.tools.stats``).
    metrics_out: Optional[str] = None
    #: Experience journal directory for closed-loop learning: when set,
    #: the worker logs verified rollouts there via an
    #: :class:`~repro.learning.tap.ExperienceTap` (the gateway gives each
    #: shard its own subdirectory — see :meth:`ShardedGateway._spec_for`).
    journal_dir: Optional[str] = None
    journal_segment_size: int = 64


def _build_worker_service(spec: ShardSpec) -> OptimizationService:
    registry = ModelRegistry()
    if spec.checkpoint is not None:
        registry.register_checkpoint(
            spec.checkpoint,
            action_space=spec.action_space,
            version=spec.model_version,
        )
    elif spec.network is not None:
        registry.register(
            spec.network,
            action_space=spec.action_space,
            version=spec.model_version,
            episode_length=spec.episode_length,
            metadata=dict(spec.model_metadata),
        )
    else:
        raise ValueError("ShardSpec needs a checkpoint or a network")
    experience_tap = None
    if spec.journal_dir is not None:
        from ..learning import ExperienceJournal, ExperienceTap

        experience_tap = ExperienceTap(
            ExperienceJournal(
                spec.journal_dir, segment_size=spec.journal_segment_size
            )
        )
    return OptimizationService(
        registry,
        target=spec.target,
        max_batch=spec.max_batch,
        batch_window_s=spec.batch_window_s,
        request_timeout_s=spec.request_timeout_s,
        max_instructions=spec.max_instructions,
        result_cache_size=spec.result_cache_size,
        include_ir=spec.include_ir,
        verify=spec.verify,
        semantic_check=spec.semantic_check,
        experience_tap=experience_tap,
    )


def _register_in_worker(registry: ModelRegistry, payload: Dict[str, Any]) -> str:
    if payload.get("activate_only"):
        # Rollback path: re-activate a version the worker already holds
        # (no weights cross the pipe).
        return registry.activate(payload["version"]).version
    if payload.get("checkpoint") is not None:
        return registry.register_checkpoint(
            payload["checkpoint"],
            action_space=payload.get("action_space"),
            version=payload.get("version"),
            activate=bool(payload.get("activate", True)),
        )
    return registry.register(
        payload["network"],
        action_space=payload.get("action_space", "odg"),
        version=payload.get("version"),
        episode_length=payload.get(
            "episode_length", DEFAULT_EPISODE_LENGTH
        ),
        metadata=payload.get("metadata"),
        activate=bool(payload.get("activate", True)),
    )


def _shard_worker_main(conn, spec: ShardSpec) -> None:
    """Worker-process loop: a full ``OptimizationService`` behind a pipe.

    Parent → worker messages (tuples):

    * ``("submit", req_id, name, ir_text)`` — enqueue; the result comes
      back asynchronously as ``("result", req_id, OptimizeResult)``.
    * ``("ping", seq)`` → ``("pong", seq, counters)`` liveness probe.
    * ``("register", payload)`` → ``("registered", version_or_None,
      error_or_None)`` — hot-reload broadcast (new model version).
    * ``("drain",)`` → flush in-flight, ``("drained", final)`` then exit.
    * ``("close",)`` — exit without flushing.
    """
    # Fresh observability in the child: the forked registry/tracer (and
    # their locks) belong to the parent's threads.
    from .. import observability as obs

    if spec.metrics_out:
        obs.enable()
    else:
        obs.disable()

    service = _build_worker_service(spec)
    service.start()
    send_lock = threading.Lock()

    def send(msg: Tuple) -> None:
        with send_lock:
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):  # parent died
                pass

    def completion(req_id: int):
        def callback(future: "Future[OptimizeResult]") -> None:
            try:
                result = future.result()
            except Exception as exc:  # pragma: no cover - defensive
                result = OptimizeResult(
                    name="<module>", status="rejected",
                    reason=f"worker_error: {exc}",
                )
            send(("result", req_id, result))

        return callback

    def export_metrics() -> None:
        if spec.metrics_out:
            try:
                obs.export_snapshot(spec.metrics_out)
            except OSError:  # pragma: no cover - disk trouble
                pass

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):  # parent died
                return
            cmd = msg[0]
            if cmd == "submit":
                _, req_id, name, ir_text = msg
                try:
                    future = service.submit(ir_text, name=name)
                except Exception as exc:
                    send(("result", req_id, OptimizeResult(
                        name=name, status="rejected",
                        reason=f"worker_error: {exc}",
                    )))
                else:
                    future.add_done_callback(completion(req_id))
            elif cmd == "ping":
                with service._memo_lock:
                    counters = dict(service.counters)
                send(("pong", msg[1], counters))
            elif cmd == "register":
                try:
                    version = _register_in_worker(service.registry, msg[1])
                except Exception as exc:
                    send(("registered", None, str(exc)))
                else:
                    send(("registered", version, None))
            elif cmd == "drain":
                final = service.drain()
                export_metrics()
                send(("drained", final))
                return
            elif cmd == "close":
                service.drain(timeout=5.0)
                export_metrics()
                return
    except KeyboardInterrupt:  # pragma: no cover - interrupted run
        return
    finally:
        conn.close()


class _Pending:
    """One request the gateway has dispatched but not yet answered."""

    __slots__ = (
        "req_id", "future", "name", "tenant", "ir_text", "shard",
        "arrival", "retried", "key", "waiters",
    )

    def __init__(self, req_id, future, name, tenant, ir_text, shard, arrival):
        self.req_id = req_id
        self.future = future
        self.name = name
        self.tenant = tenant
        self.ir_text = ir_text
        self.shard = shard
        self.arrival = arrival
        self.retried = False
        #: Exact-text key for request coalescing (``None`` when the
        #: request was never registered for coalescing).
        self.key: Optional[str] = None
        #: Duplicate in-flight submissions riding on this computation:
        #: ``(future, name, arrival)`` per coalesced request.
        self.waiters: List[Tuple] = []


class _ShardHandle:
    """Parent-side state for one worker process."""

    __slots__ = (
        "index", "proc", "conn", "send_lock", "receiver", "last_pong",
        "ping_seq", "worker_counters", "draining", "dead", "drained",
        "final_counters", "restarts",
    )

    def __init__(self, index: int):
        self.index = index
        self.proc = None
        self.conn = None
        self.send_lock = threading.Lock()
        self.receiver: Optional[threading.Thread] = None
        self.last_pong = time.monotonic()
        self.ping_seq = 0
        self.worker_counters: Dict[str, int] = {}
        self.draining = False
        self.dead = False
        self.drained = threading.Event()
        self.final_counters: Optional[Dict[str, Any]] = None
        self.restarts = 0


@dataclass
class GatewayStats:
    """One coherent snapshot of gateway + per-shard worker counters."""

    counters: Dict[str, int]
    shed_reasons: Dict[str, int]
    per_shard: Dict[int, Dict[str, Any]]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "shed_reasons": dict(self.shed_reasons),
            "per_shard": {
                str(k): dict(v) for k, v in sorted(self.per_shard.items())
            },
        }


class _GatewayInstruments:
    """``repro_gateway_*`` handles, bound once at construction."""

    __slots__ = (
        "requests", "latency", "shed", "in_flight", "occupancy",
        "memo_hits", "memo_misses", "restarts", "failovers", "coalesced",
    )

    def __init__(self, registry, n_shards: int):
        self.requests = {
            s: registry.counter(
                "repro_gateway_requests_total",
                "gateway requests by outcome",
                labels={"status": s},
            )
            for s in ("ok", "fallback", "rejected", "shed")
        }
        self.latency = {
            s: registry.histogram(
                "repro_gateway_latency_seconds",
                "gateway end-to-end latency",
                labels={"status": s},
            )
            for s in ("ok", "fallback", "rejected")
        }
        self.shed = {
            r: registry.counter(
                "repro_gateway_shed_total",
                "requests shed by admission control",
                labels={"reason": r},
            )
            for r in ("queue_full", "rate_limited")
        }
        self.in_flight = registry.gauge(
            "repro_gateway_queue_depth",
            "requests dispatched and awaiting results",
        )
        self.occupancy = {
            i: registry.gauge(
                "repro_gateway_shard_occupancy",
                "in-flight requests per shard",
                labels={"shard": str(i)},
            )
            for i in range(n_shards)
        }
        self.memo_hits = registry.counter(
            "repro_gateway_routing_memo_hits_total",
            "requests routed from the exact-text memo (no re-parse)",
        )
        self.memo_misses = registry.counter(
            "repro_gateway_routing_memo_misses_total",
            "requests that paid a parse+fingerprint to route",
        )
        self.restarts = registry.counter(
            "repro_gateway_worker_restarts_total",
            "shard workers restarted after a crash or missed heartbeats",
        )
        self.failovers = registry.counter(
            "repro_gateway_failovers_total",
            "in-flight requests re-dispatched to a sibling shard",
        )
        self.coalesced = registry.counter(
            "repro_gateway_coalesced_total",
            "duplicate in-flight requests that shared one computation",
        )


class ShardedGateway:
    """Multi-process front door over N ``OptimizationService`` shards."""

    def __init__(
        self,
        spec: ShardSpec,
        n_shards: int = 2,
        *,
        max_pending: int = 64,
        tenant_rate: Optional[float] = None,
        tenant_burst: Optional[float] = None,
        tenant_rates: Optional[Dict[str, float]] = None,
        heartbeat_interval_s: float = 0.25,
        heartbeat_timeout_s: float = 5.0,
        max_restarts_per_shard: int = 100,
        route_memo_size: int = 65536,
        shard_metrics_template: Optional[str] = None,
        coalesce: bool = True,
    ):
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.spec = spec
        self.n_shards = n_shards
        self.max_pending = max_pending
        self.request_timeout_s = spec.request_timeout_s
        self.max_instructions = spec.max_instructions
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self.tenant_rates = dict(tenant_rates or {})
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_restarts_per_shard = max_restarts_per_shard
        #: ``str.format``-able template with ``{shard}``, e.g.
        #: ``"metrics-shard{shard}.json"`` — per-worker snapshot paths.
        self.shard_metrics_template = shard_metrics_template
        #: Share one computation across byte-identical in-flight requests.
        #: Coalesced duplicates bypass the ``max_pending`` window (they
        #: add no shard load), so disable this when client-side
        #: outstanding-future counts must stay inside the window.
        self.coalesce = coalesce

        self._ctx = mp.get_context()
        self._lock = threading.Lock()
        self._handles: List[_ShardHandle] = [
            _ShardHandle(i) for i in range(n_shards)
        ]
        self._pending: Dict[int, _Pending] = {}
        # Request coalescing: exact-text key -> the in-flight request
        # duplicates ride on, claimed before it is routed. Entries live
        # exactly as long as their request (same lock).
        self._coalesce: Dict[str, _Pending] = {}
        self._req_counter = 0
        self._started = False
        self._closed = False
        self._monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        # Exact-text routing memo: text key -> ("s", shard) | ("r", reason).
        # Bounded LRU — stranded entries age out; values are tiny.
        from ..caching import LRUCache

        self._route_memo = LRUCache(route_memo_size)
        self._route_lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}
        self._bucket_lock = threading.Lock()
        self._reload_events: Dict[int, Tuple[threading.Event, List]] = {}
        self.model_version = spec.model_version

        self.counters: Dict[str, int] = {
            "requests": 0, "ok": 0, "fallback": 0, "rejected": 0,
            "shed": 0, "routed_memo_hits": 0, "routed_memo_misses": 0,
            "worker_restarts": 0, "failovers": 0, "coalesced": 0,
        }
        self.shed_reasons: Dict[str, int] = {}

        registry = get_registry()
        self._observe = registry.enabled
        self._instruments = (
            _GatewayInstruments(registry, n_shards) if self._observe else None
        )

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_agent(
        cls, agent, n_shards: int = 2, *, version: str = "v1", **kwargs
    ) -> "ShardedGateway":
        """Shard a :class:`~repro.core.agent_api.PosetRL` facade's policy.

        The online network is frozen (copied) into the spec, so continued
        training of the facade cannot mutate the serving weights.
        Keyword arguments splitting: :class:`ShardSpec` field names
        configure the per-worker services, the rest configures the
        gateway itself.
        """
        network = agent.agent.online
        frozen = QNetwork(
            network.state_dim, network.num_actions,
            network.hidden, network.learning_rate,
        )
        frozen.copy_from(network)
        spec_kwargs, gateway_kwargs = cls._split_kwargs(kwargs)
        spec = ShardSpec(
            network=frozen,
            action_space=agent.action_space_kind,
            episode_length=agent.episode_length,
            model_version=version,
            model_metadata=agent.checkpoint_metadata(),
            target=agent.target,
            **spec_kwargs,
        )
        return cls(spec, n_shards, **gateway_kwargs)

    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        n_shards: int = 2,
        *,
        action_space: Optional[str] = None,
        version: str = "v1",
        **kwargs,
    ) -> "ShardedGateway":
        """Shard a saved ``.npz`` checkpoint (loaded worker-side)."""
        metadata = QNetwork.load_metadata(path)
        if action_space is None:
            action_space = str(metadata.get("action_space", "odg"))
        spec_kwargs, gateway_kwargs = cls._split_kwargs(kwargs)
        spec_kwargs.setdefault("target", str(metadata.get("target", "x86-64")))
        spec = ShardSpec(
            checkpoint=path,
            action_space=action_space,
            episode_length=int(
                metadata.get("episode_length", DEFAULT_EPISODE_LENGTH)
            ),
            model_version=version,
            **spec_kwargs,
        )
        return cls(spec, n_shards, **gateway_kwargs)

    _SPEC_FIELDS = frozenset(ShardSpec.__dataclass_fields__)

    @classmethod
    def _split_kwargs(cls, kwargs: Dict[str, Any]):
        spec_kwargs = {
            k: kwargs.pop(k) for k in list(kwargs) if k in cls._SPEC_FIELDS
        }
        return spec_kwargs, kwargs

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "ShardedGateway":
        with self._lock:
            if self._closed:
                raise RuntimeError("gateway has been stopped")
            if self._started:
                return self
            self._started = True
        for handle in self._handles:
            self._spawn_worker(handle)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-gateway-monitor",
            daemon=True,
        )
        self._monitor.start()
        return self

    def _spec_for(self, shard: int) -> ShardSpec:
        spec = self.spec
        if self.shard_metrics_template:
            spec = replace(
                spec,
                metrics_out=self.shard_metrics_template.format(shard=shard),
            )
        if spec.journal_dir is not None:
            # One journal subdirectory per shard: writers never contend,
            # and the trainer's JournalReader just lists every subdir.
            spec = replace(
                spec,
                journal_dir=os.path.join(spec.journal_dir, f"shard{shard}"),
            )
        return spec

    def _spawn_worker(self, handle: _ShardHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, self._spec_for(handle.index)),
            daemon=True,
            name=f"repro-shard-{handle.index}",
        )
        proc.start()
        child_conn.close()
        handle.proc = proc
        handle.conn = parent_conn
        handle.dead = False
        handle.last_pong = time.monotonic()
        receiver = threading.Thread(
            target=self._receiver_loop, args=(handle, proc),
            name=f"repro-gateway-recv-{handle.index}", daemon=True,
        )
        handle.receiver = receiver
        receiver.start()

    def stop(self, timeout: float = 30.0) -> Dict[int, Dict[str, Any]]:
        """Graceful drain: flush every shard, return per-shard counters.

        Each worker stops accepting, completes its in-flight batches
        (results keep flowing back while it drains) and reports final
        counters before exiting. Unresolved futures (worker lost at the
        wrong moment) resolve as ``rejected: gateway_shutdown``.
        """
        with self._lock:
            if self._closed:
                return {
                    h.index: h.final_counters or {} for h in self._handles
                }
            self._closed = True
            handles = list(self._handles)
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        for handle in handles:
            handle.draining = True
            self._send(handle, ("drain",))
        deadline = time.monotonic() + timeout
        for handle in handles:
            handle.drained.wait(max(0.0, deadline - time.monotonic()))
            if handle.proc is not None:
                handle.proc.join(timeout=max(0.1, deadline - time.monotonic()))
                if handle.proc.is_alive():  # pragma: no cover - defensive
                    handle.proc.terminate()
        # Fail anything still unresolved (e.g. a worker died mid-drain).
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
            self._coalesce.clear()
        for pending in leftovers:
            self._reject(pending, "gateway_shutdown: request abandoned")
        return {
            h.index: h.final_counters or {} for h in self._handles
        }

    def __enter__(self) -> "ShardedGateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- client API ---------------------------------------------------------
    def submit(
        self,
        ir_text: str,
        name: str = "<module>",
        tenant: str = "default",
    ) -> "Future[OptimizeResult]":
        """Route one module to its shard; returns a future for the result.

        Admission runs on the caller's thread in cost order: token-bucket
        rate limit (no shared state beyond the tenant's bucket), bounded
        in-flight window (one dict length check — shedding under
        overload is deliberately the cheapest path through the gateway),
        then the routing memo / parse+fingerprint.
        """
        if self._closed:
            raise RuntimeError("gateway has been stopped")
        if not self._started:
            self.start()
        future: "Future[OptimizeResult]" = Future()
        arrival = time.monotonic()
        self._count("requests")

        rate = self.tenant_rates.get(tenant, self.tenant_rate)
        if rate is not None and not self._admit_tenant(tenant, rate):
            self._shed(future, name, arrival, "rate_limited",
                       f"shed: rate_limited tenant={tenant}")
            return future

        # Coalescing: a byte-identical request already in flight answers
        # this one too — one rollout, N futures. Checked before the
        # depth gate (a coalesced duplicate adds no shard load), after
        # the rate limit (each duplicate still spends a tenant token).
        # Lookup, depth gate and the leader's claim on the key share one
        # critical section, so racing duplicates elect exactly one leader
        # even while it is still being routed.
        key = text_key(ir_text)
        with self._lock:
            leader = self._coalesce.get(key) if self.coalesce else None
            if leader is not None:
                leader.waiters.append((future, name, arrival))
                self.counters["coalesced"] += 1
            else:
                depth = len(self._pending)
                if depth < self.max_pending:
                    self._req_counter += 1
                    claim = _Pending(self._req_counter, future, name,
                                     tenant, ir_text, None, arrival)
                    if self.coalesce:
                        claim.key = key
                        self._coalesce[key] = claim
        if leader is not None:
            if self._observe:
                self._instruments.coalesced.inc()
            return future
        if depth >= self.max_pending:
            self._shed(future, name, arrival, "queue_full",
                       f"shed: queue_full {depth} in flight "
                       f"(max_pending={self.max_pending})")
            return future

        route = self._route(ir_text, key=key)
        if route[0] == "r":
            # Release the claim; duplicates that joined it meanwhile get
            # the same rejection.
            with self._lock:
                self._drop_coalesce(claim)
            self._count("rejected", 1 + len(claim.waiters))
            self._reject(claim, route[1])
            return future
        self._dispatch(claim, route[1])
        return future

    def submit_request(
        self, request: OptimizeRequest, tenant: str = "default"
    ) -> "Future[OptimizeResult]":
        return self.submit(request.ir_text, name=request.name, tenant=tenant)

    def optimize(
        self,
        ir_text: str,
        name: str = "<module>",
        tenant: str = "default",
        timeout: Optional[float] = None,
    ) -> OptimizeResult:
        """Synchronous convenience: submit and wait (auto-starts)."""
        self.start()
        budget = (
            timeout if timeout is not None else self.request_timeout_s + 60.0
        )
        return self.submit(ir_text, name=name, tenant=tenant).result(
            timeout=budget
        )

    # -- admission ----------------------------------------------------------
    def _admit_tenant(self, tenant: str, rate: float) -> bool:
        with self._bucket_lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                burst = (
                    self.tenant_burst
                    if self.tenant_burst is not None
                    else max(1.0, rate)
                )
                bucket = TokenBucket(rate, burst)
                self._buckets[tenant] = bucket
            return bucket.try_acquire()

    def _route(
        self, ir_text: str, key: Optional[str] = None
    ) -> Tuple[str, Any]:
        """``("s", shard)`` or ``("r", reason)``, memoized on exact text."""
        if key is None:
            key = text_key(ir_text)
        with self._route_lock:
            memo = self._route_memo.get(key)
        if memo is not None:
            self._count("routed_memo_hits")
            if self._observe:
                self._instruments.memo_hits.inc()
            return memo
        self._count("routed_memo_misses")
        if self._observe:
            self._instruments.memo_misses.inc()
        try:
            module = parse_module(ir_text)
        except Exception as exc:
            memo = ("r", f"parse_error: {exc}")
        else:
            count = module.instruction_count
            if count > self.max_instructions:
                memo = (
                    "r",
                    f"oversized: {count} instructions exceed the "
                    f"gateway limit of {self.max_instructions}",
                )
            else:
                fingerprint = module_fingerprint(module)
                memo = ("s", shard_for_fingerprint(fingerprint, self.n_shards))
        with self._route_lock:
            self._route_memo.put(key, memo)
        return memo

    def shard_for(self, ir_text: str) -> int:
        """The shard this text routes to (raises on unroutable input)."""
        route = self._route(ir_text)
        if route[0] != "s":
            raise ValueError(route[1])
        return route[1]

    # -- dispatch and completion --------------------------------------------
    def _dispatch(self, pending: _Pending, shard: int) -> None:
        with self._lock:
            handle = self._live_handle(shard)
            pending.shard = handle.index
            if pending.key is not None:
                # A failed-over leader takes its key back unless a new
                # leader claimed it meanwhile.
                self._coalesce.setdefault(pending.key, pending)
            self._pending[pending.req_id] = pending
            self._publish_depth()
        self._send(
            handle, ("submit", pending.req_id, pending.name, pending.ir_text)
        )

    def _live_handle(self, shard: int) -> _ShardHandle:
        """Preferred shard, or the next sibling that is not failed.

        Called under ``self._lock``.
        """
        for offset in range(self.n_shards):
            handle = self._handles[(shard + offset) % self.n_shards]
            if not handle.dead:
                return handle
        # Every shard is momentarily dead (all mid-restart): keep the
        # preferred one — the death handler will fail the request over
        # once more when the send breaks, or restart wins the race.
        return self._handles[shard % self.n_shards]

    def _send(self, handle: _ShardHandle, msg: Tuple) -> None:
        try:
            with handle.send_lock:
                handle.conn.send(msg)
        except (BrokenPipeError, OSError, ValueError):
            # The receiver/monitor will notice the death and fail over
            # anything pending, including what we just tried to send.
            self._on_worker_death(handle)

    def _receiver_loop(self, handle: _ShardHandle, proc) -> None:
        conn = handle.conn
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                if not (handle.draining or self._closed):
                    self._on_worker_death(handle, proc=proc)
                return
            kind = msg[0]
            if kind == "result":
                self._complete(handle, msg[1], msg[2])
            elif kind == "pong":
                handle.last_pong = time.monotonic()
                handle.worker_counters = msg[2]
            elif kind == "registered":
                slot = self._reload_events.pop(handle.index, None)
                if slot is not None:
                    slot[1].extend(msg[1:])
                    slot[0].set()
            elif kind == "drained":
                handle.final_counters = msg[1]
                handle.worker_counters = dict(
                    msg[1].get("counters", {})
                )
                handle.drained.set()

    def _complete(
        self, handle: _ShardHandle, req_id: int, result: OptimizeResult
    ) -> None:
        with self._lock:
            pending = self._pending.pop(req_id, None)
            if pending is not None:
                self._drop_coalesce(pending)
            self._publish_depth()
        if pending is None:  # already failed over / shutdown
            return
        now = time.monotonic()
        latency_s = now - pending.arrival
        out = replace(
            result, name=pending.name, shard=handle.index,
            latency_s=latency_s,
        )
        status = out.status
        self._count(status if status in self.counters else "rejected")
        if self._observe:
            self._instruments.requests[
                status if status in self._instruments.requests else "rejected"
            ].inc()
            bucket = self._instruments.latency.get(status)
            if bucket is not None:
                bucket.observe(latency_s)
        pending.future.set_result(out)
        # One computation, N futures: every coalesced duplicate gets the
        # same result under its own name and latency.
        for w_future, w_name, w_arrival in pending.waiters:
            w_latency = now - w_arrival
            self._count(status if status in self.counters else "rejected")
            if self._observe:
                self._instruments.requests[
                    status if status in self._instruments.requests
                    else "rejected"
                ].inc()
                bucket = self._instruments.latency.get(status)
                if bucket is not None:
                    bucket.observe(w_latency)
            w_future.set_result(replace(
                result, name=w_name, shard=handle.index, latency_s=w_latency,
            ))

    def _drop_coalesce(self, pending: _Pending) -> None:
        """Remove the coalesce entry owned by ``pending`` (under lock)."""
        if (
            pending.key is not None
            and self._coalesce.get(pending.key) is pending
        ):
            del self._coalesce[pending.key]

    # -- shedding -----------------------------------------------------------
    def _shed(self, future, name, arrival, tag: str, reason: str) -> None:
        self._count("shed")
        with self._lock:
            self.shed_reasons[tag] = self.shed_reasons.get(tag, 0) + 1
        if self._observe:
            self._instruments.requests["shed"].inc()
            self._instruments.shed[tag].inc()
        self._resolve_shed(future, name, reason, arrival=arrival,
                           status="rejected")

    def _reject(self, pending: _Pending, reason: str) -> None:
        """Resolve ``pending`` and the duplicates riding on it as
        rejected."""
        for future, name, arrival in [
            (pending.future, pending.name, pending.arrival), *pending.waiters
        ]:
            self._resolve_shed(future, name, reason, arrival=arrival,
                               status="rejected")

    def _resolve_shed(
        self, future, name, reason, *, arrival: float, status: str
    ) -> None:
        future.set_result(OptimizeResult(
            name=name, status=status, reason=reason,
            latency_s=time.monotonic() - arrival,
        ))

    # -- liveness: heartbeat, restart, failover ------------------------------
    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(self.heartbeat_interval_s):
            now = time.monotonic()
            for handle in self._handles:
                if handle.dead or handle.draining:
                    continue
                proc = handle.proc
                if proc is not None and not proc.is_alive():
                    self._on_worker_death(handle, proc=proc)
                    continue
                if now - handle.last_pong > self.heartbeat_timeout_s:
                    # Wedged (alive but unresponsive): kill, then the
                    # standard death path restarts it.
                    if proc is not None:
                        proc.kill()
                    self._on_worker_death(handle, proc=proc)
                    continue
                handle.ping_seq += 1
                self._send(handle, ("ping", handle.ping_seq))

    def _on_worker_death(self, handle: _ShardHandle, proc=None) -> None:
        """Mark dead, restart the worker, fail pending over to a sibling.

        Race-safe: the receiver thread (EOF) and the monitor (is_alive /
        heartbeat) can both report the same death; only the first caller
        acts, and a death of the *previous* process generation observed
        late is ignored.
        """
        with self._lock:
            if self._closed or handle.draining:
                return
            if proc is not None and proc is not handle.proc:
                return  # stale: a newer generation is already running
            if handle.dead:
                return
            handle.dead = True
            orphans = [
                p for p in self._pending.values() if p.shard == handle.index
            ]
            for p in orphans:
                del self._pending[p.req_id]
                self._drop_coalesce(p)
            self._publish_depth()

        if handle.proc is not None:
            try:
                handle.proc.kill()
            except (OSError, ValueError):  # pragma: no cover
                pass
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass

        restart = handle.restarts < self.max_restarts_per_shard
        if restart:
            handle.restarts += 1
            self._count("worker_restarts")
            if self._observe:
                self._instruments.restarts.inc()
            self._spawn_worker(handle)

        # Fail over the orphans to the next shard (the restarted worker
        # itself when n_shards == 1 — its caches are cold but it lives).
        sibling = (handle.index + 1) % self.n_shards if self.n_shards > 1 \
            else handle.index
        for p in orphans:
            if p.retried:
                self._count("rejected", 1 + len(p.waiters))
                self._reject(
                    p, f"worker_lost: shard {handle.index} died twice"
                )
                continue
            self._count("failovers")
            if self._observe:
                self._instruments.failovers.inc()
            p.retried = True
            self._dispatch(p, sibling)

    # -- observability ------------------------------------------------------
    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def _publish_depth(self) -> None:
        """Refresh depth/occupancy gauges. Called under ``self._lock``."""
        if not self._observe:
            return
        self._instruments.in_flight.set(len(self._pending))
        per_shard = [0] * self.n_shards
        for p in self._pending.values():
            per_shard[p.shard] += 1
        for i, gauge in self._instruments.occupancy.items():
            gauge.set(per_shard[i])

    def stats(self) -> GatewayStats:
        """Gateway counters plus the latest per-shard worker counters.

        Worker counters refresh on every heartbeat pong and become final
        totals after :meth:`stop` (drain reports them synchronously).
        """
        with self._lock:
            counters = dict(self.counters)
            shed = dict(self.shed_reasons)
            per_shard = {
                h.index: {
                    "counters": dict(h.worker_counters),
                    "restarts": h.restarts,
                    "alive": bool(h.proc is not None and h.proc.is_alive()),
                }
                for h in self._handles
            }
        return GatewayStats(
            counters=counters, shed_reasons=shed, per_shard=per_shard
        )

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._pending)

    # -- hot reload ---------------------------------------------------------
    def hot_reload(
        self,
        *,
        checkpoint: Optional[str] = None,
        network: Optional[QNetwork] = None,
        version: str,
        action_space: Optional[str] = None,
        episode_length: Optional[int] = None,
        metadata: Optional[Dict[str, Any]] = None,
        activate: bool = True,
        timeout: float = 30.0,
    ) -> Dict[int, Optional[str]]:
        """Broadcast a new model version to every shard worker.

        Per-worker semantics match a single service's hot reload:
        registration + activation is atomic inside each worker, requests
        already admitted keep their pinned version, and the per-shard
        ``ResultCache`` keys on ``(fingerprint, model version)`` so no
        stale sequences are served. Returns ``{shard: error_or_None}``.
        """
        if (checkpoint is None) == (network is None):
            raise ValueError("provide exactly one of checkpoint / network")
        payload = {
            "checkpoint": checkpoint,
            "network": network,
            "version": version,
            "action_space": action_space or self.spec.action_space,
            "episode_length": episode_length or self.spec.episode_length,
            "metadata": metadata,
            "activate": activate,
        }
        return self._broadcast_register(
            payload, version=version, activate=activate, timeout=timeout
        )

    def activate_version(
        self, version: str, timeout: float = 30.0
    ) -> Dict[int, Optional[str]]:
        """Re-activate a version every worker already holds (rollback).

        No weights cross the pipe: each worker's registry still has the
        previously registered version and simply switches back to it.
        Returns ``{shard: error_or_None}`` like :meth:`hot_reload`.
        """
        payload = {"activate_only": True, "version": version}
        return self._broadcast_register(
            payload, version=version, activate=True, timeout=timeout
        )

    def _broadcast_register(
        self,
        payload: Dict[str, Any],
        *,
        version: str,
        activate: bool,
        timeout: float,
    ) -> Dict[int, Optional[str]]:
        self.start()
        outcomes: Dict[int, Optional[str]] = {}
        waits: List[Tuple[_ShardHandle, threading.Event, List]] = []
        for handle in self._handles:
            event = threading.Event()
            replies: List = []
            self._reload_events[handle.index] = (event, replies)
            self._send(handle, ("register", payload))
            waits.append((handle, event, replies))
        deadline = time.monotonic() + timeout
        for handle, event, replies in waits:
            if not event.wait(max(0.0, deadline - time.monotonic())):
                outcomes[handle.index] = "timeout waiting for registration"
                self._reload_events.pop(handle.index, None)
                continue
            registered_version, error = replies
            outcomes[handle.index] = error
        if activate and all(e is None for e in outcomes.values()):
            self.model_version = version
        return outcomes
