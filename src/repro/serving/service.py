"""Batched optimization-as-a-service: POSET-RL behind a request queue.

:class:`OptimizationService` turns a trained policy into a compilation
service. Clients submit :class:`OptimizeRequest`\\ s (textual IR in) from
any thread and receive an :class:`OptimizeResult` — the predicted pass
sequence plus a size/throughput report against the unoptimized module.

**Micro-batching.** A single scheduler thread drives every in-flight
request as a greedy-rollout *session* (one
:class:`~repro.core.environment.PhaseOrderingEnv` per request). Each tick
stacks the observations of all active sessions and serves them with one
batched Q-network forward per pinned model version
(:meth:`RegisteredModel.act`), so N customer modules cost one network
call per step instead of N. New requests join at tick boundaries (continuous
batching); when the service is idle, the first waiter is held for at most
``batch_window_s`` so closely-spaced arrivals share a batch, and the
window is cut short the moment ``max_batch`` requests are waiting.

**Caching.** One bounded :class:`~repro.caching.LRUCache` per key. The
admission cache maps the exact request text to its fingerprint (or its
rejection reason), so a byte-identical resubmission answered from the
result cache skips the parse. The result cache maps ``(fingerprint,
model version)`` to the recorded report; repeat submissions return it
without touching the pass pipeline or any measurement code. The check
cache holds the ``(input, result)`` fingerprint pairs that passed every
check. Each session carries its text and a module parsed for it alone,
which its environment optimizes in place. Session environments are
built fresh on one :class:`~repro.core.metrics.MetricsEngine` per
action-space kind, so even cache-miss rollouts over known modules run
on the warm transition cache. (Engines are segregated by action-space kind
because the transition cache keys on raw action indices, which mean
different sub-sequences in different spaces.)

**Robustness guard.** Every request carries a wall-clock deadline;
oversized or unparsable modules are rejected up front; each optimized
result is verified (memoized in the check cache) before it is
returned; and any pass failure, verifier failure or timeout falls back to
the stock ``-Oz`` pipeline with a per-reason error counter.

With ``semantic_check=True`` the guard goes beyond structural validity:
the optimized module is run in the reference interpreter against the
original (:func:`repro.testing.oracle.modules_equivalent`) and an
observable behaviour change — a miscompile the verifier cannot see —
falls back to ``-Oz`` with a ``miscompile:`` reason. Off by default: it
costs a handful of interpreter runs per (memoized) result.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..caching import LRUCache
from ..core.environment import PhaseOrderingEnv
from ..core.metrics import MetricsEngine
from ..ir.fingerprint import module_fingerprint
from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..ir.verifier import VerificationError, verify_module
from ..observability import Span, get_registry, get_tracer
from ..passes.pipelines import OZ_PASS_SEQUENCE, build_pipeline
from ..rl.network import QNetwork
from .registry import ModelRegistry, RegisteredModel

#: Admission cache capacity (exact request text -> fingerprint, or the
#: rejection reason). Entries hold no IR: a module lives only as long as
#: the session optimizing it.
ADMISSION_CACHE_SIZE = 256
#: Check cache capacity (``(input, result)`` fingerprint pairs that passed
#: every check; entries are two 32-char keys).
CHECK_CACHE_SIZE = 65536

#: Canonical order of the per-request latency stages (span children and
#: ``repro_serving_stage_seconds`` labels).
LATENCY_STAGES = ("queue", "forward", "passes", "measure", "verify")

#: Request outcomes (``repro_serving_requests_total``/latency labels).
_STATUSES = ("ok", "fallback", "rejected")

#: An admission cache entry: ``(fingerprint, None)`` for an accepted
#: text, ``(None, rejection reason)`` for a rejected one.
_Admission = Tuple[Optional[str], Optional[str]]


def text_key(ir_text: str) -> str:
    """Cheap exact-text key (128-bit blake2b of the submitted bytes)."""
    return hashlib.blake2b(ir_text.encode(), digest_size=16).hexdigest()


class _ServingInstruments:
    """Registry handles pre-resolved at service construction.

    Resolving an instrument (label sorting, family lookup, two lock
    acquisitions) costs microseconds — fine per pipeline run, too much
    per request on the warm cache-hit path. Binding the children once
    keeps the enabled hot path to bare ``inc``/``observe`` calls.
    """

    __slots__ = (
        "requests", "latency", "stage", "batch_size", "queue_depth",
        "cache_hits", "_registry", "_guard_trips",
    )

    def __init__(self, registry):
        self._registry = registry
        self.requests = {
            s: registry.counter(
                "repro_serving_requests_total", "requests by outcome",
                labels={"status": s},
            )
            for s in _STATUSES
        }
        self.latency = {
            s: registry.histogram(
                "repro_serving_latency_seconds", "end-to-end request latency",
                labels={"status": s},
            )
            for s in _STATUSES
        }
        self.stage = {
            s: registry.histogram(
                "repro_serving_stage_seconds",
                "end-to-end latency decomposed by stage",
                labels={"stage": s},
            )
            for s in LATENCY_STAGES
        }
        self.batch_size = registry.histogram(
            "repro_serving_batch_size", "sessions stepped per batch tick",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        self.queue_depth = registry.gauge(
            "repro_serving_queue_depth", "sessions waiting to join"
        )
        self.cache_hits = registry.counter(
            "repro_serving_result_cache_hits_total",
            "requests answered from the result cache",
        )
        self._guard_trips: Dict[str, Any] = {}

    def guard_trip(self, reason: str):
        """Counter for one coarse guard-reason tag (open label set)."""
        tag = reason.split(":", 1)[0]
        counter = self._guard_trips.get(tag)
        if counter is None:
            counter = self._registry.counter(
                "repro_serving_guard_trips_total",
                "fallbacks and rejections by guard reason",
                labels={"reason": tag},
            )
            self._guard_trips[tag] = counter
        return counter


@dataclass
class OptimizeRequest:
    """One unit of service traffic: a module to optimize."""

    ir_text: str
    name: str = "<module>"


@dataclass
class OptimizeResult:
    """The service's answer: pass sequence + size/throughput report."""

    name: str
    #: ``"ok"`` (policy sequence served), ``"fallback"`` (guard tripped,
    #: ``-Oz`` result returned) or ``"rejected"`` (nothing optimized).
    status: str
    reason: Optional[str] = None
    model_version: Optional[str] = None
    action_space: Optional[str] = None
    actions: List[int] = field(default_factory=list)
    passes: List[str] = field(default_factory=list)
    base_size: int = 0
    optimized_size: int = 0
    base_throughput: float = 0.0
    optimized_throughput: float = 0.0
    fingerprint: Optional[str] = None
    optimized_ir: Optional[str] = None
    cache_hit: bool = False
    latency_s: float = 0.0
    #: Shard index that served this request (set by the sharded gateway;
    #: ``None`` for the single-process service).
    shard: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def size_reduction_pct(self) -> float:
        """Size win over the unoptimized module (positive = smaller)."""
        if not self.base_size:
            return 0.0
        return 100.0 * (self.base_size - self.optimized_size) / self.base_size

    def report(self) -> Dict[str, Any]:
        """The deterministic part of the result (excludes per-request
        fields: latency, cache flag, caller-chosen name)."""
        return {
            "status": self.status,
            "reason": self.reason,
            "model_version": self.model_version,
            "action_space": self.action_space,
            "actions": list(self.actions),
            "passes": list(self.passes),
            "base_size": self.base_size,
            "optimized_size": self.optimized_size,
            "base_throughput": self.base_throughput,
            "optimized_throughput": self.optimized_throughput,
            "fingerprint": self.fingerprint,
            "optimized_ir": self.optimized_ir,
        }

    def as_dict(self) -> Dict[str, Any]:
        out = self.report()
        out.update(
            name=self.name,
            cache_hit=self.cache_hit,
            latency_s=round(self.latency_s, 6),
            size_reduction_pct=round(self.size_reduction_pct, 2),
        )
        if self.shard is not None:
            out["shard"] = self.shard
        return out


class _Session:
    """One in-flight request: its text and the module parsed from it,
    pinned model, env and rollout state."""

    __slots__ = (
        "name", "fingerprint", "text", "module", "model", "future",
        "arrival", "deadline", "env", "state", "finalized",
        "stage_seconds", "traj",
    )

    def __init__(
        self,
        name: str,
        fingerprint: str,
        text: str,
        module: Module,
        model: RegisteredModel,
        future: "Future[OptimizeResult]",
        arrival: float,
        deadline: float,
    ):
        self.name = name
        self.fingerprint = fingerprint
        self.text = text
        #: Parsed for this session alone: its env optimizes it in place.
        self.module = module
        self.model = model
        self.future = future
        self.arrival = arrival
        self.deadline = deadline
        self.env: Optional[PhaseOrderingEnv] = None
        self.state: Optional[np.ndarray] = None
        self.finalized = False
        #: Accumulated wall seconds per latency stage (see LATENCY_STAGES),
        #: filled only while observability is enabled.
        self.stage_seconds: Dict[str, float] = {}
        #: ``(states, actions, rewards)`` captured for the experience tap
        #: (``None`` when no tap is configured). ``states`` ends up with
        #: one more row than ``actions``: the rollout's visited states
        #: including the terminal one.
        self.traj: Optional[Tuple[list, list, list]] = None

    def input_module(self) -> Module:
        """The unmodified input: :attr:`module` until an env has taken
        it over, a fresh parse of :attr:`text` after."""
        return self.module if self.env is None else parse_module(self.text)


class OptimizationService:
    """Micro-batching front end over a :class:`ModelRegistry`."""

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        *,
        target: str = "x86-64",
        max_batch: int = 8,
        batch_window_s: float = 0.005,
        request_timeout_s: float = 60.0,
        max_instructions: int = 100_000,
        result_cache_size: Optional[int] = 1024,
        include_ir: bool = True,
        verify: bool = True,
        semantic_check: bool = False,
        experience_tap=None,
    ):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.registry = registry if registry is not None else ModelRegistry()
        self.target = target
        self.max_batch = max_batch
        self.batch_window_s = batch_window_s
        self.request_timeout_s = request_timeout_s
        self.max_instructions = max_instructions
        self.include_ir = include_ir
        self.verify = verify
        self.semantic_check = semantic_check
        #: Optional :class:`~repro.learning.tap.ExperienceTap` — completed
        #: (verified) rollouts are logged as RL trajectories for the
        #: online trainer. Fallbacks and cache hits are never logged.
        self.experience_tap = experience_tap
        # The three caches. Admission and results are read and written
        # from every client thread (and results from the scheduler), so
        # each carries a lock; the check cache is the scheduler's own.
        #: text key -> :data:`_Admission`.
        self._admission = LRUCache(ADMISSION_CACHE_SIZE, lock=threading.Lock())
        #: ``(fingerprint, model version)`` -> recorded :class:`OptimizeResult`.
        self.result_cache: Optional[LRUCache] = (
            LRUCache(result_cache_size, lock=threading.Lock())
            if result_cache_size else None
        )
        #: ``(input fingerprint, result fingerprint)`` -> ``True``.
        self._checked = LRUCache(CHECK_CACHE_SIZE)

        # Scheduler state. ``_queue`` is shared with client threads (under
        # ``_wake``); ``_active`` and the metrics engines are touched by
        # the scheduler thread only.
        self._wake = threading.Condition()
        self._queue: Deque[_Session] = deque()
        self._active: List[_Session] = []
        self._engines: Dict[str, MetricsEngine] = {}
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._closed = False

        #: Guards ``counters`` and ``error_counts`` (bumped from client
        #: threads and the scheduler).
        self._counter_lock = threading.Lock()

        self.counters: Dict[str, int] = {
            "requests": 0, "ok": 0, "cache_hits": 0,
            "fallbacks": 0, "rejected": 0, "batch_ticks": 0,
            "batched_steps": 0,
        }
        #: Per-reason guard counters, e.g. ``{"timeout": 2, "oversized": 1}``.
        self.error_counts: Dict[str, int] = {}

        # Observability is bound at construction time: a service built
        # while the global registry is disabled carries ``_observe=False``
        # and runs the exact uninstrumented hot path. When enabled, the
        # instrument children are resolved here, once, so per-request
        # publication is plain ``inc``/``observe`` calls.
        self._registry = get_registry()
        self._tracer = get_tracer()
        self._observe = self._registry.enabled
        self._instruments = (
            _ServingInstruments(self._registry) if self._observe else None
        )

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_agent(
        cls,
        agent,
        *,
        version: Optional[str] = None,
        snapshot: bool = True,
        **kwargs,
    ) -> "OptimizationService":
        """Serve a :class:`~repro.core.agent_api.PosetRL` facade's policy.

        ``snapshot=True`` (default) registers a frozen copy of the online
        network, so continued training of the facade cannot mutate the
        serving model mid-request.
        """
        network = agent.agent.online
        if snapshot:
            frozen = QNetwork(
                network.state_dim, network.num_actions,
                network.hidden, network.learning_rate,
            )
            frozen.copy_from(network)
            network = frozen
        registry = ModelRegistry()
        registry.register(
            network,
            action_space=agent.action_space_kind,
            episode_length=agent.episode_length,
            version=version,
            metadata=agent.checkpoint_metadata(),
        )
        kwargs.setdefault("target", agent.target)
        return cls(registry, **kwargs)

    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        *,
        action_space: Optional[str] = None,
        version: Optional[str] = None,
        **kwargs,
    ) -> "OptimizationService":
        """Serve a saved ``.npz`` checkpoint (metadata-aware, see
        :meth:`ModelRegistry.register_checkpoint`)."""
        registry = ModelRegistry()
        registry.register_checkpoint(
            path, action_space=action_space, version=version
        )
        metadata = QNetwork.load_metadata(path)
        if "target" in metadata:
            kwargs.setdefault("target", str(metadata["target"]))
        return cls(registry, **kwargs)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "OptimizationService":
        with self._wake:
            if self._closed:
                raise RuntimeError("service has been stopped")
            if self._thread is None:
                self._running = True
                self._thread = threading.Thread(
                    target=self._loop, name="repro-serving", daemon=True
                )
                self._thread.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Stop accepting requests, drain in-flight work, join the thread."""
        self.drain(timeout)

    def drain(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Graceful shutdown: stop accepting, flush in-flight batches.

        New :meth:`submit` calls raise immediately; every request already
        queued or mid-rollout is driven to completion (its future
        resolves with a real result — nothing is dropped), and the final
        counter totals are returned so a supervisor (e.g. the sharded
        gateway's worker shutdown) can fold them into an aggregate view.
        Idempotent: a second call returns the same totals.
        """
        with self._wake:
            self._closed = True
            self._running = False
            self._wake.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout)
        if self.experience_tap is not None:
            self.experience_tap.flush()
        with self._counter_lock:
            return {
                "counters": dict(self.counters),
                "errors": dict(self.error_counts),
            }

    def __enter__(self) -> "OptimizationService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- client API ---------------------------------------------------------
    def submit(
        self, ir_text: str, name: str = "<module>"
    ) -> "Future[OptimizeResult]":
        """Enqueue one module; returns a future for its result.

        The admission guard runs on the caller's thread: the admission
        cache lookup (parse/oversize rejection and fingerprinting on a
        miss) and the result cache lookup. Cache hits complete the future
        immediately — they never reach the scheduler, the pass pipeline or
        any measurement code. The active model version is pinned here, so
        a hot reload between submission and execution does not change this
        request's policy.
        """
        if self._closed:
            # Checked again under the lock before enqueueing; this early
            # copy also stops the cache-hit fast path from answering
            # after a drain ("stops accepting" means cached results too).
            raise RuntimeError("service has been stopped")
        future: "Future[OptimizeResult]" = Future()
        arrival = time.monotonic()
        self._count("requests")

        key = text_key(ir_text)
        admission = self._admission.get(key)
        module: Optional[Module] = None
        if admission is None:
            admission, module = self._admission_check(ir_text)
            self._admission.put(key, admission)
        fingerprint, reason = admission
        if reason is not None:
            self._reject(future, name, arrival, reason)
            return future

        model = self.registry.active
        if self.result_cache is not None:
            hit = self.result_cache.get((fingerprint, model.version))
            if hit is not None:
                self._count("cache_hits")
                latency_s = time.monotonic() - arrival
                future.set_result(replace(
                    hit, name=name, cache_hit=True, latency_s=latency_s,
                ))
                self._publish_result(name, hit.status, latency_s,
                                     cache_hit=True)
                return future
        if module is None:  # admitted before: the session needs its own
            module = parse_module(ir_text)

        session = _Session(
            name=name,
            fingerprint=fingerprint,
            text=ir_text,
            module=module,
            model=model,
            future=future,
            arrival=arrival,
            deadline=arrival + self.request_timeout_s,
        )
        with self._wake:
            if self._closed:
                raise RuntimeError("service has been stopped")
            self._queue.append(session)
            if self._observe:
                self._instruments.queue_depth.set(len(self._queue))
            self._wake.notify_all()
        return future

    def submit_request(self, request: OptimizeRequest) -> "Future[OptimizeResult]":
        return self.submit(request.ir_text, name=request.name)

    def optimize(
        self, ir_text: str, name: str = "<module>",
        timeout: Optional[float] = None,
    ) -> OptimizeResult:
        """Synchronous convenience: submit and wait (auto-starts)."""
        self.start()
        budget = timeout if timeout is not None else self.request_timeout_s + 60.0
        return self.submit(ir_text, name=name).result(timeout=budget)

    # -- observability ------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "counters": dict(self.counters),
            "errors": dict(self.error_counts),
            "models": {
                v: self.registry.get(v).describe()
                for v in self.registry.versions()
            },
        }
        out["admission"] = self._admission.stats.as_dict()
        if self.result_cache is not None:
            out["result_cache"] = self.result_cache.stats.as_dict()
        # ``list``: the scheduler adds an engine on a kind's first request.
        out["metrics"] = {
            kind: engine.stats()
            for kind, engine in list(self._engines.items())
        }
        return out

    # -- admission (client threads) -----------------------------------------
    def _admission_check(
        self, ir_text: str
    ) -> Tuple[_Admission, Optional[Module]]:
        """Parse/oversize guard + fingerprint: one admission cache entry,
        and the parsed module of an accepted text."""
        try:
            module = parse_module(ir_text)
        except Exception as exc:
            return (None, f"parse_error: {exc}"), None
        count = module.instruction_count
        if count > self.max_instructions:
            return (None, (
                f"oversized: {count} instructions exceed the "
                f"service limit of {self.max_instructions}"
            )), None
        return (module_fingerprint(module), None), module

    def _count(self, key: str, n: int = 1) -> None:
        with self._counter_lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def _count_error(self, reason: str) -> None:
        tag = reason.split(":", 1)[0]
        with self._counter_lock:
            self.error_counts[tag] = self.error_counts.get(tag, 0) + 1

    def _reject(
        self, future: Future, name: str, arrival: float, reason: str
    ) -> None:
        self._count("rejected")
        self._count_error(reason)
        latency_s = time.monotonic() - arrival
        future.set_result(OptimizeResult(
            name=name, status="rejected", reason=reason,
            latency_s=latency_s,
        ))
        self._publish_result(name, "rejected", latency_s, reason=reason)

    # -- observability publication ------------------------------------------
    def _publish_result(
        self,
        name: str,
        status: str,
        latency_s: float,
        stage_seconds: Optional[Dict[str, float]] = None,
        reason: Optional[str] = None,
        cache_hit: bool = False,
    ) -> None:
        """Mirror one finished request into the metric registry/tracer.

        No-op unless observability was enabled when the service was
        constructed. Scheduler-completed requests carry ``stage_seconds``
        and yield both per-stage histograms and one ``request`` span tree
        (queue/forward/passes/measure/verify) in the trace ring.
        """
        if not self._observe:
            return
        instruments = self._instruments
        instruments.requests[status].inc()
        if cache_hit:
            instruments.cache_hits.inc()
        instruments.latency[status].observe(latency_s)
        if reason is not None:
            instruments.guard_trip(reason).inc()
        if stage_seconds:
            stage_instruments = instruments.stage
            for stage in LATENCY_STAGES:
                if stage in stage_seconds:
                    stage_instruments[stage].observe(stage_seconds[stage])
            if self._tracer.enabled:
                tags = {"name": name, "status": status}
                if reason is not None:
                    tags["reason"] = reason
                root = Span("request", duration_s=latency_s, tags=tags)
                root.children = [
                    Span(stage, duration_s=stage_seconds[stage])
                    for stage in LATENCY_STAGES
                    if stage in stage_seconds
                ]
                self._tracer.record(root)

    # -- scheduler thread ---------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._wake:
                while self._running and not self._queue and not self._active:
                    self._wake.wait(0.1)
                if not self._running and not self._queue and not self._active:
                    return
                if not self._active and self._queue:
                    # Batch-forming window: the oldest waiter is held at
                    # most ``batch_window_s`` for company, cut short as
                    # soon as the batch is full.
                    window_end = self._queue[0].arrival + self.batch_window_s
                    while self._running and len(self._queue) < self.max_batch:
                        remaining = window_end - time.monotonic()
                        if remaining <= 0:
                            break
                        self._wake.wait(remaining)
                admitted: List[_Session] = []
                while self._queue and (
                    len(self._active) + len(admitted) < self.max_batch
                ):
                    admitted.append(self._queue.popleft())
                if self._observe and admitted:
                    self._instruments.queue_depth.set(len(self._queue))
            for session in admitted:
                self._admit(session)
            try:
                self._tick()
            except Exception as exc:  # pragma: no cover - defensive
                # A scheduler crash must not strand submitters on futures
                # that will never resolve.
                for session in self._active:
                    if not session.finalized:
                        self._finalize_fallback(
                            session, f"scheduler_error: {exc}"
                        )
                self._active = []

    def _engine_for(self, kind: str) -> MetricsEngine:
        engine = self._engines.get(kind)
        if engine is None:
            # ``threadsafe``: the scheduler owns the rollouts, but client
            # threads reach the same caches through ``stats()`` and the
            # counters race without the lock.
            engine = MetricsEngine(self.target, threadsafe=True)
            self._engines[kind] = engine
        return engine

    def _admit(self, session: _Session) -> None:
        """Build the session's environment and start the rollout."""
        now = time.monotonic()
        if self._observe:
            # Pre-seed every stage so the per-step hot loop can use plain
            # ``+=`` instead of ``.get()`` chains.
            session.stage_seconds = {
                "queue": now - session.arrival, "forward": 0.0,
                "passes": 0.0, "measure": 0.0, "verify": 0.0,
            }
        if now > session.deadline:
            self._finalize_fallback(session, "timeout: expired in queue")
            return
        try:
            model = session.model
            env = PhaseOrderingEnv._single_episode(
                session.module,
                action_space=model.action_space,
                target=self.target,
                episode_length=model.episode_length,
                metrics=self._engine_for(model.action_space_kind),
            )
            session.env = env
            session.state = env.observe()
            if self.experience_tap is not None:
                session.traj = ([session.state], [], [])
            self._active.append(session)
        except Exception as exc:
            self._finalize_fallback(session, f"env_error: {exc}")

    def _tick(self) -> None:
        """One lockstep step of every active session.

        Safe to call with no active sessions (an empty batch tick is a
        no-op). Sessions are grouped by pinned model version, so a hot
        reload mid-stream simply yields one batched forward per model
        generation until the old sessions drain.
        """
        if not self._active:
            return
        now = time.monotonic()
        for session in self._active:
            if now > session.deadline:
                self._finalize_fallback(session, "timeout: deadline exceeded")
        self._active = [s for s in self._active if not s.finalized]
        if not self._active:
            return

        groups: Dict[str, List[_Session]] = {}
        for session in self._active:
            groups.setdefault(session.model.version, []).append(session)

        self._count("batch_ticks")
        observe = self._observe
        for sessions in groups.values():
            model = sessions[0].model
            states = np.stack([s.state for s in sessions])
            try:
                if observe:
                    forward_start = time.perf_counter()
                    actions = model.act(states)
                    forward_s = time.perf_counter() - forward_start
                    for session in sessions:
                        # Wall-clock attribution: every session in the
                        # group waited on this one batched forward.
                        session.stage_seconds["forward"] += forward_s
                    self._instruments.batch_size.observe(len(sessions))
                else:
                    actions = model.act(states)
            except Exception as exc:
                for session in sessions:
                    self._finalize_fallback(session, f"model_error: {exc}")
                continue
            self._count("batched_steps", len(sessions))
            for session, action in zip(sessions, actions):
                env = session.env
                assert env is not None
                try:
                    state, reward, done, info = env.step(int(action))
                except Exception as exc:
                    self._finalize_fallback(
                        session,
                        f"pass_error: step {env.steps} "
                        f"(action {int(action)}): {exc}",
                    )
                    continue
                if observe:
                    stages = session.stage_seconds
                    stages["passes"] += info.passes_seconds
                    stages["measure"] += info.measure_seconds
                session.state = state
                if session.traj is not None:
                    states, acts, rewards = session.traj
                    states.append(state)
                    acts.append(int(action))
                    rewards.append(float(reward))
                if done:
                    self._finalize_ok(session)
        self._active = [s for s in self._active if not s.finalized]

    # -- finalization (scheduler thread) ------------------------------------
    def _note_verify_time(self, session: _Session, start: float) -> None:
        if self._observe:
            session.stage_seconds["verify"] = (
                session.stage_seconds.get("verify", 0.0)
                + (time.perf_counter() - start)
            )

    def _finalize_ok(self, session: _Session) -> None:
        """Verify the rollout result and answer with the policy report."""
        env = session.env
        assert env is not None
        verify_start = time.perf_counter()
        try:
            check_key = (session.fingerprint, env.fingerprint)
            needs_check = (self.verify or self.semantic_check) and (
                self._checked.get(check_key) is None
            )
            optimized: Optional[Module] = None
            if needs_check or self.include_ir:
                optimized = env.current
            if needs_check:
                if self.verify:
                    verify_module(optimized)
                if self.semantic_check:
                    from ..testing.oracle import modules_equivalent

                    mismatch = modules_equivalent(
                        session.input_module(), optimized
                    )
                    if mismatch is not None:
                        self._note_verify_time(session, verify_start)
                        self._finalize_fallback(
                            session, f"miscompile: {mismatch}"
                        )
                        return
                self._checked.put(check_key, True)
        except VerificationError as exc:
            self._note_verify_time(session, verify_start)
            self._finalize_fallback(session, f"verify_error: {exc}")
            return
        except Exception as exc:
            self._note_verify_time(session, verify_start)
            self._finalize_fallback(session, f"finalize_error: {exc}")
            return
        self._note_verify_time(session, verify_start)

        model = session.model
        cache, cache_key = self.result_cache, (session.fingerprint, model.version)
        # An in-flight duplicate finishing second answers with the first
        # report, which may print other local names: one answer per key.
        result = cache.peek(cache_key) if cache is not None else None
        if result is None:
            actions = [info.action for info in env.history]
            passes: List[str] = []
            for action in actions:
                passes.extend(model.action_space.passes_for(action))
            result = OptimizeResult(
                name=session.name,
                status="ok",
                model_version=model.version,
                action_space=model.action_space_kind,
                actions=actions,
                passes=passes,
                base_size=env.base_size,
                optimized_size=env.last_size,
                base_throughput=env.base_throughput,
                optimized_throughput=env.last_throughput,
                fingerprint=session.fingerprint,
                optimized_ir=(
                    print_module(optimized)
                    if self.include_ir and optimized is not None
                    else None
                ),
            )
            if cache is not None:
                cache.put(cache_key, result)
        if self.experience_tap is not None and session.traj is not None:
            # Only verified "ok" rollouts become training experience; the
            # tap itself never raises into the scheduler.
            states, traj_actions, traj_rewards = session.traj
            self.experience_tap.record(states, traj_actions, traj_rewards)
        self._count("ok")
        session.finalized = True
        latency_s = time.monotonic() - session.arrival
        session.future.set_result(
            replace(result, name=session.name, latency_s=latency_s)
        )
        self._publish_result(
            session.name, "ok", latency_s,
            stage_seconds=session.stage_seconds,
        )

    def _finalize_fallback(self, session: _Session, reason: str) -> None:
        """Answer with the stock ``-Oz`` result; never raises."""
        self._count("fallbacks")
        self._count_error(reason)
        result = self._fallback_result(session, reason)
        session.finalized = True
        session.future.set_result(result)
        self._publish_result(
            session.name, result.status, result.latency_s,
            stage_seconds=session.stage_seconds or None,
            reason=reason,
        )

    def _fallback_result(self, session: _Session, reason: str) -> OptimizeResult:
        try:
            module = session.input_module()
            engine = self._engine_for(session.model.action_space_kind)
            base_size = engine.size(module).total_bytes
            base_throughput = engine.throughput(module).throughput
            # The session ends here, so -Oz runs on its module in place.
            build_pipeline("Oz").run(module)
            return OptimizeResult(
                name=session.name,
                status="fallback",
                reason=reason,
                model_version=session.model.version,
                action_space=session.model.action_space_kind,
                passes=list(OZ_PASS_SEQUENCE),
                base_size=base_size,
                optimized_size=engine.size(module).total_bytes,
                base_throughput=base_throughput,
                optimized_throughput=engine.throughput(module).throughput,
                fingerprint=session.fingerprint,
                optimized_ir=print_module(module) if self.include_ir else None,
                latency_s=time.monotonic() - session.arrival,
            )
        except Exception as exc:  # pragma: no cover - double fault
            return OptimizeResult(
                name=session.name,
                status="rejected",
                reason=f"{reason}; fallback_failed: {exc}",
                model_version=session.model.version,
                fingerprint=session.fingerprint,
                latency_s=time.monotonic() - session.arrival,
            )
