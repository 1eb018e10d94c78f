"""Closed-loop learning controller.

Ties the pieces into the loop: ingest journaled traffic experience,
fine-tune, gate the candidate against the incumbent, hot-swap winners
into the serving plane, and watch post-promotion health for automatic
rollback.

The controller drives either serving front end through a small adapter:

* :class:`~repro.serving.service.OptimizationService` — promotion
  registers + activates in the in-process :class:`ModelRegistry`;
  rollback re-activates the previous version.
* :class:`~repro.serving.gateway.ShardedGateway` — promotion broadcasts
  ``hot_reload`` to every shard worker; rollback broadcasts
  ``activate_version`` (the workers re-activate a version they already
  hold, no weights cross the pipe).

Rollback watches the *fallback rate* — the fraction of completed
requests that tripped the robustness guard (verify failure, crash,
deadline) and fell back to ``-Oz``. A healthy promotion barely moves
it; a bad model spikes it, and the spike is attributable to the
promotion because the controller samples the counters at promotion time
and judges only the delta.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..observability import get_registry
from ..rl.network import QNetwork
from .gate import EvaluationGate, GateVerdict
from .trainer import OnlineTrainer

#: ``health_sampler() -> (completed_requests, guard_trips)`` cumulative pair.
HealthSampler = Callable[[], Tuple[int, int]]


@dataclass
class CycleReport:
    """What one :meth:`LearningController.run_cycle` did."""

    ingested: int
    train_updates: int
    candidate_version: Optional[str] = None
    verdict: Optional[GateVerdict] = None
    promoted: bool = False
    rolled_back: bool = False
    details: Dict[str, Any] = field(default_factory=dict)


class _ServiceAdapter:
    """Promotion/rollback against an in-process ``OptimizationService``."""

    def __init__(self, service):
        self.service = service

    def incumbent_version(self) -> str:
        return self.service.registry.active.version

    def incumbent_network(self) -> QNetwork:
        return self.service.registry.active.network

    def promote(
        self, network: QNetwork, version: str, metadata: Dict[str, Any]
    ) -> None:
        active = self.service.registry.active
        self.service.registry.register(
            network,
            action_space=active.action_space_kind,
            version=version,
            episode_length=active.episode_length,
            metadata=metadata,
            activate=True,
        )

    def activate(self, version: str) -> None:
        self.service.registry.activate(version)

    def health(self) -> Tuple[int, int]:
        with self.service._counter_lock:
            c = dict(self.service.counters)
        completed = int(c.get("ok", 0)) + int(c.get("fallbacks", 0))
        return completed, int(c.get("fallbacks", 0))

    def prune(self, keep_last: int, keep: Tuple[str, ...]) -> List[str]:
        return self.service.registry.prune(keep_last=keep_last, keep=keep)


class _GatewayAdapter:
    """Promotion/rollback against a ``ShardedGateway`` (remote workers).

    Worker registries live in other processes, so the adapter keeps its
    own version → network map for gating (seeded with the base network)
    and trusts ``gateway.model_version`` as the incumbent pointer.
    """

    def __init__(self, gateway, base_network: QNetwork):
        self.gateway = gateway
        self._networks: Dict[str, QNetwork] = {
            gateway.model_version: base_network
        }

    def incumbent_version(self) -> str:
        return self.gateway.model_version

    def incumbent_network(self) -> QNetwork:
        version = self.gateway.model_version
        network = self._networks.get(version)
        if network is None:
            raise LookupError(
                f"gateway serves version {version!r} but the controller "
                "holds no weights for it (promoted outside the loop?)"
            )
        return network

    def promote(
        self, network: QNetwork, version: str, metadata: Dict[str, Any]
    ) -> None:
        outcomes = self.gateway.hot_reload(
            network=network, version=version, metadata=metadata
        )
        errors = {s: e for s, e in outcomes.items() if e is not None}
        if errors:
            raise RuntimeError(f"hot reload failed on shards {errors}")
        self._networks[version] = network

    def activate(self, version: str) -> None:
        outcomes = self.gateway.activate_version(version)
        errors = {s: e for s, e in outcomes.items() if e is not None}
        if errors:
            raise RuntimeError(f"rollback failed on shards {errors}")

    def health(self) -> Tuple[int, int]:
        stats = self.gateway.stats()
        completed = int(stats.counters.get("ok", 0)) + int(
            stats.counters.get("fallback", 0)
        )
        return completed, int(stats.counters.get("fallback", 0))

    def prune(self, keep_last: int, keep: Tuple[str, ...]) -> List[str]:
        # Worker registries are pruned on their own; nothing to do here
        # beyond dropping network references the controller holds.
        keep_set = set(keep) | {self.gateway.model_version}
        order = list(self._networks)
        victims = [v for v in order[:-keep_last or None] if v not in keep_set]
        for v in victims:
            del self._networks[v]
        return victims


def registry_health_sampler(prefix: str = "repro_serving") -> HealthSampler:
    """Health from the metric registry instead of live counter objects.

    Reads the ``{prefix}_requests_total`` family and treats the
    ``status="fallback"`` series as guard trips — useful when the
    controller runs beside a serving process it cannot reach directly
    but shares a metric registry with.
    """

    def sample() -> Tuple[int, int]:
        registry = get_registry()
        ok = registry.get_value(
            f"{prefix}_requests_total", labels={"status": "ok"}
        )
        fallback = registry.get_value(
            f"{prefix}_requests_total", labels={"status": "fallback"}
        )
        ok = int(ok or 0)
        fallback = int(fallback or 0)
        return ok + fallback, fallback

    return sample


class LearningController:
    """Runs the ingest → train → gate → promote → watch loop."""

    def __init__(
        self,
        serving,
        trainer: OnlineTrainer,
        gate: EvaluationGate,
        *,
        version_prefix: str = "online",
        rollback_threshold: float = 0.5,
        rollback_min_requests: int = 4,
        prune_keep_last: int = 4,
        health_sampler: Optional[HealthSampler] = None,
    ):
        from ..serving.gateway import ShardedGateway

        self.trainer = trainer
        self.gate = gate
        if isinstance(serving, ShardedGateway):
            self.adapter = _GatewayAdapter(serving, trainer.base_network)
        else:
            self.adapter = _ServiceAdapter(serving)
        self.version_prefix = version_prefix
        #: Roll back when guard trips / completed requests since promotion
        #: exceeds this fraction (once ``rollback_min_requests`` completed).
        self.rollback_threshold = rollback_threshold
        self.rollback_min_requests = rollback_min_requests
        self.prune_keep_last = prune_keep_last
        self._health_sampler: HealthSampler = (
            health_sampler if health_sampler is not None else self.adapter.health
        )
        self._candidate_counter = 0
        #: (previous_version, health baseline at promotion) — set while a
        #: promotion is being watched; cleared by rollback.
        self._watch: Optional[Tuple[str, Tuple[int, int]]] = None
        self.promotions = 0
        self.rollbacks = 0
        self.history: List[CycleReport] = []
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- one cycle -----------------------------------------------------------
    def run_cycle(self, *, train_updates: Optional[int] = None) -> CycleReport:
        """Ingest → train → candidate → gate → maybe promote."""
        ingested = self.trainer.ingest()
        losses = self.trainer.train(train_updates)
        report = CycleReport(ingested=ingested, train_updates=len(losses))
        if not losses and not ingested:
            report.details["skipped"] = "no new experience and no updates run"
            self.history.append(report)
            return report
        if not losses:
            report.details["skipped"] = (
                f"buffer below minimum ({len(self.trainer.memory)} rows)"
            )
            self.history.append(report)
            return report
        candidate = self.trainer.make_candidate()
        self._candidate_counter += 1
        version = f"{self.version_prefix}-{self._candidate_counter}"
        report.candidate_version = version
        report.verdict, report.promoted = self.consider(candidate, version)
        self.history.append(report)
        return report

    def consider(
        self, candidate: QNetwork, version: str
    ) -> Tuple[GateVerdict, bool]:
        """Gate ``candidate`` and promote it if it wins.

        The incumbent is re-read *after* evaluation: if it changed while
        the gate ran (a rollback fired, or another promotion landed) the
        verdict no longer compares against reality and the candidate is
        discarded as stale rather than promoted over the wrong baseline.
        """
        incumbent_version = self.adapter.incumbent_version()
        verdict = self.gate.evaluate(candidate, self.adapter.incumbent_network())
        if not verdict.passed:
            return verdict, False
        if self.adapter.incumbent_version() != incumbent_version:
            verdict.passed = False
            verdict.reasons.append(
                f"stale_incumbent: incumbent changed from "
                f"{incumbent_version!r} to "
                f"{self.adapter.incumbent_version()!r} during evaluation"
            )
            return verdict, False
        self.promote(candidate, version, previous=incumbent_version)
        return verdict, True

    # -- promotion / rollback ------------------------------------------------
    def promote(
        self, network: QNetwork, version: str, *, previous: str
    ) -> None:
        metadata = self.trainer.candidate_metadata()
        metadata["promoted_over"] = previous
        self.adapter.promote(network, version, metadata)
        self._watch = (previous, self._health_sampler())
        self.promotions += 1
        self.adapter.prune(
            self.prune_keep_last, keep=(previous, version)
        )
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "repro_learning_promotions_total",
                "candidate models promoted to serving",
            ).inc()

    def check_rollback(self) -> bool:
        """Roll back if post-promotion guard-trip rate breached the bar."""
        if self._watch is None:
            return False
        previous, (base_completed, base_bad) = self._watch
        completed, bad = self._health_sampler()
        d_completed = completed - base_completed
        d_bad = bad - base_bad
        if d_completed < self.rollback_min_requests:
            return False
        rate = d_bad / d_completed
        registry = get_registry()
        if registry.enabled:
            registry.gauge(
                "repro_learning_post_promotion_fallback_rate",
                "guard-trip rate observed since the last promotion",
            ).set(rate)
        if rate <= self.rollback_threshold:
            return False
        self.rollback(previous, rate=rate)
        return True

    def rollback(self, version: str, *, rate: Optional[float] = None) -> None:
        """Re-activate ``version`` and stop watching the failed promotion."""
        self.adapter.activate(version)
        self._watch = None
        self.rollbacks += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "repro_learning_rollbacks_total",
                "automatic rollbacks after a bad promotion",
            ).inc()

    # -- background loop -----------------------------------------------------
    def start(self, interval_s: float = 1.0) -> None:
        """Run cycles on a daemon thread until :meth:`stop`."""
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                try:
                    self.run_cycle()
                    self.check_rollback()
                except Exception:
                    # The loop must outlive one bad cycle; the next one
                    # starts from clean state.
                    pass
                self._stop.wait(interval_s)

        self._thread = threading.Thread(
            target=loop, name="learning-controller", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout)
        self._thread = None
