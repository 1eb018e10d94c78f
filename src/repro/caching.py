"""Bounded LRU caches with hit/miss/eviction accounting.

The incremental metrics engine (``repro.core.metrics``) keys its
per-function measurement records — codegen size, MCA scheduling, IR2Vec
embedding — and whole environment transitions on structural fingerprints
(``repro.ir.fingerprint``). All of those caches are instances of
:class:`LRUCache`, so hit rates and memory bounds are uniform and
observable everywhere.

Two optional integrations, both free when unused:

* ``name=`` mirrors the counters into the process-wide metric registry
  (:mod:`repro.observability`) as ``repro_cache_*_total{cache=name}`` —
  bound at construction time, and only if observability is enabled then,
  so the disabled path never even checks. The mirror is *lazy*: the hot
  path only bumps plain ints, and a registry collect hook folds the
  totals into the counters when a snapshot/scrape actually reads them,
  so an enabled cache costs the same per operation as a disabled one.
* ``lock=`` serializes ``get``/``put``/``clear`` under a caller-supplied
  :class:`threading.Lock`. ``OrderedDict.move_to_end`` plus the counter
  increments are *not* safe under concurrent mutation; pass a lock when
  a cache is shared across threads (the serving engines and the
  service's admission and result caches do), or keep the default
  single-thread ownership.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional


@dataclass
class CacheStats:
    """Counter snapshot for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": round(self.hit_rate, 4),
        }


_MISSING = object()


class _CacheMetrics:
    """Registry mirror for one named cache (hits/misses/evictions).

    Synced lazily from the cache's plain int counters by a registry
    collect hook; ``_seen`` tracks what has already been folded in so
    the registry counters stay monotonic even across
    :meth:`LRUCache.reset_counters`.
    """

    __slots__ = ("hits", "misses", "evictions", "_seen", "_sync_lock")

    def __init__(self, registry, name: str):
        labels = {"cache": name}
        self.hits = registry.counter(
            "repro_cache_hits_total", "LRU cache hits", labels=labels
        )
        self.misses = registry.counter(
            "repro_cache_misses_total", "LRU cache misses", labels=labels
        )
        self.evictions = registry.counter(
            "repro_cache_evictions_total", "LRU cache evictions",
            labels=labels,
        )
        self._seen = [0, 0, 0]
        self._sync_lock = threading.Lock()

    def sync(self, cache: "LRUCache") -> None:
        with self._sync_lock:
            for i, (counter, value) in enumerate((
                (self.hits, cache.hits),
                (self.misses, cache.misses),
                (self.evictions, cache.evictions),
            )):
                delta = value - self._seen[i]
                if delta < 0:  # the cache's counters were reset
                    delta = value
                if delta:
                    counter.inc(delta)
                self._seen[i] = value


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``get`` counts a hit or a miss and refreshes recency; ``put`` inserts
    and evicts the stalest entry once ``capacity`` is exceeded.
    """

    def __init__(
        self,
        capacity: int = 4096,
        name: Optional[str] = None,
        lock: Optional[threading.Lock] = None,
    ):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = lock
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._metrics: Optional[_CacheMetrics] = None
        if name is not None:
            from .observability import get_registry

            registry = get_registry()
            if registry.enabled:
                self._metrics = _CacheMetrics(registry, name)
                registry.register_collect_hook(self, self._metrics.sync)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        if self._lock is not None:
            with self._lock:
                return self._get(key, default)
        return self._get(key, default)

    def _get(self, key: Hashable, default: Any) -> Any:
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """``get`` without counting a hit or a miss or refreshing recency:
        for a second reader of an entry a counted ``get`` already found."""
        if self._lock is not None:
            with self._lock:
                return self._data.get(key, default)
        return self._data.get(key, default)

    def put(self, key: Hashable, value: Any) -> None:
        if self._lock is not None:
            with self._lock:
                self._put(key, value)
        else:
            self._put(key, value)

    def _put(self, key: Hashable, value: Any) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        if self._lock is not None:
            with self._lock:
                self._data.clear()
        else:
            self._data.clear()

    def reset_counters(self) -> None:
        self.hits = self.misses = self.evictions = 0

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._data),
            capacity=self.capacity,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.stats
        return (
            f"<LRUCache {s.size}/{s.capacity} hits={s.hits} "
            f"misses={s.misses} evictions={s.evictions}>"
        )
