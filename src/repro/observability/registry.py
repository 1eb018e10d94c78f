"""Process-wide metric registry: labeled counters, gauges and histograms.

The registry is the one place every layer of the system reports to —
pass pipeline timings, cache hit rates, training diagnostics, serving
latency decompositions — so one JSON snapshot (or one Prometheus scrape)
shows the whole process.

Two design rules keep it out of the hot path's way:

* **Disabled is the default and free.** The module-level default is a
  :class:`NullRegistry` whose instruments are shared no-op singletons;
  instrumented call sites either bind ``None`` at construction time or
  gate on :attr:`MetricRegistry.enabled`, so a process that never calls
  :func:`enable` executes the exact pre-observability code paths.
* **Instruments are cheap handles.** ``labels()``/``counter()`` resolve
  a child once; the child's ``inc``/``set``/``observe`` is a guarded
  float update under one registry lock (the increments are shared
  between scheduler and client threads in serving).
"""

from __future__ import annotations

import bisect
import threading
import weakref
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Default histogram buckets (seconds): spans the ~100µs cache hit to the
#: multi-second fallback pipeline run.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

LabelValues = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelValues:
    if not labels:
        return ()
    if len(labels) == 1:  # the common case: nothing to sort
        ((k, v),) = labels.items()
        return ((str(k), str(v)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically non-decreasing float with labels."""

    __slots__ = ("_lock", "value", "labels")

    def __init__(self, lock: threading.Lock, labels: LabelValues = ()):
        self._lock = lock
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount


class Gauge:
    """Arbitrary float (set / add) with labels."""

    __slots__ = ("_lock", "value", "labels")

    def __init__(self, lock: threading.Lock, labels: LabelValues = ()):
        self._lock = lock
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """Fixed-bucket histogram (Prometheus ``le`` semantics).

    ``buckets`` are inclusive upper bounds in increasing order; a final
    ``+Inf`` bucket is implicit. ``observe`` updates one bucket count
    plus the running sum/count.
    """

    __slots__ = ("_lock", "buckets", "counts", "sum", "count", "labels")

    def __init__(
        self,
        lock: threading.Lock,
        buckets: Sequence[float],
        labels: LabelValues = (),
    ):
        self._lock = lock
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +Inf last
        self.sum = 0.0
        self.count = 0
        self.labels = labels

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative per-``le`` counts (``+Inf`` last)."""
        out: List[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


class _NullInstrument:
    """Shared no-op counter/gauge/histogram."""

    __slots__ = ()
    value = 0.0
    sum = 0.0
    count = 0
    labels: LabelValues = ()
    buckets: Tuple[float, ...] = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()

_KINDS = ("counter", "gauge", "histogram")


class _Family:
    """All children (label combinations) of one metric name."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(
        self, name: str, kind: str, help: str,
        buckets: Optional[Sequence[float]] = None,
    ):
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = tuple(buckets) if buckets is not None else None
        self.children: Dict[LabelValues, object] = {}


class MetricRegistry:
    """Namespace of metric families, safe to share across threads."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self._collect_hooks: "weakref.WeakKeyDictionary[object, object]" = (
            weakref.WeakKeyDictionary()
        )

    # -- instrument constructors -------------------------------------------
    def _child(
        self, name: str, kind: str, help: str,
        labels: Optional[Mapping[str, str]],
        buckets: Optional[Sequence[float]] = None,
    ):
        """The ``labels`` child of family ``name``, created on first use
        (family and child under one lock acquisition)."""
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"cannot re-register as {kind}"
                )
            child = family.children.get(key)
            if child is None:
                if kind == "histogram":
                    assert family.buckets is not None
                    child = Histogram(self._lock, family.buckets, key)
                elif kind == "gauge":
                    child = Gauge(self._lock, key)
                else:
                    child = Counter(self._lock, key)
                family.children[key] = child
            return child

    def counter(
        self, name: str, help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        return self._child(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        return self._child(name, "gauge", help, labels)

    def histogram(
        self, name: str, help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._child(
            name, "histogram", help, labels,
            buckets if buckets is not None else DEFAULT_TIME_BUCKETS,
        )

    def register_collect_hook(self, owner, hook) -> None:
        """Run ``hook(owner)`` before every :meth:`collect`/:meth:`get_value`
        for as long as ``owner`` lives.

        Lazily-synced sources (the LRU caches keep plain int counters on
        their hot path) use this to fold their totals into registry
        instruments only when something actually reads the registry —
        zero added cost per cache operation. The registry holds ``owner``
        weakly, so the hook goes away with it. Hooks may call instrument
        methods; they run *outside* the registry lock.
        """
        with self._lock:
            self._collect_hooks[owner] = hook

    def _run_collect_hooks(self) -> None:
        with self._lock:
            hooks = list(self._collect_hooks.items())
        for owner, hook in hooks:
            hook(owner)

    # -- export -------------------------------------------------------------
    def collect(self) -> List[Dict[str, object]]:
        """Every family with every labeled sample, JSON-friendly.

        The schema is shared with the exporters and the ``repro.tools.stats``
        renderer: a list of ``{name, type, help, samples}`` dicts, where a
        histogram sample carries per-``le`` cumulative bucket counts.
        """
        self._run_collect_hooks()
        out: List[Dict[str, object]] = []
        with self._lock:
            for family in sorted(self._families.values(), key=lambda f: f.name):
                samples: List[Dict[str, object]] = []
                for key, child in sorted(family.children.items()):
                    labels = dict(key)
                    if family.kind == "histogram":
                        assert isinstance(child, Histogram)
                        les = [_format_le(b) for b in child.buckets] + ["+Inf"]
                        samples.append({
                            "labels": labels,
                            "buckets": dict(zip(les, child.cumulative_counts())),
                            "sum": child.sum,
                            "count": child.count,
                        })
                    else:
                        samples.append(
                            {"labels": labels, "value": child.value}
                        )
                out.append({
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "samples": samples,
                })
        return out

    def get_value(
        self, name: str, labels: Optional[Mapping[str, str]] = None,
    ) -> Optional[float]:
        """Read one counter/gauge value (tests, CLIs); ``None`` if absent."""
        self._run_collect_hooks()
        family = self._families.get(name)
        if family is None:
            return None
        child = family.children.get(_label_key(labels))
        if child is None or isinstance(child, Histogram):
            return None
        return child.value  # type: ignore[union-attr]


def _format_le(bound: float) -> str:
    """Prometheus-style bucket bound: drop trailing zeros, keep '1.0'."""
    text = repr(float(bound))
    return text[:-2] if text.endswith(".0") else text


class NullRegistry:
    """The default: every instrument is the shared no-op singleton."""

    enabled = False

    def counter(self, name: str, help: str = "", labels=None) -> Counter:
        return NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labels=None) -> Gauge:
        return NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", labels=None, buckets=None,
    ) -> Histogram:
        return NULL_INSTRUMENT  # type: ignore[return-value]

    def collect(self) -> List[Dict[str, object]]:
        return []

    def get_value(self, name: str, labels=None) -> Optional[float]:
        return None

    def register_collect_hook(self, owner, hook) -> None:
        pass


NULL_REGISTRY = NullRegistry()
