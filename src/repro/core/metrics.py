"""Incremental metrics engine for the RL hot loop.

Every :meth:`PhaseOrderingEnv.step` needs three module-level quantities:
object-file size, the MCA throughput proxy, and the IR2Vec state embedding.
All three decompose into per-function parts that only change when the
function's body changes, so the engine memoizes them on structural
fingerprints (:mod:`repro.ir.fingerprint`):

* per function — one :class:`FunctionRecord` (size row, MCA report plus
  outgoing call counts, embedding) per fingerprint, in one LRU. A miss
  flattens the function once (:func:`~repro.ir.flat.build_flat_function`),
  runs the three flat kernels on the view and drops it;
* whole transitions — ``(module_fingerprint, action) →`` the result's
  fingerprint, changed-flag, metrics and frozen embedding, so an ε-greedy
  agent revisiting a known prefix skips passes and measurements. Entries
  hold no module: an env replays its hits' actions on its own module.

The uncached public measurements (``object_size``,
``estimate_throughput``, ``IR2VecEncoder.program_embedding``) run the
same flat kernels and combine their results with the same module-level
steps, so an engine measurement is bit-identical to an uncached one.

One engine is intended to be shared across environments and episodes
(:class:`~repro.core.agent_api.PosetRL` owns one); fingerprint keys make
that safe across different modules.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

from ..caching import LRUCache
from ..codegen.objfile import (
    FunctionSizeReport,
    SizeReport,
    _size_from_functions,
    flat_function_text_size,
)
from ..codegen.target import get_target
from ..embeddings.ir2vec import IR2VecEncoder, _embedding_from_functions
from ..ir.fingerprint import function_fingerprint, module_fingerprint
from ..ir.flat import build_flat_function
from ..ir.module import Function, Module
from ..mca.ports import get_port_model
from ..mca.sched import (
    FunctionReport,
    McaSummary,
    _summary_from_functions,
    flat_analyze_function,
    flat_call_counts,
)
from ..observability import get_registry

#: Per-function record cache capacity (entries are small reports/vectors).
FUNCTION_CACHE_SIZE = 16384
#: Transition cache capacity (entries are metrics and one embedding).
TRANSITION_CACHE_SIZE = 2048


@dataclass(frozen=True)
class FunctionRecord:
    """Everything one function definition contributes to a measurement.

    Holds results only — no object IR and no flat view."""

    size: FunctionSizeReport
    #: ``(FunctionReport, outgoing call counts)`` for the MCA combine.
    mca: Tuple[FunctionReport, Dict[str, float]]
    #: Frozen (non-writeable): shared by every lookup.
    embedding: np.ndarray


@dataclass
class ModuleMetrics:
    """The three measurements one environment step consumes."""

    size: int
    throughput: float
    cycles: float
    embedding: np.ndarray
    size_report: SizeReport
    mca: McaSummary


@dataclass
class Transition:
    """Cached outcome of applying one action to one module state."""

    result_fingerprint: str
    changed: bool
    size: int
    throughput: float
    cycles: float
    embedding: np.ndarray


class TransitionCache:
    """LRU map ``(module_fingerprint, action) → Transition``."""

    def __init__(
        self,
        capacity: int = TRANSITION_CACHE_SIZE,
        name: Optional[str] = "transitions",
        lock=None,
    ):
        self._cache = LRUCache(capacity, name=name, lock=lock)

    def get(
        self, fingerprint: str, action: Hashable
    ) -> Optional[Transition]:
        return self._cache.get((fingerprint, action))

    def put(
        self, fingerprint: str, action: Hashable, transition: Transition
    ) -> None:
        self._cache.put((fingerprint, action), transition)

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def stats(self):
        return self._cache.stats


class MetricsEngine:
    """Fingerprint-keyed memoization for size / throughput / embedding."""

    def __init__(self, target: str = "x86-64", threadsafe: bool = False):
        self.target = target
        #: ``threadsafe=True`` guards every cache with one shared lock —
        #: required when the engine is reachable from more than one thread
        #: (the serving scheduler's engines are also read by client-thread
        #: ``stats()`` calls). Training keeps the lock-free default.
        self.threadsafe = threadsafe
        self._descriptor = get_target(target)
        self._model = get_port_model(target)
        self.encoder = IR2VecEncoder()
        self._init_caches()

    def _init_caches(self) -> None:
        lock = threading.Lock() if self.threadsafe else None
        self.functions = LRUCache(
            FUNCTION_CACHE_SIZE, name="functions", lock=lock
        )
        self.transitions = TransitionCache(TRANSITION_CACHE_SIZE, lock=lock)
        self.flat_builds = 0
        self.flat_row_rebuilds = 0
        registry = get_registry()
        self._builds_counter = registry.counter(
            "repro_ir_flat_builds_total",
            "FlatFunction builds (function record misses)",
        )
        self._rows_counter = registry.counter(
            "repro_ir_flat_row_rebuilds_total",
            "Instruction rows flattened by builds",
        )

    # -- per-function records ------------------------------------------------
    def _build_record(self, fn: Function, fingerprint: str) -> FunctionRecord:
        """Flatten ``fn`` once, run the three kernels, keep the results."""
        ff = build_flat_function(fn, self._descriptor, self._model)
        self.flat_builds += 1
        self.flat_row_rebuilds += ff.n_inst
        self._builds_counter.inc()
        self._rows_counter.inc(ff.n_inst)
        embedding = self.encoder.flat_function_embedding(ff)
        embedding.setflags(write=False)
        record = FunctionRecord(
            size=flat_function_text_size(ff, self._descriptor),
            mca=(flat_analyze_function(ff, self._model), flat_call_counts(ff)),
            embedding=embedding,
        )
        self.functions.put(fingerprint, record)
        return record

    def _records(
        self,
        module: Module,
        fingerprints: Optional[Mapping[str, str]],
        lookup: Callable[[str], Optional[FunctionRecord]],
    ) -> Dict[str, FunctionRecord]:
        """``name → record`` for every defined function, in module order,
        building the missing ones."""
        records: Dict[str, FunctionRecord] = {}
        for fn in module.functions:
            if fn.is_declaration:
                continue
            fp = fingerprints.get(fn.name) if fingerprints else None
            if fp is None:
                fp = function_fingerprint(fn)
            record = lookup(fp)
            if record is None:
                record = self._build_record(fn, fp)
            records[fn.name] = record
        return records

    # -- measurements ------------------------------------------------------
    def function_fingerprints(self, module: Module) -> Dict[str, str]:
        """Per-function digests, computed once and threaded through every
        consumer so a step hashes each function at most once."""
        return {
            fn.name: function_fingerprint(fn) for fn in module.functions
        }

    def fingerprint(
        self,
        module: Module,
        fingerprints: Optional[Mapping[str, str]] = None,
    ) -> str:
        return module_fingerprint(module, fingerprints)

    def size(
        self,
        module: Module,
        fingerprints: Optional[Mapping[str, str]] = None,
    ) -> SizeReport:
        """Object size. The one counted record lookup of a measurement:
        :meth:`measure` calls this first, so record builds land here."""
        records = self._records(module, fingerprints, self.functions.get)
        return _size_from_functions(
            module, self._descriptor, [r.size for r in records.values()]
        )

    def throughput(
        self,
        module: Module,
        fingerprints: Optional[Mapping[str, str]] = None,
    ) -> McaSummary:
        records = self._records(module, fingerprints, self.functions.peek)
        return _summary_from_functions(
            module,
            self._descriptor.name,
            {name: r.mca for name, r in records.items()},
        )

    def embedding(
        self,
        module: Module,
        fingerprints: Optional[Mapping[str, str]] = None,
    ) -> np.ndarray:
        records = self._records(module, fingerprints, self.functions.peek)
        return _embedding_from_functions(
            self.encoder.dimension, [r.embedding for r in records.values()]
        )

    def measure(
        self,
        module: Module,
        fingerprints: Optional[Mapping[str, str]] = None,
    ) -> ModuleMetrics:
        """Size, throughput and state embedding in one shot."""
        if fingerprints is None:
            fingerprints = self.function_fingerprints(module)
        size_report = self.size(module, fingerprints)
        mca = self.throughput(module, fingerprints)
        return ModuleMetrics(
            size=size_report.total_bytes,
            throughput=mca.throughput,
            cycles=mca.total_cycles,
            embedding=self.embedding(module, fingerprints),
            size_report=size_report,
            mca=mca,
        )

    # -- observability -----------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, float]]:
        """Hit/miss/eviction counters for every cache, JSON-friendly."""
        functions = self.functions.stats.as_dict()
        return {
            "functions": functions,
            "transitions": self.transitions.stats.as_dict(),
            "flat": {
                "builds": float(self.flat_builds),
                "row_rebuilds": float(self.flat_row_rebuilds),
            },
            # Benchmark alias: perfbench/run.py sums these three keys for
            # its function-cache hit ratio. Delete once it reads
            # "functions".
            "size": functions, "mca": functions, "embedding": functions,
        }

    def clear(self) -> None:
        self._init_caches()
