"""Wrapper tracing for the traced benchmark run.

The program carries no tracing of its own for this benchmark. Instead,
:class:`LayerTracer` replaces the public entry point of each layer with a
timing wrapper for the duration of a traced run and puts the originals
back afterwards, so untraced runs execute pristine code.

Every wrapped call becomes one span ``(id, parent, name, start, end,
thread)`` kept in memory; :meth:`LayerTracer.write_spans` writes them out
when the run ends. A span's self time is its duration minus the time of
the wrapped calls nested inside it on the same thread.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans beyond this many are counted in ``dropped`` but not kept; the
#: per-name totals still include them.
MAX_SPANS = 250_000


@dataclass
class SpanTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class LayerTracer:
    """Installs timing wrappers; aggregates calls, busy and self time."""

    def __init__(self) -> None:
        self.totals: Dict[str, SpanTotals] = defaultdict(SpanTotals)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple[int, int, str, float, float, int]] = []
        self.dropped = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._restore: List[Tuple[Any, str, bool, Any]] = []

    # -- spans --------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[["LayerTracer", Any], None]] = None,
    ) -> Callable:
        """A timing wrapper around ``fn``; ``after(tracer, result)`` runs
        on the result outside the span, for per-call counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][1] if stack else 0
            frame = [0.0, next(tracer._ids)]  # [children's time, span id]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                tracer._record(frame[1], parent, name, start, end, frame[0])
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def _record(
        self, span_id: int, parent: int, name: str,
        start: float, end: float, children_s: float,
    ) -> None:
        with self._lock:
            totals = self.totals[name]
            totals.calls += 1
            totals.busy_s += end - start
            totals.self_s += end - start - children_s
            if len(self.spans) < MAX_SPANS:
                self.spans.append((
                    span_id, parent, name, start, end, threading.get_ident(),
                ))
            else:
                self.dropped += 1

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    # -- installation -------------------------------------------------------
    def patch_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``, remembering how to undo it exactly."""
        had_own = attr in vars(owner)
        self._restore.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def patch_method(
        self, cls: type, attr: str, name: str, after=None,
    ) -> None:
        self.patch_attr(cls, attr, self.wrap(name, getattr(cls, attr), after))

    def patch_function(self, fn: Callable, name: str) -> None:
        """Rebind every ``repro`` module global that refers to ``fn``:
        ``from x import f`` copies the binding into each importer."""
        wrapper = self.wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch_attr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._restore:
            owner, attr, had_own, original = self._restore.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "LayerTracer":
        install_layers(self)
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -------------------------------------------------------------
    def write_spans(self, path: str) -> None:
        """Gzipped JSON lines, one ``[id, parent, name, start, end,
        thread]`` per span, then a trailer with the dropped count."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            out.write(json.dumps({"dropped": self.dropped}) + "\n")


def _count_pass(tracer: LayerTracer, changed: Any) -> None:
    tracer.count("passes.runs")
    if changed:
        tracer.count("passes.changed")


def _count_step(tracer: LayerTracer, result: Any) -> None:
    info = result[3]
    tracer.count("core.steps")
    if not info.changed:
        tracer.count("core.noop_steps")
    if info.cache_hit:
        tracer.count("core.transition_hits")


def install_layers(tracer: LayerTracer) -> None:
    """Wrap the public entry point of every measured layer.

    Each pass class gets its own ``run_on_module`` wrapper keyed by its
    registered name; the originals are all read before any is replaced,
    so a pass class inheriting from another is never timed twice.
    """
    from repro.core.environment import PhaseOrderingEnv
    from repro.core.metrics import MetricsEngine
    from repro.ir import parser, printer, verifier
    from repro.ir.module import Module
    from repro.passes.base import PASS_REGISTRY, PassManager
    from repro.rl.network import QNetwork
    from repro.rl.replay import ReplayMemory
    from repro.serving.service import OptimizationService

    tracer.patch_function(parser.parse_module, "ir.parse")
    tracer.patch_function(verifier.verify_module, "ir.verify")
    tracer.patch_function(printer.print_module, "ir.print")
    tracer.patch_method(Module, "clone", "ir.clone")
    tracer.patch_method(
        MetricsEngine, "function_fingerprints", "ir.function_fingerprints"
    )
    tracer.patch_method(MetricsEngine, "fingerprint", "ir.fingerprint")
    tracer.patch_method(PassManager, "run", "passes.run")
    originals = {
        name: cls.run_on_module for name, cls in PASS_REGISTRY.items()
    }
    for name, cls in PASS_REGISTRY.items():
        tracer.patch_attr(cls, "run_on_module", tracer.wrap(
            f"passes.{name}", originals[name], _count_pass,
        ))
    tracer.patch_method(MetricsEngine, "size", "codegen.size")
    tracer.patch_method(MetricsEngine, "throughput", "mca.throughput")
    tracer.patch_method(MetricsEngine, "embedding", "embeddings.embedding")
    tracer.patch_method(PhaseOrderingEnv, "step", "core.step", _count_step)
    tracer.patch_method(QNetwork, "predict", "rl.predict")
    tracer.patch_method(QNetwork, "train_batch", "rl.train_batch")
    tracer.patch_method(ReplayMemory, "sample", "rl.sample")
    tracer.patch_method(OptimizationService, "submit", "serving.submit")
