"""Evaluation against the -Oz baseline (the paper's Tables IV/V, Fig. 5).

For each benchmark module: optimize one copy with ``-Oz``, one with the
agent's predicted sub-sequence ordering, and compare object size and the
MCA runtime proxy. Suite-level summaries report min/avg/max size
reduction (Table IV) and average runtime improvement (Table V).

Evaluation runs in-process, one benchmark after another (docs/PERFORMANCE.md,
"Suite evaluation runs in-process", has the measurements).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from ..codegen.objfile import size_of_views
from ..codegen.target import get_target
from ..ir.flat import flat_functions
from ..ir.module import Module
from ..mca.ports import get_port_model
from ..mca.sched import summary_of_views
from ..passes.pipelines import build_pipeline


@dataclass
class BenchmarkResult:
    """Per-benchmark comparison of the agent sequence vs -Oz."""

    name: str
    oz_size: int
    agent_size: int
    oz_cycles: float
    agent_cycles: float
    actions: List[int] = field(default_factory=list)

    @property
    def size_reduction_pct(self) -> float:
        """Positive = agent binary smaller than Oz (paper's metric)."""
        if self.oz_size == 0:
            return 0.0
        return 100.0 * (self.oz_size - self.agent_size) / self.oz_size

    @property
    def runtime_improvement_pct(self) -> float:
        """Positive = agent binary faster than Oz (MCA cycles proxy)."""
        if self.oz_cycles == 0:
            return 0.0
        return 100.0 * (self.oz_cycles - self.agent_cycles) / self.oz_cycles


@dataclass
class SuiteSummary:
    """Table IV row: min/avg/max size reduction, plus Table V's runtime."""

    suite: str
    target: str
    results: List[BenchmarkResult]

    def _series(self, attr: str) -> List[float]:
        return [getattr(r, attr) for r in self.results]

    @property
    def min_size_reduction(self) -> float:
        return min(self._series("size_reduction_pct"), default=0.0)

    @property
    def avg_size_reduction(self) -> float:
        series = self._series("size_reduction_pct")
        return sum(series) / len(series) if series else 0.0

    @property
    def max_size_reduction(self) -> float:
        return max(self._series("size_reduction_pct"), default=0.0)

    @property
    def avg_runtime_improvement(self) -> float:
        series = self._series("runtime_improvement_pct")
        return sum(series) / len(series) if series else 0.0

    def row(self) -> Dict[str, float]:
        return {
            "min": round(self.min_size_reduction, 2),
            "avg": round(self.avg_size_reduction, 2),
            "max": round(self.max_size_reduction, 2),
            "runtime": round(self.avg_runtime_improvement, 2),
        }


def measure(module: Module, target: str) -> Dict[str, float]:
    """Object size and MCA cycles of ``module`` for ``target`` (equal to
    ``object_size`` and ``estimate_throughput``), flattening each
    function once for both."""
    descriptor, model = get_target(target), get_port_model(target)
    views = flat_functions(module, descriptor, model)
    return {
        "size": size_of_views(module, descriptor, views).total_bytes,
        "cycles": summary_of_views(
            module, descriptor.name, model, views
        ).total_cycles,
    }


def optimize_with_oz(module: Module, target: str) -> Dict[str, float]:
    copy = module.clone()
    build_pipeline("Oz").run(copy)
    return measure(copy, target)


def evaluate_benchmark(
    name: str,
    module: Module,
    predict: Callable[[Module], Sequence[int]],
    apply_actions: Callable[[Module, Sequence[int]], Module],
    target: str = "x86-64",
) -> BenchmarkResult:
    """Compare agent-predicted ordering vs -Oz on one module."""
    oz = optimize_with_oz(module, target)
    actions = list(predict(module))
    optimized = apply_actions(module, actions)
    agent = measure(optimized, target)
    return BenchmarkResult(
        name=name,
        oz_size=int(oz["size"]),
        agent_size=int(agent["size"]),
        oz_cycles=oz["cycles"],
        agent_cycles=agent["cycles"],
        actions=actions,
    )


def evaluate_suite(
    suite_name: str,
    modules: Sequence[Tuple[str, Module]],
    predict: Callable[[Module], Sequence[int]],
    apply_actions: Callable[[Module, Sequence[int]], Module],
    target: str = "x86-64",
) -> SuiteSummary:
    """Evaluate every benchmark in a suite against ``-Oz``, in input order."""
    results = [
        evaluate_benchmark(
            name, module, predict=predict, apply_actions=apply_actions,
            target=target,
        )
        for name, module in modules
    ]
    return SuiteSummary(suite=suite_name, target=target, results=results)
