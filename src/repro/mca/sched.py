"""Static block scheduling: cycles-per-execution estimates.

For each basic block three bounds are computed, exactly the quantities
llvm-mca's summary is driven by:

* dispatch bound — uops / dispatch width;
* resource bound — the most contended port group;
* latency bound — the critical dependence path through the block,
  including the loop-carried recurrence through header phis.

The block estimate is their maximum. Function/module totals weight block
estimates with static block frequencies (loop depth and branch hints).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..codegen.target import get_target
from ..ir.flat import FlatFunction, flat_functions, throughput_row
from ..ir.module import Module
from .ports import PortModel, get_port_model

#: Amortized misprediction cost per conditional-control transfer. This is
#: what makes flattening (if-conversion, unswitching) profitable in the
#: model, as it is on hardware.
COND_BRANCH_OVERHEAD = 2.0


@dataclass
class BlockReport:
    name: str
    uops: int
    dispatch_bound: float
    resource_bound: float
    latency_bound: float
    frequency: float
    branch_overhead: float = 0.0

    @property
    def cycles(self) -> float:
        bound = max(
            self.dispatch_bound, self.resource_bound, self.latency_bound, 0.25
        )
        return bound + self.branch_overhead


@dataclass
class FunctionReport:
    name: str
    cycles_per_invocation: float
    uops_per_invocation: float
    blocks: List[BlockReport] = field(default_factory=list)


def flat_analyze_function(ff: FlatFunction, model: PortModel) -> FunctionReport:
    """Per-block MCA bounds of one function from its flat view, and its
    frequency-weighted cycles and uops per invocation.

    The resource bound is one row reduction over the per-block machine-op
    counts. The latency chain walks the non-phi instructions in wavefront
    order (by position within their block, so every dependence is
    finished first) over plain Python floats: the same division (not
    reciprocal-multiply) and max-fold over the same operands as a
    per-instruction walk of each block, and the frequency-weighted totals
    are Python's left-fold ``sum`` over the per-block products (the order
    the object-walk reference in the test suite folds them in).
    """
    n_blocks = ff.n_blocks
    resource = (
        (ff.block_mop_counts / throughput_row(model)).max(axis=1).tolist()
        if n_blocks
        else []
    )

    finish = [0.0] * ff.n_inst  # phis stay at 0.0
    lat = ff.inst_latency.tolist()
    deps = ff.wave_deps.tolist()
    dep_off = ff.wave_dep_offsets.tolist()
    for k, i in enumerate(ff.wave_insts.tolist()):
        ready = 0.0
        for j in deps[dep_off[k] : dep_off[k + 1]]:
            if finish[j] > ready:
                ready = finish[j]
        finish[i] = ready + lat[i]

    offsets = ff.block_offsets.tolist()
    rec_idx = ff.rec_idx.tolist()
    rec_off = ff.rec_offsets.tolist()
    block_uops = ff.block_uops.tolist()
    freqs = ff.freqs.tolist()
    overheads = ff.overheads.tolist()
    width = model.dispatch_width
    blocks: List[BlockReport] = []
    cycle_terms: List[float] = []
    uop_terms: List[float] = []
    for bi in range(n_blocks):
        # The latency bound models the loop-carried recurrence (a value
        # this block feeds back into one of its own phis), the quantity
        # that limits iteration throughput; for straight-line code,
        # out-of-order execution hides in-block chains, and a quarter of
        # the critical path stands in for imperfect overlap.
        critical = max(finish[offsets[bi] : offsets[bi + 1]], default=0.0)
        recurrence = max(
            [finish[j] for j in rec_idx[rec_off[bi] : rec_off[bi + 1]]],
            default=0.0,
        )
        report = BlockReport(
            name=ff.block_names[bi],
            uops=block_uops[bi],
            dispatch_bound=block_uops[bi] / width,
            resource_bound=resource[bi],
            latency_bound=max(critical / 4.0, recurrence),
            frequency=freqs[bi],
            branch_overhead=overheads[bi],
        )
        blocks.append(report)
        cycle_terms.append(report.cycles * freqs[bi])
        uop_terms.append(block_uops[bi] * freqs[bi])
    return FunctionReport(
        ff.name, float(sum(cycle_terms)), float(sum(uop_terms)), blocks
    )


def flat_call_counts(ff: FlatFunction) -> Dict[str, float]:
    """Frequency-weighted direct-call counts out of one function, from
    the flat view's call edges (instruction order, left-fold sums)."""
    counts: Dict[str, float] = {}
    for callee, f in ff.call_edges:
        counts[callee] = counts.get(callee, 0.0) + f
    return counts


#: Cycle cost charged for calling an unknown external function.
EXTERNAL_CALL_CYCLES = 20.0
#: Frequency cap to keep recursive call graphs bounded.
MAX_CALL_FREQ = 1e6


@dataclass
class McaSummary:
    """Whole-module static performance estimate."""

    target: str
    total_cycles: float
    total_uops: float
    functions: List[FunctionReport]

    @property
    def ipc(self) -> float:
        return self.total_uops / self.total_cycles if self.total_cycles else 0.0

    @property
    def throughput(self) -> float:
        """The runtime proxy used by the POSET-RL reward: simulated program
        executions per 1e9 cycles. Monotonically higher = faster."""
        return 1e9 / max(self.total_cycles, 1e-9)


def estimate_throughput(module: Module, target="x86-64") -> McaSummary:
    """LLVM-MCA stand-in: static cycles/throughput for the whole module."""
    if isinstance(target, str):
        descriptor = get_target(target)
        model = get_port_model(target)
    else:  # pragma: no cover - convenience
        descriptor = target
        model = get_port_model(target.name)
    views = flat_functions(module, descriptor, model)
    return summary_of_views(module, descriptor.name, model, views)


def summary_of_views(
    module: Module,
    target_name: str,
    model: PortModel,
    views: List[FlatFunction],
) -> McaSummary:
    """:func:`estimate_throughput` from the flat views of ``module``'s
    defined functions (:func:`~repro.ir.flat.flat_functions`)."""
    return _summary_from_functions(module, target_name, {
        ff.name: (flat_analyze_function(ff, model), flat_call_counts(ff))
        for ff in views
    })


def _summary_from_functions(
    module: Module,
    target_name: str,
    per_fn: Dict[str, Tuple[FunctionReport, Dict[str, float]]],
) -> McaSummary:
    """Combine per-function ``(report, outgoing call counts)`` entries
    (keyed by name, in module order) into the module summary: the
    invocation fixed point plus the external-call charge."""
    # Invocation frequencies: externally visible functions are entry points
    # invoked once; internal functions accumulate caller frequency.
    # Iterate a few rounds to settle call chains (cap guards recursion).
    base_invocations: Dict[str, float] = {
        name: (0.0 if module.get_function(name).is_internal else 1.0)  # type: ignore[union-attr]
        for name in per_fn
    }
    invocations = dict(base_invocations)
    for _ in range(8):
        fresh = dict(base_invocations)
        for caller, (_, counts) in per_fn.items():
            caller_freq = invocations.get(caller, 0.0)
            for callee, count in counts.items():
                if callee in fresh:
                    fresh[callee] = min(
                        fresh[callee] + caller_freq * count, MAX_CALL_FREQ
                    )
        if all(
            abs(fresh[name] - invocations[name]) <= 1e-6 for name in fresh
        ):
            invocations = fresh
            break
        invocations = fresh

    total_cycles = 0.0
    total_uops = 0.0
    for name, (report, _) in per_fn.items():
        weight = max(invocations.get(name, 0.0), 0.0)
        if weight == 0.0:
            continue
        total_cycles += weight * report.cycles_per_invocation
        total_uops += weight * report.uops_per_invocation

    # Unknown externals: charge a flat call-out cost.
    for fn in module.functions:
        if fn.is_declaration and not fn.is_intrinsic and fn.has_uses:
            total_cycles += EXTERNAL_CALL_CYCLES

    total_cycles = max(total_cycles, 1.0)
    return McaSummary(
        target=target_name,
        total_cycles=total_cycles,
        total_uops=total_uops,
        functions=[report for report, _ in per_fn.values()],
    )
