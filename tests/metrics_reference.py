"""Object-walk reference for every measurement: the test oracle.

Production computes object size, MCA throughput and the IR2Vec embedding
with one implementation: flat kernels over :class:`~repro.ir.flat.FlatFunction`
views, run by the metrics engine and by the public ``object_size``,
``estimate_throughput``, ``program_embedding`` and
``core.evaluate.measure``. This module keeps the per-instruction walks of
the object IR those kernels replaced, on top of the object analyses in
:mod:`tests.analysis_reference`:

* size — :func:`bytes_for`, :func:`lower_block`/:func:`lower_function`
  and :func:`function_text_size`;
* MCA — :func:`pressure_of`, :func:`analyze_block`,
  :func:`analyze_function` and :func:`function_call_counts`
  (:func:`block_reports` pairs a block's reference report with the
  production one);
* embedding — :class:`ReferenceEncoder` (``seed_instruction``,
  ``function_instruction_embeddings``, ``function_embedding``) and the
  module-level :func:`function_embedding`.

:func:`reference_measure` combines them with the same module-level steps
production uses; the equivalence suites compare with ``==`` and
``array_equal``. A :func:`reference_replay` clones the module and applies
each action with ``ActionSpace.apply`` — no fingerprint cache, no
transition cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codegen.isel import lower_instruction
from repro.codegen.objfile import (
    FunctionSizeReport,
    SizeReport,
    _align,
    _size_from_functions,
)
from repro.codegen.target import TargetDescriptor, get_target
from repro.core.environment import ActionSpace, make_action_space
from repro.core.rewards import RewardWeights, combined_reward
from repro.embeddings.ir2vec import (
    W_FLOW,
    W_LIVE,
    W_OPCODE,
    W_TYPE,
    IR2VecEncoder,
    _embedding_from_functions,
    _weighted_reduce,
)
from repro.ir.fingerprint import module_fingerprint
from repro.ir.flat import OPERAND_KINDS, operand_kind_code, type_kind_name
from repro.ir.instructions import Alloca, Branch, Call, Instruction, Load, Phi, Switch
from repro.ir.module import BasicBlock, Function, Module
from repro.mca.ports import PortModel, get_port_model
from repro.mca.sched import (
    COND_BRANCH_OVERHEAD,
    BlockReport,
    FunctionReport,
    McaSummary,
    _summary_from_functions,
    estimate_throughput,
)
from tests.analysis_reference import BlockFrequency, Liveness, ReachingStores


# -- size -----------------------------------------------------------------


def bytes_for(target: TargetDescriptor, op: str) -> int:
    """Encoding bytes of one machine op on ``target``."""
    return target.op_bytes[op]


def lower_block(block: BasicBlock, target: TargetDescriptor) -> List[str]:
    ops: List[str] = []
    for inst in block.instructions:
        ops.extend(lower_instruction(inst, target))
    return ops


def lower_function(fn: Function, target: TargetDescriptor) -> Dict[int, List[str]]:
    """Machine ops per block (keyed by id(block))."""
    return {id(b): lower_block(b, target) for b in fn.blocks}


def function_text_size(fn: Function, target: TargetDescriptor) -> FunctionSizeReport:
    ops_by_block = lower_function(fn, target)
    body = 0
    op_count = 0
    for ops in ops_by_block.values():
        op_count += len(ops)
        for op in ops:
            body += bytes_for(target, op)

    text = target.prologue_bytes + body + target.epilogue_bytes
    if any(isinstance(i, Alloca) for i in fn.instructions()):
        text += target.frame_setup_bytes

    # Register-pressure spill model: every live value beyond the register
    # file costs a spill/reload pair somewhere.
    pressure = Liveness(fn).max_pressure()
    spills = max(0, pressure - target.num_gp_registers)
    text += spills * target.spill_bytes

    return FunctionSizeReport(
        name=fn.name,
        text_bytes=_align(text, target.function_alignment),
        machine_ops=op_count,
        spill_pairs=spills,
    )


# -- MCA ------------------------------------------------------------------


def pressure_of(model: PortModel, op_counts: Dict[str, int]) -> float:
    """Cycles implied by the most contended port group (a class the
    model does not list issues 2.0 per cycle)."""
    worst = 0.0
    for op, count in op_counts.items():
        tp = model.throughput.get(op, 2.0)
        worst = max(worst, count / tp)
    return worst


def _instruction_latency(
    inst: Instruction, ops: List[str], model: PortModel
) -> float:
    if not ops:
        return 0.0
    # The instruction's result latency is its longest component op.
    return max(model.latency_of(op) for op in ops)


def analyze_block(
    block: BasicBlock,
    target: TargetDescriptor,
    model: PortModel,
    frequency: float = 1.0,
) -> BlockReport:
    op_counts: Dict[str, int] = {}
    uops = 0
    finish: Dict[int, float] = {}
    critical = 0.0
    recurrence = 0.0

    lowered: Dict[int, List[str]] = {}
    for inst in block.instructions:
        ops = lower_instruction(inst, target)
        lowered[id(inst)] = ops
        uops += len(ops)
        for op in ops:
            op_counts[op] = op_counts.get(op, 0) + 1

    for inst in block.instructions:
        if isinstance(inst, Phi):
            finish[id(inst)] = 0.0
            continue
        ready = 0.0
        for op in inst.operands:
            if isinstance(op, Instruction) and id(op) in finish:
                ready = max(ready, finish[id(op)])
        lat = _instruction_latency(inst, lowered[id(inst)], model)
        done = ready + lat
        finish[id(inst)] = done
        critical = max(critical, done)

    # Loop-carried recurrence: value feeding a phi of this block from this
    # block (single-block loop bodies) bounds iteration throughput.
    for phi in block.phis():
        for value, pred in phi.incoming():
            if pred is block and isinstance(value, Instruction):
                recurrence = max(recurrence, finish.get(id(value), 0.0))

    term = block.terminator
    overhead = 0.0
    if isinstance(term, Branch) and term.is_conditional:
        overhead = COND_BRANCH_OVERHEAD
    elif isinstance(term, Switch):
        overhead = COND_BRANCH_OVERHEAD * max(1, term.num_cases)

    return BlockReport(
        name=block.name,
        uops=uops,
        dispatch_bound=uops / model.dispatch_width,
        resource_bound=pressure_of(model, op_counts),
        latency_bound=max(critical / 4.0, recurrence),
        frequency=frequency,
        branch_overhead=overhead,
    )


def analyze_function(
    fn: Function, target: TargetDescriptor, model: PortModel
) -> FunctionReport:
    freq = BlockFrequency(fn)
    blocks = [
        analyze_block(b, target, model, freq.frequency(b)) for b in fn.blocks
    ]
    cycles = sum(b.cycles * b.frequency for b in blocks)
    uops = sum(b.uops * b.frequency for b in blocks)
    return FunctionReport(fn.name, cycles, uops, blocks)


def block_reports(
    module: Module, name: str, target: str = "x86-64"
) -> Tuple[BlockReport, BlockReport]:
    """The report of block ``name`` of ``@entry``: :func:`analyze_block`'s
    and the production ``estimate_throughput``'s (whose ``frequency``
    field is the block's frequency rather than 1.0)."""
    fn = module.get_function("entry")
    block = next(b for b in fn.blocks if b.name == name)
    summary = estimate_throughput(module, target)
    flat = next(
        b for f in summary.functions if f.name == "entry"
        for b in f.blocks if b.name == name
    )
    return (
        analyze_block(block, get_target(target), get_port_model(target)),
        flat,
    )


def function_call_counts(fn: Function) -> Dict[str, float]:
    """Frequency-weighted direct-call counts out of one function."""
    freq = BlockFrequency(fn)
    counts: Dict[str, float] = {}
    for inst in fn.instructions():
        if isinstance(inst, Call):
            callee = inst.called_function
            if callee is None or callee.is_intrinsic:
                continue
            f = freq.frequency(inst.parent) if inst.parent else 1.0
            counts[callee.name] = counts.get(callee.name, 0.0) + f
    return counts


# -- embedding --------------------------------------------------------------


class ReferenceEncoder(IR2VecEncoder):
    """The IR2Vec levels as per-instruction walks of the object IR."""

    def __init__(self, vocabulary=None):
        super().__init__(vocabulary)
        self._opcode_vecs: Dict[str, np.ndarray] = {}
        self._ty_vecs: Dict[str, np.ndarray] = {}

    # -- level 0: seed (syntactic) embeddings ------------------------------
    def seed_instruction(self, inst: Instruction) -> np.ndarray:
        """Seed = Wo·opcode + Wt·type + Wa·(operand-kind counts).

        Operand contributions add in canonical
        :data:`~repro.ir.flat.OPERAND_KINDS` order (counted, not
        per-operand), the order the flat gather kernel uses."""
        opv = self._opcode_vecs.get(inst.opcode)
        if opv is None:
            opv = W_OPCODE * self.vocab.opcode(inst.opcode)
            opv.setflags(write=False)
            self._opcode_vecs[inst.opcode] = opv
        vec = opv.copy()
        kind = type_kind_name(inst.type)
        tyv = self._ty_vecs.get(kind)
        if tyv is None:
            tyv = W_TYPE * self.vocab.type_kind(kind)
            tyv.setflags(write=False)
            self._ty_vecs[kind] = tyv
        vec += tyv
        counts = [0.0] * len(OPERAND_KINDS)
        for op in inst.operands:
            counts[operand_kind_code(op)] += 1.0
        for k, kv in enumerate(self._kind_vecs):
            vec += counts[k] * kv
        return vec

    # -- level 1: flow-aware instruction embeddings --------------------------
    def function_instruction_embeddings(
        self, fn: Function
    ) -> Dict[int, np.ndarray]:
        seeds: Dict[int, np.ndarray] = {}
        for inst in fn.instructions():
            seeds[id(inst)] = self.seed_instruction(inst)

        reaching = ReachingStores(fn)
        flowed: Dict[int, np.ndarray] = {}
        for inst in fn.instructions():
            vec = seeds[id(inst)].copy()
            # Use-def flow: embeddings of SSA defs this instruction reads.
            for op in inst.operands:
                if isinstance(op, Instruction) and id(op) in seeds:
                    vec += W_FLOW * seeds[id(op)]
            # Memory flow: stores that may reach a load.
            if isinstance(inst, Load):
                for store in reaching.stores_for(inst):
                    if id(store) in seeds:
                        vec += W_FLOW * seeds[id(store)]
            flowed[id(inst)] = vec
        return flowed

    # -- level 2: function embeddings ---------------------------------------
    def function_embedding(self, fn: Function) -> np.ndarray:
        """Embedding of one function (zeros for a declaration)."""
        if fn.is_declaration:
            return np.zeros(self.dimension)
        flowed = self.function_instruction_embeddings(fn)
        liveness = Liveness(fn)
        insts = [inst for block in fn.blocks for inst in block.instructions]
        if not insts:
            return np.zeros(self.dimension)
        rows = np.stack([flowed[id(inst)] for inst in insts])
        weights = np.empty(len(insts))
        for i, inst in enumerate(insts):
            weight = 1.0
            if not inst.type.is_void:
                weight += W_LIVE * liveness.live_across_blocks(inst)
            weights[i] = weight
        return _weighted_reduce(rows, weights)


_ENCODER = ReferenceEncoder()


def function_embedding(fn: Function) -> np.ndarray:
    return _ENCODER.function_embedding(fn)


# -- module measurements -------------------------------------------------------


def reference_measure(
    module: Module, target: str = "x86-64"
) -> Tuple[SizeReport, McaSummary, np.ndarray]:
    """Size report, MCA summary and state embedding via the object walks."""
    descriptor = get_target(target)
    model = get_port_model(target)
    defined = [fn for fn in module.functions if not fn.is_declaration]
    size = _size_from_functions(
        module, descriptor, [function_text_size(fn, descriptor) for fn in defined]
    )
    mca = _summary_from_functions(module, descriptor.name, {
        fn.name: (analyze_function(fn, descriptor, model),
                  function_call_counts(fn))
        for fn in defined
    })
    embedding = _embedding_from_functions(
        _ENCODER.dimension, [_ENCODER.function_embedding(fn) for fn in defined]
    )
    return size, mca, embedding


@dataclass
class ReferenceStep:
    bin_size: int
    throughput: float
    changed: bool
    reward: float
    state: np.ndarray


@dataclass
class ReferenceReplay:
    base_size: int
    base_throughput: float
    base_state: np.ndarray
    steps: List[ReferenceStep]


def reference_replay(
    module: Module,
    actions: Sequence[int],
    action_space: Optional[ActionSpace] = None,
    target: str = "x86-64",
    weights: Optional[RewardWeights] = None,
) -> ReferenceReplay:
    """Apply ``actions`` one by one to a clone of ``module``, measuring
    after every step. ``changed`` is the structural test the environment
    uses (module fingerprint before vs after)."""
    action_space = action_space or make_action_space("odg")
    weights = weights if weights is not None else RewardWeights()
    current = module.clone()
    size, mca, state = reference_measure(current, target)
    base_size, base_tp = size.total_bytes, mca.throughput
    replay = ReferenceReplay(base_size, base_tp, state, [])
    last_size, last_tp = base_size, base_tp
    fingerprint = module_fingerprint(current)
    for action in actions:
        action_space.apply(action, current)
        after = module_fingerprint(current)
        size, mca, state = reference_measure(current, target)
        new_size, new_tp = size.total_bytes, mca.throughput
        reward = combined_reward(
            last_size, new_size, base_size, last_tp, new_tp, base_tp, weights
        )
        replay.steps.append(ReferenceStep(
            new_size, new_tp, after != fingerprint, reward, state
        ))
        last_size, last_tp, fingerprint = new_size, new_tp, after
    return replay
