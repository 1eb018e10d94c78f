"""Flat struct-of-arrays IR core for the metric kernels.

The object IR (:mod:`repro.ir.module`) stays the source of truth and the
view the passes mutate. This module mirrors one *function* of it into a
:class:`FlatFunction`: numpy index arrays (opcode codes, type-kind codes,
operand-kind counts, block boundaries as offset arrays), the lowered
machine-op stream as per-block count matrices, dependence structure as
CSR adjacency, and the analysis results every metric consumer reads
(block frequencies, liveness spans, reaching-store flow edges). The
metric kernels — :func:`repro.codegen.objfile.flat_function_text_size`,
:func:`repro.mca.sched.flat_analyze_function` and
:meth:`repro.embeddings.ir2vec.IR2VecEncoder.flat_function_embedding` —
run as array code over these views instead of per-instruction Python
walks.

Views are transient. The metrics engine (:mod:`repro.core.metrics`)
builds one when its fingerprint-keyed record cache misses on a function,
runs the size, MCA and embedding kernels on it, keeps only their results
and drops the view; a module where one of N functions mutated therefore
re-flattens only that function's rows.

Every kernel is required to be **bit-identical** to the object-walking
path (the equivalence suites compare them with ``==``/``array_equal``).
The build therefore records not just *what* the object analyses compute
but the *order* the scalar loops combine floats in: flow edges keep
operand-then-reaching-store order per instruction, call edges keep
instruction order, and the consumers replicate the exact sequence of
IEEE-754 operations (see the kernel comments in the consumer modules).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .instructions import (
    Alloca,
    Branch,
    Call,
    Instruction,
    Load,
    Phi,
    Switch,
)
from .module import BasicBlock, Function
from .types import (
    ArrayType,
    FloatType,
    IntType,
    LabelType,
    PointerType,
    StructType,
    Type,
    VectorType,
)
from .values import Argument, Constant, GlobalValue, Value

#: Machine-op classes instruction selection emits, in canonical code order
#: (mirrors the table in :mod:`repro.codegen.target`).
MACHINE_OPS: Tuple[str, ...] = (
    "alu", "imul", "idiv", "lea", "load", "store",
    "fpalu", "fpmul", "fpdiv", "valu", "vfp", "vload", "vstore",
    "mov", "movimm", "branch", "call", "cmov", "ret", "trap",
)
_MOP_CODE: Dict[str, int] = {name: i for i, name in enumerate(MACHINE_OPS)}
N_MACHINE_OPS = len(MACHINE_OPS)

#: Operand-kind code order. This is also the canonical *accumulation
#: order* for IR2Vec seed embeddings: both the object fallback and the
#: flat kernel add operand-kind contributions in exactly this sequence,
#: which is what makes the two paths produce bit-identical floats.
OPERAND_KINDS: Tuple[str, ...] = (
    "constant", "argument", "instruction", "global", "block", "function",
)


def operand_kind_code(value: Value) -> int:
    """0..5 code for an operand, matching :data:`OPERAND_KINDS` order.

    The isinstance chain preserves the original classifier's precedence
    (a ``Function`` is a ``GlobalValue``; a ``BasicBlock`` is a plain
    ``Value``)."""
    if isinstance(value, Function):
        return 5
    if isinstance(value, BasicBlock):
        return 4
    if isinstance(value, GlobalValue):
        return 3
    if isinstance(value, Constant):
        return 0
    if isinstance(value, Argument):
        return 1
    return 2


def operand_kind_name(value: Value) -> str:
    return OPERAND_KINDS[operand_kind_code(value)]


def type_kind_name(ty: Type) -> str:
    """The IR2Vec type-kind bucket for a type."""
    if isinstance(ty, IntType):
        return f"int{ty.bits}"
    if isinstance(ty, FloatType):
        return "float" if ty.bits == 32 else "double"
    if isinstance(ty, PointerType):
        return "pointer"
    if isinstance(ty, ArrayType):
        return "array"
    if isinstance(ty, VectorType):
        return "vector"
    if isinstance(ty, StructType):
        return "struct"
    if isinstance(ty, LabelType):
        return "label"
    return "void"


class InternTable:
    """Append-only string → small-int interning (opcode/type-kind codes).

    Process-global: codes are stable for the process lifetime, so encoder
    gather matrices built against a table stay valid until it grows (the
    encoder re-stacks on a version bump — ``len(table)`` is the version).
    """

    __slots__ = ("names", "index")

    def __init__(self, seed: Tuple[str, ...] = ()):
        self.names: List[str] = list(seed)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.names)}

    def code(self, name: str) -> int:
        code = self.index.get(name)
        if code is None:
            code = len(self.names)
            self.names.append(name)
            self.index[name] = code
        return code

    def __len__(self) -> int:
        return len(self.names)


OPCODE_TABLE = InternTable()
TYPE_KIND_TABLE = InternTable()


# -- per-target lookup rows ---------------------------------------------------

_BYTE_ROWS: Dict[str, np.ndarray] = {}
_LAT_ROWS: Dict[str, np.ndarray] = {}
_TP_ROWS: Dict[str, np.ndarray] = {}


def byte_row(descriptor) -> np.ndarray:
    """Encoding bytes per machine-op class for one target (int64)."""
    row = _BYTE_ROWS.get(descriptor.name)
    if row is None:
        row = np.array(
            [descriptor.op_bytes[op] for op in MACHINE_OPS], dtype=np.int64
        )
        row.setflags(write=False)
        _BYTE_ROWS[descriptor.name] = row
    return row


def latency_row(model) -> np.ndarray:
    """Result latency per machine-op class for one port model (float64)."""
    row = _LAT_ROWS.get(model.name)
    if row is None:
        row = np.array(
            [float(model.latency_of(op)) for op in MACHINE_OPS]
        )
        row.setflags(write=False)
        _LAT_ROWS[model.name] = row
    return row


def throughput_row(model) -> np.ndarray:
    """Issue throughput per machine-op class (float64; 2.0 default as in
    :meth:`~repro.mca.ports.PortModel.pressure_of`)."""
    row = _TP_ROWS.get(model.name)
    if row is None:
        row = np.array(
            [float(model.throughput.get(op, 2.0)) for op in MACHINE_OPS]
        )
        row.setflags(write=False)
        _TP_ROWS[model.name] = row
    return row


class FlatFunction:
    """Struct-of-arrays view of one function, built for one target.

    Holds no reference to the object IR: every analysis the consumers
    need ran eagerly at build time.
    """

    __slots__ = (
        "name", "n_inst", "n_blocks",
        "block_names", "block_offsets",
        "opcodes", "type_kinds", "is_phi", "is_void",
        "kind_counts",
        "block_uops", "block_mop_counts", "fn_mop_counts",
        "inst_latency",
        "wave_insts", "wave_offsets", "wave_deps", "wave_dep_offsets",
        "rec_idx", "rec_offsets",
        "overheads", "freqs",
        "flow_dst", "flow_src", "round_offsets",
        "live_across", "max_pressure", "has_alloca",
        "call_edges",
    )


def build_flat_function(fn: Function, descriptor, model) -> FlatFunction:
    """Flatten one function definition for ``descriptor``/``model``.

    One pass over the instruction stream interns codes, counts operand
    kinds, lowers to machine ops and records dependence structure; the
    block-frequency, reaching-store and (vectorized) liveness analyses run
    once here so the per-measurement kernels are pure array code.
    """
    # Lazy imports: these modules import repro.ir themselves.
    from ..analysis.blockfreq import BlockFrequency
    from ..analysis.reaching import ReachingStores
    from ..codegen.isel import lower_instruction
    from ..mca.sched import COND_BRANCH_OVERHEAD

    blocks = fn.blocks
    n_blocks = len(blocks)
    insts: List[Instruction] = []
    index_of: Dict[int, int] = {}
    block_index: Dict[int, int] = {}
    block_offsets = np.empty(n_blocks + 1, np.int64)
    for bi, block in enumerate(blocks):
        block_index[id(block)] = bi
        block_offsets[bi] = len(insts)
        for inst in block.instructions:
            index_of[id(inst)] = len(insts)
            insts.append(inst)
    n_inst = len(insts)
    block_offsets[n_blocks] = n_inst

    opcodes = np.empty(n_inst, np.int32)
    type_kinds = np.empty(n_inst, np.int32)
    is_phi = np.zeros(n_inst, bool)
    is_void = np.zeros(n_inst, bool)
    kind_counts = np.zeros((n_inst, len(OPERAND_KINDS)))
    inst_latency = np.zeros(n_inst)
    block_mop_counts = np.zeros((n_blocks, N_MACHINE_OPS), np.int64)
    overheads = np.zeros(n_blocks)

    use_m = np.zeros((n_blocks, n_inst), bool)
    def_m = np.zeros((n_blocks, n_inst), bool)
    phi_use_m = np.zeros((n_blocks, n_inst), bool)
    succ_lists: List[List[int]] = []

    dep_lists: List[Optional[List[int]]] = [None] * n_inst
    rec_candidates: List[Tuple[int, int]] = []  # (block, source inst)
    call_edges: List[Tuple[str, float]] = []
    call_sites: List[Tuple[str, int]] = []
    has_alloca = False

    lat_vals = latency_row(model).tolist()
    opc_cache: Dict[str, int] = {}
    ty_cache: Dict[int, Tuple[Type, int, bool]] = {}

    i = 0
    for bi, block in enumerate(blocks):
        d_local: set = set()
        block_start = int(block_offsets[bi])
        for inst in block.instructions:
            opcode = inst.opcode
            code = opc_cache.get(opcode)
            if code is None:
                code = OPCODE_TABLE.code(opcode)
                opc_cache[opcode] = code
            opcodes[i] = code
            ty = inst.type
            entry = ty_cache.get(id(ty))
            if entry is None:
                entry = (ty, TYPE_KIND_TABLE.code(type_kind_name(ty)), ty.is_void)
                ty_cache[id(ty)] = entry
            type_kinds[i] = entry[1]
            void = entry[2]
            is_void[i] = void

            row = kind_counts[i]
            for op in inst.operands:
                row[operand_kind_code(op)] += 1.0

            mops = lower_instruction(inst, descriptor)
            phi = type(inst) is Phi
            if mops:
                brow = block_mop_counts[bi]
                lat = 0.0
                for m in mops:
                    mc = _MOP_CODE[m]
                    brow[mc] += 1
                    l = lat_vals[mc]
                    if l > lat:
                        lat = l
                if not phi:
                    # Phis resolve to predecessor-edge moves; the block
                    # scheduler treats their result as available at 0.0.
                    inst_latency[i] = lat

            if phi:
                is_phi[i] = True
                for value, pred in inst.incoming():
                    j = index_of.get(id(value))
                    if j is not None:
                        pbi = block_index.get(id(pred))
                        if pbi is not None:
                            phi_use_m[pbi, j] = True
                        if pred is block:
                            rec_candidates.append((bi, j))
                d_local.add(i)
            else:
                if type(inst) is Alloca:
                    has_alloca = True
                elif type(inst) is Call:
                    callee = inst.called_function
                    if callee is not None and not callee.is_intrinsic:
                        call_sites.append((callee.name, bi))
                deps: List[int] = []
                for op in inst.operands:
                    j = index_of.get(id(op))
                    if j is None:
                        continue
                    # Upward-exposed use: mirrors the scan-order `not in
                    # defs-so-far` test of the object Liveness analysis.
                    if j not in d_local:
                        use_m[bi, j] = True
                    # Same-block, already-scheduled, non-phi def: the only
                    # operands the block latency chain propagates through.
                    if block_start <= j < i and not is_phi[j]:
                        deps.append(j)
                dep_lists[i] = deps
                if not void:
                    d_local.add(i)
            i += 1

        for j in d_local:
            def_m[bi, j] = True
        term = block.terminator
        if isinstance(term, Branch) and term.is_conditional:
            overheads[bi] = COND_BRANCH_OVERHEAD
        elif isinstance(term, Switch):
            overheads[bi] = COND_BRANCH_OVERHEAD * max(1, term.num_cases)
        succ_lists.append(
            [block_index[id(s)] for s in block.successors()]
        )

    block_sizes = np.diff(block_offsets)
    block_of = np.repeat(np.arange(n_blocks, dtype=np.int64), block_sizes)

    # Loop-carried recurrence sources: same-block non-phi defs feeding a
    # phi of the block (other sources contribute 0.0 in the scalar loop).
    rec_lists: List[List[int]] = [[] for _ in range(n_blocks)]
    for bi, j in rec_candidates:
        if block_of[j] == bi and not is_phi[j]:
            rec_lists[bi].append(j)
    rec_offsets = np.zeros(n_blocks + 1, np.int64)
    for bi in range(n_blocks):
        rec_offsets[bi + 1] = rec_offsets[bi] + len(rec_lists[bi])
    rec_idx = np.array(
        [j for lst in rec_lists for j in lst], np.int64
    )

    block_uops = block_mop_counts.sum(axis=1)
    fn_mop_counts = block_mop_counts.sum(axis=0)

    # Wavefronts: position-within-block groups. All deps of an
    # instruction at position p sit at positions < p, so processing one
    # position across every block at a time finalizes finish times in
    # dependency order.
    pos = np.arange(n_inst, dtype=np.int64) - block_offsets[block_of]
    nonphi = np.nonzero(~is_phi)[0]
    if len(nonphi):
        wave_insts = nonphi[np.argsort(pos[nonphi], kind="stable")]
        wave_pos = pos[wave_insts]
        n_waves = int(wave_pos[-1]) + 1
        wave_offsets = np.searchsorted(wave_pos, np.arange(n_waves + 1))
    else:  # pragma: no cover - a definition always has a terminator
        wave_insts = nonphi
        wave_offsets = np.zeros(1, np.int64)
    wave_dep_offsets = np.empty(len(wave_insts) + 1, np.int64)
    wave_dep_offsets[0] = 0
    wave_dep_parts: List[int] = []
    for k, idx in enumerate(wave_insts.tolist()):
        deps = dep_lists[idx]
        if deps:
            wave_dep_parts.extend(deps)
            wave_dep_offsets[k + 1] = wave_dep_offsets[k] + len(deps)
        else:
            wave_dep_offsets[k + 1] = wave_dep_offsets[k]
    wave_deps = np.array(wave_dep_parts, np.int64)

    # Flow edges (IR2Vec level 1): per instruction, SSA-def operands in
    # operand order, then reaching stores for loads, in the order the
    # object analysis yields them — the scalar loop sums in exactly this
    # sequence. Edges are regrouped into "rounds" (k-th contribution of
    # every destination) so the kernel adds with plain fancy indexing —
    # destinations are unique within a round, and per-destination order
    # is preserved across rounds.
    reaching = ReachingStores(fn)
    flow_dst_l: List[int] = []
    flow_src_l: List[int] = []
    occ_l: List[int] = []
    for i, inst in enumerate(insts):
        k = 0
        for op in inst.operands:
            j = index_of.get(id(op))
            if j is not None:
                flow_dst_l.append(i)
                flow_src_l.append(j)
                occ_l.append(k)
                k += 1
        if type(inst) is Load:
            for store in reaching.stores_for(inst):
                j = index_of.get(id(store))
                if j is not None:
                    flow_dst_l.append(i)
                    flow_src_l.append(j)
                    occ_l.append(k)
                    k += 1
    if flow_dst_l:
        flow_dst = np.array(flow_dst_l, np.int64)
        flow_src = np.array(flow_src_l, np.int64)
        occ = np.array(occ_l, np.int64)
        order = np.argsort(occ, kind="stable")
        flow_dst = flow_dst[order]
        flow_src = flow_src[order]
        occ = occ[order]
        n_rounds = int(occ[-1]) + 1
        round_offsets = np.searchsorted(occ, np.arange(n_rounds + 1))
    else:
        flow_dst = np.empty(0, np.int64)
        flow_src = np.empty(0, np.int64)
        round_offsets = np.zeros(1, np.int64)

    # Vectorized liveness: the boolean-matrix fixpoint converges to the
    # same (unique, least) fixpoint as the object analysis' set version.
    live_in = np.zeros((n_blocks, n_inst), bool)
    live_out = np.zeros((n_blocks, n_inst), bool)
    changed = True
    while changed:
        changed = False
        for bi in range(n_blocks - 1, -1, -1):
            out = phi_use_m[bi].copy()
            for si in succ_lists[bi]:
                np.logical_or(out, live_in[si], out=out)
            new_in = use_m[bi] | (out & ~def_m[bi])
            if not np.array_equal(out, live_out[bi]) or not np.array_equal(
                new_in, live_in[bi]
            ):
                live_out[bi] = out
                live_in[bi] = new_in
                changed = True
    live_across = live_in.sum(axis=0, dtype=np.int64).astype(np.float64)
    max_pressure = (
        int(live_out.sum(axis=1).max()) if n_blocks else 0
    )

    freq = BlockFrequency(fn)
    freqs = np.array([freq.frequency(b) for b in blocks])
    for callee, bi in call_sites:
        call_edges.append((callee, float(freqs[bi])))

    ff = FlatFunction()
    ff.name = fn.name
    ff.n_inst = n_inst
    ff.n_blocks = n_blocks
    ff.block_names = [b.name for b in blocks]
    ff.block_offsets = block_offsets
    ff.opcodes = opcodes
    ff.type_kinds = type_kinds
    ff.is_phi = is_phi
    ff.is_void = is_void
    ff.kind_counts = kind_counts
    ff.block_uops = block_uops
    ff.block_mop_counts = block_mop_counts
    ff.fn_mop_counts = fn_mop_counts
    ff.inst_latency = inst_latency
    ff.wave_insts = wave_insts
    ff.wave_offsets = wave_offsets
    ff.wave_deps = wave_deps
    ff.wave_dep_offsets = wave_dep_offsets
    ff.rec_idx = rec_idx
    ff.rec_offsets = rec_offsets
    ff.overheads = overheads
    ff.freqs = freqs
    ff.flow_dst = flow_dst
    ff.flow_src = flow_src
    ff.round_offsets = round_offsets
    ff.live_across = live_across
    ff.max_pressure = max_pressure
    ff.has_alloca = has_alloca
    ff.call_edges = call_edges
    return ff
