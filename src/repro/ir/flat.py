"""Flat struct-of-arrays IR core: the one implementation of the metrics.

The object IR (:mod:`repro.ir.module`) stays the source of truth and the
view the passes mutate. This module mirrors one *function* of it into a
:class:`FlatFunction`: numpy index arrays (opcode codes, type-kind codes,
operand-kind counts, block boundaries as offset arrays), the lowered
machine-op stream as per-block count matrices, dependence structure as
CSR adjacency, and the analysis results every metric consumer reads
(block frequencies, liveness spans, reaching-store flow edges). The
build walks the IR once, and computes those analyses on the function's
index CFG (:func:`repro.analysis.cfg.index_cfg`, cached per CFG shape
and shared with the passes). The metric kernels —
:func:`repro.codegen.objfile.flat_function_text_size`,
:func:`repro.mca.sched.flat_analyze_function` and
:meth:`repro.embeddings.ir2vec.IR2VecEncoder.flat_function_embedding` —
run over these views, and they are the only production implementation
of object size, MCA throughput and the IR2Vec embedding.

Views are transient. The metrics engine (:mod:`repro.core.metrics`)
builds one when its fingerprint-keyed record cache misses on a function,
runs the size, MCA and embedding kernels on it, keeps only their results
and drops the view; a module where one of N functions mutated therefore
re-flattens only that function's rows. The uncached public measurements
(``object_size``, ``estimate_throughput``, ``program_embedding``,
``core.evaluate.measure``) build the views of a module with
:func:`flat_functions` and combine the same kernels' results.

The test suite keeps the per-instruction object walks the kernels
replaced (``tests/metrics_reference.py``, ``tests/analysis_reference.py``)
as the oracle, and compares with ``==``/``array_equal``. The build
therefore records not just *what* those analyses compute but the *order*
they combine floats in: flow edges keep operand-then-reaching-store
order per instruction, call edges keep instruction order, and the
consumers replicate the exact sequence of IEEE-754 operations (see the
kernel comments in the consumer modules).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .instructions import (
    Alloca,
    Branch,
    Call,
    Load,
    Phi,
    Store,
    Switch,
)
from .module import BasicBlock, Function, Module
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
#: order* for IR2Vec seed embeddings: the flat kernel (and the test
#: suite's object-walk reference) add operand-kind contributions in
#: exactly this sequence.
OPERAND_KINDS: Tuple[str, ...] = (
    "constant", "argument", "instruction", "global", "block", "function",
)

#: Assumed iterations for loops of unknown trip count (matches LLVM's
#: BlockFrequencyInfo default heuristics closely enough for ranking).
DEFAULT_TRIP_COUNT = 10.0


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
    """Issue throughput per machine-op class (float64; a class the model
    does not list issues 2.0 per cycle)."""
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
        "wave_insts", "wave_deps", "wave_dep_offsets",
        "rec_idx", "rec_offsets",
        "overheads", "freqs",
        "flow_dst", "flow_src", "round_offsets",
        "live_across", "max_pressure", "has_alloca",
        "call_edges",
    )


def build_flat_function(fn: Function, descriptor, model) -> FlatFunction:
    """Flatten one function definition for ``descriptor``/``model``.

    One walk over the instruction stream interns codes, counts operand
    kinds, lowers to machine ops and records dependence structure, flow
    edges and per-block liveness and memory summaries — all into Python
    lists and ints, converted to numpy once at the end. Block
    frequencies, liveness and reaching stores then run on the cached
    index CFG (:func:`_block_frequencies`, :func:`_liveness`,
    :func:`_reaching_stores`), so the kernels never touch the object IR.
    """
    # Lazy imports: these modules import repro.ir themselves.
    from ..analysis.cfg import index_cfg
    from ..codegen.isel import lower_instruction
    from ..mca.sched import COND_BRANCH_OVERHEAD

    cfg = index_cfg(fn)
    blocks = cfg.blocks
    block_index = cfg.index
    succs = cfg.succs
    n_blocks = len(blocks)
    index_of: Dict[int, int] = {}
    offsets = [0]
    for block in blocks:
        for inst in block.instructions:
            index_of[id(inst)] = len(index_of)
        offsets.append(len(index_of))
    n_inst = len(index_of)

    opcodes: List[int] = []
    type_kinds: List[int] = []
    is_phi: List[bool] = []
    is_void: List[bool] = []
    local_def: List[bool] = []  # phi or non-void: a def the block sees
    inst_latency = [0.0] * n_inst
    kind_cells: List[int] = []  # i * 6 + operand kind, one per operand
    mop_cells: List[int] = []  # block * N_MACHINE_OPS + op code, one per op
    # Flow edges (IR2Vec level 1): destination, source, and the edge's
    # ordinal among its destination's edges.
    flow_dst: List[int] = []
    flow_src: List[int] = []
    flow_occ: List[int] = []
    # Non-phi instructions grouped by position within their block, with
    # their same-block latency dependences.
    waves: List[List[int]] = []
    wave_dep_lists: List[List[Sequence[int]]] = []
    rec_candidates: List[Tuple[int, int]] = []  # (block, phi source)
    probs: List[List[float]] = []
    overheads = [0.0] * n_blocks
    use_bits = [0] * n_blocks
    def_bits = [0] * n_blocks
    phi_bits = [0] * n_blocks
    # Memory events per block for reaching stores, in instruction order:
    # ``(store ordinal, None, 0)`` or ``(load index, load, number of its
    # operand flow edges)``.
    mem_events: List[List[Tuple[int, Optional[Load], int]]] = []
    store_insts: List[int] = []
    store_ptrs: List[Value] = []
    n_loads = 0
    call_sites: List[Tuple[str, int]] = []
    has_alloca = False

    lat_vals = latency_row(model).tolist()
    opc_cache: Dict[str, int] = {}
    ty_cache: Dict[int, Tuple[Type, int, bool]] = {}
    kind_cache: Dict[type, int] = {}  # operand class -> kind code

    i = 0
    for bi, block in enumerate(blocks):
        start = i
        use = 0
        defs = 0
        events: List[Tuple[int, Optional[Load], int]] = []
        for inst in block.instructions:
            cls = type(inst)
            opcode = inst.opcode
            code = opc_cache.get(opcode)
            if code is None:
                code = opc_cache[opcode] = OPCODE_TABLE.code(opcode)
            opcodes.append(code)
            ty = inst.type
            entry = ty_cache.get(id(ty))
            if entry is None:
                entry = (ty, TYPE_KIND_TABLE.code(type_kind_name(ty)), ty.is_void)
                ty_cache[id(ty)] = entry
            type_kinds.append(entry[1])
            void = entry[2]
            is_void.append(void)
            phi = cls is Phi
            is_phi.append(phi)
            local_def.append(phi or not void)

            # ``_operands`` is the operand list the ``operands`` property
            # copies; the walk only reads it.
            ops = inst._operands
            base = i * 6
            occ = 0
            deps: Sequence[int] = ()  # a list once the first dep shows up
            for op in ops:
                kind = kind_cache.get(type(op))
                if kind is None:
                    kind = kind_cache[type(op)] = operand_kind_code(op)
                kind_cells.append(base + kind)
                if kind != 2:
                    continue
                j = index_of.get(id(op))
                if j is None:
                    continue
                flow_dst.append(i)
                flow_src.append(j)
                flow_occ.append(occ)
                occ += 1
                if phi:
                    continue
                if start <= j < i:
                    # A def earlier in the block: not upward-exposed, and
                    # the block latency chain runs through it unless it
                    # is a phi (available at 0.0).
                    if not local_def[j]:
                        use |= 1 << j
                    if not is_phi[j]:
                        if deps:
                            deps.append(j)
                        else:
                            deps = [j]
                else:
                    use |= 1 << j

            mops = lower_instruction(inst, descriptor)
            if mops:
                cell = bi * N_MACHINE_OPS
                lat = 0.0
                for m in mops:
                    mc = _MOP_CODE[m]
                    mop_cells.append(cell + mc)
                    l = lat_vals[mc]
                    if l > lat:
                        lat = l
                if not phi:
                    # Phis resolve to predecessor-edge moves; the block
                    # scheduler treats their result as available at 0.0.
                    inst_latency[i] = lat

            if phi:
                for p in range(0, len(ops) - 1, 2):
                    j = index_of.get(id(ops[p]))
                    if j is None:
                        continue
                    pred = ops[p + 1]
                    pbi = block_index.get(id(pred))
                    if pbi is not None:
                        phi_bits[pbi] |= 1 << j
                    if pred is block:
                        rec_candidates.append((bi, j))
                defs |= 1 << i
            else:
                pos = i - start
                while len(waves) <= pos:
                    waves.append([])
                    wave_dep_lists.append([])
                waves[pos].append(i)
                wave_dep_lists[pos].append(deps)
                if cls is Load:
                    events.append((i, inst, occ))
                    n_loads += 1
                elif cls is Store:
                    events.append((len(store_insts), None, 0))
                    store_insts.append(i)
                    store_ptrs.append(ops[1])
                elif cls is Alloca:
                    has_alloca = True
                elif cls is Call:
                    callee = inst.called_function
                    if callee is not None and not callee.is_intrinsic:
                        call_sites.append((callee.name, bi))
                if not void:
                    defs |= 1 << i
            i += 1

        use_bits[bi] = use
        def_bits[bi] = defs
        mem_events.append(events)
        succ = succs[bi]
        term = block.terminator
        if isinstance(term, Branch) and term.is_conditional:
            overheads[bi] = COND_BRANCH_OVERHEAD
            weights = term.meta.get("branch_weights")
            if isinstance(weights, (list, tuple)) and len(weights) == 2:
                total = float(weights[0] + weights[1]) or 1.0
                probs.append([float(w) / total for w in weights])
            else:
                probs.append([0.5, 0.5])
        else:
            if isinstance(term, Switch):
                overheads[bi] = COND_BRANCH_OVERHEAD * max(1, term.num_cases)
            probs.append([1.0 / len(succ)] * len(succ) if succ else [])

    if n_loads and store_insts:
        _reaching_stores(
            mem_events, cfg.preds, store_insts, store_ptrs,
            flow_dst, flow_src, flow_occ,
        )
    live_across, max_pressure = _liveness(
        succs, use_bits, def_bits, phi_bits, n_inst
    )
    freqs = _block_frequencies(cfg, probs)

    block_mop_counts = np.bincount(
        np.array(mop_cells, np.int64), minlength=n_blocks * N_MACHINE_OPS
    ).reshape(n_blocks, N_MACHINE_OPS)
    wave_insts = [j for wave in waves for j in wave]
    wave_dep_offsets = [0]
    wave_deps: List[int] = []
    for dep_lists in wave_dep_lists:
        for deps in dep_lists:
            wave_deps.extend(deps)
            wave_dep_offsets.append(len(wave_deps))
    # Loop-carried recurrence sources: same-block non-phi defs feeding a
    # phi of the block (other sources contribute 0.0 in the scalar loop).
    rec_lists: List[List[int]] = [[] for _ in range(n_blocks)]
    for bi, j in rec_candidates:
        if offsets[bi] <= j < offsets[bi + 1] and not is_phi[j]:
            rec_lists[bi].append(j)
    rec_offsets = [0]
    for lst in rec_lists:
        rec_offsets.append(rec_offsets[-1] + len(lst))

    ff = FlatFunction()
    ff.name = fn.name
    ff.n_inst = n_inst
    ff.n_blocks = n_blocks
    ff.block_names = [b.name for b in blocks]
    ff.block_offsets = np.array(offsets, np.int64)
    ff.opcodes = np.array(opcodes, np.int32)
    ff.type_kinds = np.array(type_kinds, np.int32)
    ff.is_phi = np.array(is_phi, bool)
    ff.is_void = np.array(is_void, bool)
    ff.kind_counts = np.bincount(
        np.array(kind_cells, np.int64), minlength=n_inst * len(OPERAND_KINDS)
    ).reshape(n_inst, len(OPERAND_KINDS)).astype(np.float64)
    ff.block_uops = block_mop_counts.sum(axis=1)
    ff.block_mop_counts = block_mop_counts
    ff.fn_mop_counts = block_mop_counts.sum(axis=0)
    ff.inst_latency = np.array(inst_latency, np.float64)
    ff.wave_insts = np.array(wave_insts, np.int64)
    ff.wave_deps = np.array(wave_deps, np.int64)
    ff.wave_dep_offsets = np.array(wave_dep_offsets, np.int64)
    ff.rec_idx = np.array(
        [j for lst in rec_lists for j in lst], np.int64
    )
    ff.rec_offsets = np.array(rec_offsets, np.int64)
    ff.overheads = np.array(overheads, np.float64)
    ff.freqs = np.array(freqs, np.float64)
    # Flow edges regrouped into "rounds" (the k-th contribution of every
    # destination) so the embedding kernel adds with plain fancy
    # indexing: destinations are unique within a round, in instruction
    # order, and a destination's contributions keep their operand-then-
    # reaching-store order across rounds — the scalar loop's sequence.
    if flow_dst:
        dst = np.array(flow_dst, np.int64)
        occ = np.array(flow_occ, np.int64)
        order = np.lexsort((dst, occ))
        occ = occ[order]
        ff.flow_dst = dst[order]
        ff.flow_src = np.array(flow_src, np.int64)[order]
        ff.round_offsets = np.searchsorted(occ, np.arange(int(occ[-1]) + 2))
    else:
        ff.flow_dst = np.empty(0, np.int64)
        ff.flow_src = np.empty(0, np.int64)
        ff.round_offsets = np.zeros(1, np.int64)
    ff.live_across = live_across
    ff.max_pressure = max_pressure
    ff.has_alloca = has_alloca
    ff.call_edges = [(callee, freqs[bi]) for callee, bi in call_sites]
    return ff


def flat_functions(module: Module, descriptor, model) -> List[FlatFunction]:
    """Views of every defined function of ``module``, in module order."""
    return [
        build_flat_function(fn, descriptor, model)
        for fn in module.functions
        if not fn.is_declaration
    ]


# -- analyses on the index CFG ----------------------------------------------
#
# Blocks are numbered in layout order. ``succs[b]`` lists the successor
# block numbers in terminator order, duplicates kept; ``preds[b]`` the
# predecessors in layout order, without repeats. Each function computes
# what its object-walk reference in ``tests/analysis_reference.py``
# computes, visiting blocks and edges in the same order wherever the
# result depends on it.


def _reaching_stores(
    mem_events: List[List[Tuple[int, Optional[Load], int]]],
    preds: List[List[int]],
    store_insts: List[int],
    store_ptrs: List[Value],
    flow_dst: List[int],
    flow_src: List[int],
    flow_occ: List[int],
) -> None:
    """Reaching stores over bitsets of store ordinals; appends each load's reaching stores, in instruction
    order, to the flow edges after its operand edges."""
    from ..analysis.memdep import may_alias

    # Stores through the same pointer value kill each other.
    same_ptr: Dict[int, int] = {}
    for s, ptr in enumerate(store_ptrs):
        same_ptr[id(ptr)] = same_ptr.get(id(ptr), 0) | (1 << s)
    kill_of = [same_ptr[id(ptr)] for ptr in store_ptrs]

    n_blocks = len(preds)
    gen = [0] * n_blocks
    kill = [0] * n_blocks
    for b, events in enumerate(mem_events):
        g = k = 0
        for s, load, _ in events:
            if load is None:
                bit = 1 << s
                others = kill_of[s] & ~bit
                k |= others
                g = (g & ~others) | bit
        gen[b] = g
        kill[b] = k

    in_bits = [0] * n_blocks
    out_bits = [0] * n_blocks
    changed = True
    while changed:
        changed = False
        for b in range(n_blocks):
            in_b = 0
            for p in preds[b]:
                in_b |= out_bits[p]
            out_b = gen[b] | (in_b & ~kill[b])
            if in_b != in_bits[b] or out_b != out_bits[b]:
                in_bits[b] = in_b
                out_bits[b] = out_b
                changed = True

    for b, events in enumerate(mem_events):
        live = in_bits[b]
        for idx, load, occ in events:
            if load is None:
                live = (live & ~kill_of[idx]) | (1 << idx)
                continue
            ptr = load._operands[0]
            reaching = live
            while reaching:
                low = reaching & -reaching
                s = low.bit_length() - 1
                reaching ^= low
                if may_alias(store_ptrs[s], ptr):
                    flow_dst.append(idx)
                    flow_src.append(store_insts[s])
                    flow_occ.append(occ)
                    occ += 1


def _liveness(
    succs: List[List[int]],
    use_bits: List[int],
    def_bits: List[int],
    phi_bits: List[int],
    n_inst: int,
) -> Tuple[np.ndarray, int]:
    """Liveness over per-block bitsets of instruction indices:
    ``(live_across, max_pressure)``. A value is live across the blocks it
    is live into; the pressure is the largest live-out set.

    The fixpoint is the unique least one, whatever the visit order."""
    n_blocks = len(succs)
    live_in = [0] * n_blocks
    live_out = [0] * n_blocks
    changed = True
    while changed:
        changed = False
        for b in range(n_blocks - 1, -1, -1):
            out = phi_bits[b]
            for s in succs[b]:
                out |= live_in[s]
            new_in = use_bits[b] | (out & ~def_bits[b])
            if out != live_out[b] or new_in != live_in[b]:
                live_out[b] = out
                live_in[b] = new_in
                changed = True

    # Blocks each value is live into: unpack the live-in bitsets a chunk
    # of blocks at a time, so no n_blocks x n_inst matrix is built.
    n_bytes = (n_inst + 7) // 8
    live_across = np.zeros(n_inst, np.int64)
    chunk = max(1, (1 << 16) // max(n_bytes, 1))
    for c in range(0, n_blocks, chunk):
        rows = [x for x in live_in[c : c + chunk] if x]
        if not rows:
            continue
        packed = np.frombuffer(
            b"".join(x.to_bytes(n_bytes, "little") for x in rows), np.uint8
        ).reshape(len(rows), n_bytes)
        live_across += np.unpackbits(
            packed, axis=1, count=n_inst, bitorder="little"
        ).sum(axis=0, dtype=np.int64)
    max_pressure = max((x.bit_count() for x in live_out), default=0)
    return live_across.astype(np.float64), max_pressure


def _block_frequencies(cfg, probs: List[List[float]]) -> List[float]:
    """Relative execution frequency per block (entry = 1.0) on the index
    CFG: ``trip**loop_depth`` scaled by branch probabilities.

    The postorder and the natural loops are the function's cached ones
    (:func:`~repro.analysis.loops.loop_forest`); the flow propagates in
    the reference's float-op order. Trip counts depend on instructions,
    not only on the CFG, so they come from
    :func:`~repro.passes.loops.iv.analyze_loop` on every build.
    """
    from ..analysis.loops import loop_forest
    from ..passes.loops.iv import analyze_loop

    succs, post = cfg.succs, cfg.post
    n_blocks = len(succs)
    freq = [0.0] * n_blocks
    if not post:
        return freq
    forest = loop_forest(cfg)
    headers, members, parent = forest.headers, forest.members, forest.parent
    innermost, exit_edges = forest.innermost, forest.exit_edges

    # Acyclic flow in RPO with loop-aware conservation: back edges are
    # skipped, and a loop-exit edge carries the flow that entered the
    # loop, split across its exit edges, so code after a loop runs as
    # often as code before it.
    freq[0] = 1.0
    for b in reversed(post):
        f = freq[b]
        lp = innermost[b]
        if f == 0.0 and lp >= 0:
            f = freq[b] = 1e-3  # entered only via back edges
        for k, s in enumerate(succs[b]):
            if lp >= 0 and s == headers[lp]:
                continue  # back edge
            exited = -1
            node = lp
            while node >= 0 and s not in members[node]:
                exited = node
                node = parent[node]
            if exited >= 0:
                freq[s] += freq[headers[exited]] / exit_edges[exited]
            else:
                freq[s] += f * probs[b][k]

    if not headers:
        return freq
    trips: List[float] = []
    for loop in forest.records:
        try:
            bounds = analyze_loop(loop)
        except Exception:  # pragma: no cover - malformed loops
            bounds = None
        if bounds is not None and bounds.trip_count is not None:
            trips.append(float(min(bounds.trip_count, 10_000)))
        else:
            trips.append(DEFAULT_TRIP_COUNT)
    multiplier = []
    for lp in range(len(headers)):
        m = 1.0
        node = lp
        while node >= 0:
            m *= trips[node]
            node = parent[node]
        multiplier.append(m)
    for b in range(n_blocks):
        lp = innermost[b]
        if lp >= 0:
            freq[b] = max(freq[b], 1e-3) * multiplier[lp]
    return freq
