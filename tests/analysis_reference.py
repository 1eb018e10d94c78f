"""Object-IR analyses: the oracle for the index-CFG and flat-build ones.

:func:`repro.analysis.cfg.index_cfg` numbers a function's CFG once per
CFG shape, and the dominator tree and natural loops are computed on
those integers (:class:`repro.analysis.dominators.DominatorTree` and
:class:`repro.analysis.loops.LoopInfo` are views of the cached result).
:func:`postorder`, :class:`DominatorTree` and :class:`LoopInfo` here are
the object-block implementations they replaced, built fresh on every
call; ``tests/analysis/test_analysis_reference.py`` compares the two
after every ``-Oz`` pass.

:func:`repro.ir.flat.build_flat_function` computes block frequencies,
liveness and reaching stores on the integer CFG its one walk over the IR
gathers. These classes compute the same results by walking the object
IR, block by block and instruction by instruction; the flat-build tests
compare the two with ``==``/``array_equal`` and the reference metric
kernels in :mod:`tests.metrics_reference` consume them.

* :class:`Liveness` — per-block live-in / live-out sets of SSA values
  (the embedding's liveness weights, the size model's register
  pressure);
* :class:`ReachingStores` — for every load, the stores that may reach it
  (the embedding's memory flow);
* :class:`BlockFrequency` — relative execution frequency per block (the
  MCA model's block weights and call counts).

:class:`FlatAnalyses` answers the same queries from the production flat
view, so a property test can assert the same thing of both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.loops import Loop
from repro.analysis.memdep import may_alias
from repro.codegen.target import get_target
from repro.ir.flat import DEFAULT_TRIP_COUNT, build_flat_function
from repro.ir.instructions import Branch, Instruction, Load, Phi, Store
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Argument, Constant, Value
from repro.mca.ports import get_port_model


# -- the CFG analyses ---------------------------------------------------------


def postorder(fn: Function) -> List[BasicBlock]:
    """Postorder traversal of reachable blocks from the entry."""
    order: List[BasicBlock] = []
    seen: Set[int] = set()

    def visit(block: BasicBlock) -> None:
        stack = [(block, iter(block.successors()))]
        seen.add(id(block))
        while stack:
            current, succs = stack[-1]
            advanced = False
            for succ in succs:
                if id(succ) not in seen:
                    seen.add(id(succ))
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()

    if fn.blocks:
        visit(fn.entry)
    return order


def predecessors_map(fn: Function) -> Dict[int, List[BasicBlock]]:
    """Precomputed predecessor lists keyed by ``id(block)``."""
    preds: Dict[int, List[BasicBlock]] = {id(b): [] for b in fn.blocks}
    for block in fn.blocks:
        for succ in block.successors():
            lst = preds.get(id(succ))
            # A block's own edges are appended consecutively, so a repeat
            # edge (both arms of a branch, duplicate switch cases) can
            # only find ``block`` last in the list.
            if lst is not None and (not lst or lst[-1] is not block):
                lst.append(block)
    return preds


def reverse_postorder(fn: Function) -> List[BasicBlock]:
    """Reverse postorder — the canonical forward-dataflow iteration order."""
    return list(reversed(postorder(fn)))


class DominatorTree:
    """Immediate-dominator tree over the reachable CFG of a function,
    computed on the object blocks (Cooper–Harvey–Kennedy)."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.idom: Dict[int, Optional[BasicBlock]] = {}
        self._order_index: Dict[int, int] = {}
        self._children: Dict[int, List[BasicBlock]] = {}
        self._compute()

    def _compute(self) -> None:
        fn = self.fn
        if not fn.blocks:
            return
        order = postorder(fn)  # reachable blocks only
        rpo = list(reversed(order))
        index = {id(b): i for i, b in enumerate(order)}
        self._order_index = index
        preds = predecessors_map(fn)

        entry = fn.entry
        idom: Dict[int, Optional[BasicBlock]] = {id(b): None for b in rpo}
        idom[id(entry)] = entry

        def intersect(b1: BasicBlock, b2: BasicBlock) -> BasicBlock:
            while b1 is not b2:
                while index[id(b1)] < index[id(b2)]:
                    b1 = idom[id(b1)]  # type: ignore[assignment]
                while index[id(b2)] < index[id(b1)]:
                    b2 = idom[id(b2)]  # type: ignore[assignment]
            return b1

        changed = True
        while changed:
            changed = False
            for block in rpo:
                if block is entry:
                    continue
                new_idom: Optional[BasicBlock] = None
                for pred in preds.get(id(block), []):
                    if id(pred) not in index:
                        continue  # unreachable pred
                    if idom[id(pred)] is None:
                        continue
                    new_idom = (
                        pred if new_idom is None else intersect(pred, new_idom)
                    )
                if new_idom is not None and idom[id(block)] is not new_idom:
                    idom[id(block)] = new_idom
                    changed = True

        self.idom = idom
        self.idom[id(entry)] = None  # entry has no immediate dominator
        self._children = {id(b): [] for b in rpo}
        for block in rpo:
            parent = self.idom[id(block)]
            if parent is not None:
                self._children[id(parent)].append(block)

    # -- queries ----------------------------------------------------------
    def is_reachable(self, block: BasicBlock) -> bool:
        return id(block) in self.idom

    def immediate_dominator(self, block: BasicBlock) -> Optional[BasicBlock]:
        return self.idom.get(id(block))

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        return self._children.get(id(block), [])

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does block ``a`` dominate block ``b`` (reflexively)?"""
        if not self.is_reachable(a) or not self.is_reachable(b):
            return False
        node: Optional[BasicBlock] = b
        while node is not None:
            if node is a:
                return True
            node = self.idom.get(id(node))
        return False

    def strictly_dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates_block(a, b)

    def dominates(self, definition: Value, user: Instruction) -> bool:
        """Does SSA value ``definition`` dominate the use site ``user``?

        Arguments and constants dominate everything. For instruction defs,
        intra-block ordering is consulted; a use in a phi is checked against
        the end of the incoming block by callers (this method treats phi
        users as block-entry uses).
        """
        if isinstance(definition, (Argument, Constant)):
            return True
        if not isinstance(definition, Instruction):
            return True
        def_block = definition.parent
        use_block = user.parent
        assert def_block is not None and use_block is not None
        if def_block is use_block:
            if isinstance(user, Phi):
                return False
            insts = def_block.instructions
            return insts.index(definition) < insts.index(user)
        return self.dominates_block(def_block, use_block)

    def dominance_frontiers(self) -> Dict[int, Set[int]]:
        """Cytron-style dominance frontiers, keyed/valued by ``id(block)``."""
        frontiers: Dict[int, Set[int]] = {bid: set() for bid in self.idom}
        preds = predecessors_map(self.fn)
        for block in self.fn.blocks:
            if not self.is_reachable(block):
                continue
            block_preds = [p for p in preds.get(id(block), []) if self.is_reachable(p)]
            if len(block_preds) < 2:
                continue
            for pred in block_preds:
                runner: Optional[BasicBlock] = pred
                while runner is not None and runner is not self.idom[id(block)]:
                    frontiers[id(runner)].add(id(block))
                    runner = self.idom[id(runner)]
        return frontiers

    def dfs_preorder(self) -> List[BasicBlock]:
        """Preorder walk of the dominator tree (entry first)."""
        if not self.fn.blocks:
            return []
        order: List[BasicBlock] = []
        stack = [self.fn.entry]
        while stack:
            block = stack.pop()
            order.append(block)
            stack.extend(reversed(self.children(block)))
        return order


class LoopInfo:
    """All natural loops of a function, with a nesting forest: back edges
    found block by block over :class:`DominatorTree`, bodies walked
    backwards over ``predecessors_map``."""

    def __init__(self, fn: Function, dom: Optional[DominatorTree] = None):
        self.fn = fn
        self.dom = dom or DominatorTree(fn)
        self.loops: List[Loop] = []
        self._loop_of_block: Dict[int, Loop] = {}
        self._compute()

    def _compute(self) -> None:
        preds = predecessors_map(self.fn)
        # Find back edges (latch -> header where header dominates latch).
        back_edges: List[Tuple[BasicBlock, BasicBlock]] = []
        for block in self.fn.blocks:
            if not self.dom.is_reachable(block):
                continue
            for succ in block.successors():
                if self.dom.dominates_block(succ, block):
                    back_edges.append((block, succ))

        loops_by_header: Dict[int, Loop] = {}
        for latch, header in back_edges:
            loop = loops_by_header.get(id(header))
            if loop is None:
                loop = Loop(header)
                loops_by_header[id(header)] = loop
            loop.latches.append(latch)
            # Walk backwards from the latch collecting the loop body.
            stack = [latch]
            while stack:
                block = stack.pop()
                if loop.contains(block):
                    continue
                loop.add_block(block)
                for pred in preds.get(id(block), []):
                    if self.dom.is_reachable(pred):
                        stack.append(pred)

        self.loops = list(loops_by_header.values())
        # Nesting: loop A is a child of B if B contains A's header and A != B
        # and B is the smallest such loop.
        for loop in self.loops:
            best: Optional[Loop] = None
            for other in self.loops:
                if other is loop or not other.contains(loop.header):
                    continue
                if best is None or len(other.blocks) < len(best.blocks):
                    best = other
            loop.parent = best
            if best is not None:
                best.children.append(loop)

        # Innermost loop per block.
        for loop in self.loops:
            for block in loop.blocks:
                current = self._loop_of_block.get(id(block))
                if current is None or len(loop.blocks) < len(current.blocks):
                    self._loop_of_block[id(block)] = loop

    # -- queries ---------------------------------------------------------------
    def loop_for(self, block: BasicBlock) -> Optional[Loop]:
        """Innermost loop containing ``block``."""
        return self._loop_of_block.get(id(block))

    def depth_of(self, block: BasicBlock) -> int:
        loop = self.loop_for(block)
        return loop.depth if loop is not None else 0

    def top_level(self) -> List[Loop]:
        return [l for l in self.loops if l.parent is None]

    def innermost_first(self) -> List[Loop]:
        """Loops ordered innermost-to-outermost (stable within a depth)."""
        return sorted(self.loops, key=lambda l: -l.depth)


class Liveness:
    """Per-block live-in / live-out sets of SSA values (ids)."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.live_in: Dict[int, Set[int]] = {}
        self.live_out: Dict[int, Set[int]] = {}
        self._values: Dict[int, Instruction] = {}
        self._compute()

    def _compute(self) -> None:
        fn = self.fn
        use: Dict[int, Set[int]] = {}
        defs: Dict[int, Set[int]] = {}
        phi_uses: Dict[int, Set[int]] = {id(b): set() for b in fn.blocks}

        for block in fn.blocks:
            u: Set[int] = set()
            d: Set[int] = set()
            for inst in block.instructions:
                self._values[id(inst)] = inst
                if isinstance(inst, Phi):
                    # Phi operands are live-out of the incoming blocks.
                    for value, pred in inst.incoming():
                        if isinstance(value, Instruction):
                            phi_uses[id(pred)].add(id(value))
                    d.add(id(inst))
                    continue
                for op in inst.operands:
                    if isinstance(op, Instruction) and id(op) not in d:
                        u.add(id(op))
                if not inst.type.is_void:
                    d.add(id(inst))
            use[id(block)] = u
            defs[id(block)] = d

        live_in: Dict[int, Set[int]] = {id(b): set() for b in fn.blocks}
        live_out: Dict[int, Set[int]] = {id(b): set() for b in fn.blocks}

        changed = True
        while changed:
            changed = False
            for block in reversed(fn.blocks):
                bid = id(block)
                out: Set[int] = set(phi_uses.get(bid, ()))
                for succ in block.successors():
                    out |= live_in[id(succ)]
                new_in = use[bid] | (out - defs[bid])
                if out != live_out[bid] or new_in != live_in[bid]:
                    live_out[bid] = out
                    live_in[bid] = new_in
                    changed = True

        self.live_in = live_in
        self.live_out = live_out

    def live_across_blocks(self, inst: Instruction) -> int:
        """Number of blocks through which ``inst``'s value stays live."""
        count = 0
        key = id(inst)
        for block in self.fn.blocks:
            if key in self.live_in.get(id(block), ()):
                count += 1
        return count

    def max_pressure(self) -> int:
        """Maximum number of simultaneously live values at block boundaries."""
        if not self.fn.blocks:
            return 0
        return max(
            (len(self.live_out[id(b)]) for b in self.fn.blocks), default=0
        )


class ReachingStores:
    """For each load, the stores that may reach it, in instruction order."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.reaching: Dict[int, List[Store]] = {}
        self._compute()

    def _compute(self) -> None:
        fn = self.fn
        all_stores: List[Store] = [
            i for i in fn.instructions() if isinstance(i, Store)
        ]
        store_ids = {id(s): s for s in all_stores}

        # gen/kill per block over store ids.
        gen: Dict[int, Set[int]] = {}
        kill: Dict[int, Set[int]] = {}
        for block in fn.blocks:
            g: Set[int] = set()
            k: Set[int] = set()
            for inst in block.instructions:
                if isinstance(inst, Store):
                    # This store kills earlier stores it must-alias with
                    # (approximated: same pointer value).
                    for sid, store in store_ids.items():
                        if store is not inst and store.pointer is inst.pointer:
                            k.add(sid)
                            g.discard(sid)
                    g.add(id(inst))
            gen[id(block)] = g
            kill[id(block)] = k

        in_sets: Dict[int, Set[int]] = {id(b): set() for b in fn.blocks}
        out_sets: Dict[int, Set[int]] = {id(b): set() for b in fn.blocks}
        preds = predecessors_map(fn)

        changed = True
        while changed:
            changed = False
            for block in fn.blocks:
                bid = id(block)
                in_set: Set[int] = set()
                for pred in preds.get(bid, []):
                    in_set |= out_sets[id(pred)]
                out_set = gen[bid] | (in_set - kill[bid])
                if in_set != in_sets[bid] or out_set != out_sets[bid]:
                    in_sets[bid] = in_set
                    out_sets[bid] = out_set
                    changed = True

        # Per-load resolution: walk the block applying kills. A load's
        # stores are listed in instruction order.
        position = {sid: k for k, sid in enumerate(store_ids)}
        for block in fn.blocks:
            live: Set[int] = set(in_sets[id(block)])
            for inst in block.instructions:
                if isinstance(inst, Load):
                    self.reaching[id(inst)] = [
                        store_ids[sid]
                        for sid in sorted(live, key=position.__getitem__)
                        if may_alias(store_ids[sid].pointer, inst.pointer)
                    ]
                elif isinstance(inst, Store):
                    for sid in list(live):
                        if store_ids[sid].pointer is inst.pointer:
                            live.discard(sid)
                    live.add(id(inst))

    def stores_for(self, load: Load) -> List[Store]:
        """The stores that may reach ``load``, in instruction order."""
        return self.reaching.get(id(load), [])


class BlockFrequency:
    """Relative execution frequency per block (entry = 1.0).

    Frequency = ``trip**loop_depth`` scaled by branch probabilities from
    branch-weight metadata (recorded by the lower-expect pass)."""

    def __init__(self, fn: Function, loop_info: Optional[LoopInfo] = None):
        self.fn = fn
        self.loop_info = loop_info or LoopInfo(fn)
        self.freq: Dict[int, float] = {}
        self._compute()

    def _branch_probability(self, block: BasicBlock, succ_index: int) -> float:
        term = block.terminator
        succs = block.successors()
        if not succs:
            return 0.0
        if isinstance(term, Branch) and term.is_conditional:
            weights = term.meta.get("branch_weights")
            if isinstance(weights, (list, tuple)) and len(weights) == 2:
                total = float(weights[0] + weights[1]) or 1.0
                return float(weights[succ_index]) / total
            return 0.5
        return 1.0 / len(succs)

    def _exit_loop(self, src: BasicBlock, dst: BasicBlock):
        """The outermost loop containing ``src`` but not ``dst`` (the loop
        this edge exits), or None for a non-exit edge."""
        loop = self.loop_info.loop_for(src)
        exited = None
        while loop is not None:
            if loop.contains(dst):
                break
            exited = loop
            loop = loop.parent
        return exited

    def _compute(self) -> None:
        fn = self.fn
        order = reverse_postorder(fn)
        freq: Dict[int, float] = {id(b): 0.0 for b in fn.blocks}
        if not order:
            self.freq = freq
            return
        freq[id(order[0])] = 1.0

        # Acyclic flow in RPO with loop-aware conservation: back edges are
        # skipped, and an edge that exits a loop carries the flow that
        # *entered* the loop (split across exit edges), so code after a
        # loop runs as often as code before it — regardless of in-loop
        # branch shapes.
        exit_edge_counts: Dict[int, int] = {}
        for loop in self.loop_info.loops:
            count = 0
            for block in loop.blocks:
                for succ in block.successors():
                    if not loop.contains(succ):
                        count += 1
            exit_edge_counts[id(loop)] = max(count, 1)

        for block in order:
            f = freq[id(block)]
            block_loop = self.loop_info.loop_for(block)
            if f == 0.0 and block_loop is not None:
                f = freq[id(block)] = 1e-3  # entered only via back edges
            for i, succ in enumerate(block.successors()):
                if block_loop is not None and succ is block_loop.header:
                    continue  # back edge
                exited = self._exit_loop(block, succ)
                if exited is not None:
                    contribution = freq.get(id(exited.header), 1e-3) / (
                        exit_edge_counts[id(exited)]
                    )
                else:
                    contribution = f * self._branch_probability(block, i)
                freq[id(succ)] = freq.get(id(succ), 0.0) + contribution

        trip_of = self._trip_counts()
        for block in fn.blocks:
            loop = self.loop_info.loop_for(block)
            if loop is None:
                continue
            multiplier = 1.0
            node = loop
            while node is not None:
                multiplier *= trip_of.get(id(node), DEFAULT_TRIP_COUNT)
                node = node.parent
            freq[id(block)] = max(freq.get(id(block), 0.0), 1e-3) * multiplier
        self.freq = freq

    def _trip_counts(self) -> Dict[int, float]:
        """Constant trip counts where derivable (so unrolling/vectorizing
        visibly changes the cycle estimate); DEFAULT_TRIP_COUNT otherwise."""
        from repro.passes.loops.iv import analyze_loop

        trips: Dict[int, float] = {}
        for loop in self.loop_info.loops:
            try:
                bounds = analyze_loop(loop)
            except Exception:  # pragma: no cover - malformed loops
                bounds = None
            if bounds is not None and bounds.trip_count is not None:
                trips[id(loop)] = float(min(bounds.trip_count, 10_000))
        return trips

    def frequency(self, block: BasicBlock) -> float:
        return self.freq.get(id(block), 0.0)


class FlatAnalyses:
    """The flat build's analysis results behind the query methods of
    :class:`Liveness`, :class:`ReachingStores` and :class:`BlockFrequency`.

    ``stores_for`` decodes a load's flow edges: the build lists its
    SSA-def operand edges first, then its reaching stores."""

    def __init__(self, fn: Function, target: str = "x86-64"):
        ff = build_flat_function(fn, get_target(target), get_port_model(target))
        insts = [inst for block in fn.blocks for inst in block.instructions]
        index = {id(inst): k for k, inst in enumerate(insts)}
        self._freq = {id(b): f for b, f in zip(fn.blocks, ff.freqs.tolist())}
        self._live = {
            id(inst): int(n) for inst, n in zip(insts, ff.live_across.tolist())
        }
        self._pressure = ff.max_pressure
        sources: List[List[int]] = [[] for _ in insts]
        offs = ff.round_offsets.tolist()
        for r in range(len(offs) - 1):
            for d, src in zip(
                ff.flow_dst[offs[r] : offs[r + 1]].tolist(),
                ff.flow_src[offs[r] : offs[r + 1]].tolist(),
            ):
                sources[d].append(src)
        self._stores: Dict[int, List[Store]] = {}
        for k, inst in enumerate(insts):
            if isinstance(inst, Load):
                n_defs = sum(id(op) in index for op in inst.operands)
                self._stores[id(inst)] = [
                    insts[j] for j in sources[k][n_defs:]  # type: ignore[misc]
                ]

    def frequency(self, block: BasicBlock) -> float:
        return self._freq.get(id(block), 0.0)

    def live_across_blocks(self, inst: Instruction) -> int:
        return self._live[id(inst)]

    def max_pressure(self) -> int:
        return self._pressure

    def stores_for(self, load: Load) -> List[Store]:
        return self._stores.get(id(load), [])
