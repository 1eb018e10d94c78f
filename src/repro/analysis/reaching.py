"""Reaching-definitions over memory (stores reaching loads).

SSA registers make classic reaching-defs trivial, so this analysis tracks
*stores*: for every load, which stores may provide its value. It powers the
flow-aware component of the IR2Vec-style embeddings and a few memory passes.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir.instructions import Call, Instruction, Load, Store
from ..ir.module import BasicBlock, Function
from .cfg import predecessors_map
from .memdep import may_alias, written_pointer


class ReachingStores:
    """For each load, the stores that may reach it, in instruction order."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.reaching: Dict[int, List[Store]] = {}
        self._compute()

    def _stores_in(self, block: BasicBlock) -> List[Store]:
        return [i for i in block.instructions if isinstance(i, Store)]

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
