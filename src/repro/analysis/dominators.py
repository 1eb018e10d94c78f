"""Dominator tree (Cooper–Harvey–Kennedy) and dominance frontiers.

Used by mem2reg/SROA (phi placement), the verifier (SSA dominance), CSE
scoping, LICM, GVN and the natural-loop analysis. The tree is computed
once per CFG shape on the function's cached
:class:`~repro.analysis.cfg.IndexCFG`; :class:`DominatorTree` is a view
over it, so one for an unchanged CFG costs one signature check.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.instructions import Instruction, Phi
from ..ir.module import BasicBlock, Function
from ..ir.values import Argument, Constant, Value
from .cfg import IndexCFG, index_cfg


class DominatorInfo:
    """Immediate dominators of an index CFG: ``idom[b]`` (``-1`` for the
    entry and unreachable blocks), tree ``children[b]`` in reverse
    postorder, and the tree's depth-first ``preorder``. ``a`` dominates
    ``b`` exactly when ``pre[a] <= pre[b] < end[a]`` (``pre`` is ``-1``
    for unreachable blocks)."""

    __slots__ = ("idom", "children", "preorder", "pre", "end")

    def __init__(self, cfg: IndexCFG):
        post, preds, n = cfg.post, cfg.preds, len(cfg.blocks)
        order = [-1] * n
        for k, b in enumerate(post):
            order[b] = k
        idom = [-1] * n
        if n:
            idom[0] = 0  # the entry's, during the fixpoint only
        changed = True
        while changed:
            changed = False
            for b in reversed(post):
                if b == 0:
                    continue
                new = -1
                for p in preds[b]:
                    if order[p] < 0 or idom[p] < 0:
                        continue  # unreachable, or not processed yet
                    if new < 0:
                        new = p
                        continue
                    b1, b2 = p, new
                    while b1 != b2:
                        while order[b1] < order[b2]:
                            b1 = idom[b1]
                        while order[b2] < order[b1]:
                            b2 = idom[b2]
                    new = b1
                if new >= 0 and idom[b] != new:
                    idom[b] = new
                    changed = True
        if n:
            idom[0] = -1
        children: List[List[int]] = [[] for _ in range(n)]
        for b in reversed(post):
            if idom[b] >= 0:
                children[idom[b]].append(b)
        preorder: List[int] = []
        stack = [0] if post else []
        while stack:
            b = stack.pop()
            preorder.append(b)
            stack.extend(reversed(children[b]))
        pre = [-1] * n
        for k, b in enumerate(preorder):
            pre[b] = k
        size = [1] * n
        for b in reversed(preorder):
            if idom[b] >= 0:
                size[idom[b]] += size[b]
        self.idom, self.children = tuple(idom), tuple(map(tuple, children))
        self.preorder, self.pre = tuple(preorder), tuple(pre)
        self.end = tuple(pre[b] + size[b] for b in range(n))

    def dominates(self, a: int, b: int) -> bool:
        """Does block ``a`` dominate block ``b`` (reflexively)?"""
        pre = self.pre
        return pre[a] >= 0 and pre[a] <= pre[b] < self.end[a]


def dominator_info(cfg: IndexCFG) -> DominatorInfo:
    """The dominator tree of ``cfg``, computed on first use."""
    if cfg.dom is None:
        cfg.dom = DominatorInfo(cfg)
    return cfg.dom


class DominatorTree:
    """Immediate-dominator tree over the reachable CFG of a function: a
    view of the cached :class:`DominatorInfo` of ``fn``'s CFG shape at
    construction. Returned lists are fresh."""

    def __init__(self, fn: Function):
        self.fn = fn
        self._cfg = cfg = index_cfg(fn)
        self._info = dominator_info(cfg)

    def _reached(self, block: BasicBlock) -> int:
        """The block's number, or ``-1`` if it is not reachable."""
        b = self._cfg.index.get(id(block), -1)
        return b if b >= 0 and self._info.pre[b] >= 0 else -1

    @property
    def idom(self) -> Dict[int, Optional[BasicBlock]]:
        """``id(block)`` -> immediate dominator (None for the entry), for
        the reachable blocks in reverse postorder."""
        blocks, idom = self._cfg.blocks, self._info.idom
        return {
            id(blocks[b]): blocks[idom[b]] if idom[b] >= 0 else None
            for b in reversed(self._cfg.post)
        }

    # -- queries ----------------------------------------------------------
    def is_reachable(self, block: BasicBlock) -> bool:
        return self._reached(block) >= 0

    def immediate_dominator(self, block: BasicBlock) -> Optional[BasicBlock]:
        b = self._reached(block)
        parent = self._info.idom[b] if b >= 0 else -1
        return self._cfg.blocks[parent] if parent >= 0 else None

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        b = self._reached(block)
        blocks = self._cfg.blocks
        return [blocks[c] for c in self._info.children[b]] if b >= 0 else []

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does block ``a`` dominate block ``b`` (reflexively)?"""
        index = self._cfg.index
        ia, ib = index.get(id(a)), index.get(id(b))
        return ia is not None and ib is not None and self._info.dominates(ia, ib)

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
        """Cytron-style dominance frontiers, keyed/valued by ``id(block)``
        (keys: the reachable blocks in reverse postorder)."""
        cfg, idom, pre = self._cfg, self._info.idom, self._info.pre
        frontiers: List[Set[int]] = [set() for _ in cfg.blocks]
        for b, preds in enumerate(cfg.preds):
            block_preds = [p for p in preds if pre[p] >= 0]
            if pre[b] < 0 or len(block_preds) < 2:
                continue
            for runner in block_preds:
                while runner >= 0 and runner != idom[b]:
                    frontiers[runner].add(id(cfg.blocks[b]))
                    runner = idom[runner]
        return {id(cfg.blocks[b]): frontiers[b] for b in reversed(cfg.post)}

    def dfs_preorder(self) -> List[BasicBlock]:
        """Preorder walk of the dominator tree (entry first)."""
        blocks = self._cfg.blocks
        return [blocks[b] for b in self._info.preorder]
