"""CFG traversal utilities and the per-function index CFG.

The dominator tree and the natural loops are computed on the *index
CFG* — blocks numbered in layout order — once per CFG shape:
:func:`index_cfg` caches an :class:`IndexCFG` on the function, and
:mod:`.dominators` and :mod:`.loops` fill their results into it.

The signature rule: the cached entry is returned only while the CFG is
the one it was built from — the same block objects in the same order,
each with the same successor objects in the same order, compared by
identity on every fetch — so there is nothing to invalidate, and
instruction-only edits keep it. It holds the blocks themselves, so no
id it maps is recycled while it lives. Cached results are shared by
every reader and must not be mutated.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

from ..ir.module import BasicBlock, Function
from ..ir.values import UndefValue


class IndexCFG:
    """One CFG shape: ``succs[b]`` in terminator order (duplicates kept;
    successors outside the function, which only malformed IR has, are
    dropped), ``preds[b]`` in layout order without repeats, and ``post``,
    the postorder of a depth-first walk from block 0 taking successors in
    order. ``dom`` and ``loops`` are filled on first use.

    Entries live as long as their function, so per-block sequences are
    tuples of ints, which the cyclic garbage collector stops tracking.
    """

    __slots__ = (
        "blocks", "signature", "index", "succs", "preds", "post", "dom", "loops",
    )

    def __init__(self, blocks: List[BasicBlock], signature: List[Any]):
        self.blocks, self.signature = blocks, signature
        self.index = index = {id(b): i for i, b in enumerate(blocks)}
        succs: List[List[int]] = [[] for _ in blocks]
        b = 0
        for s in signature:
            if s is None:
                b += 1
            elif id(s) in index:
                succs[b].append(index[id(s)])
        preds: List[List[int]] = [[] for _ in blocks]
        for b, succ in enumerate(succs):
            for s in succ:
                # A block's own edges are added consecutively, so a
                # repeat edge can only find ``b`` last in the list.
                if not preds[s] or preds[s][-1] != b:
                    preds[s].append(b)
        self.succs = tuple(map(tuple, succs))
        self.preds = tuple(map(tuple, preds))
        post: List[int] = []
        if blocks:
            seen = [True] + [False] * (len(blocks) - 1)
            stack = [(0, iter(succs[0]))]
            while stack:
                b, it = stack[-1]
                for s in it:
                    if not seen[s]:
                        seen[s] = True
                        stack.append((s, iter(succs[s])))
                        break
                else:
                    post.append(b)
                    stack.pop()
        self.post = tuple(post)
        self.dom = self.loops = None


def index_cfg(fn: Function) -> IndexCFG:
    """``fn``'s index CFG, rebuilt only when the CFG signature changed.

    The signature lists each block's successors, each list closed by
    ``None``."""
    blocks, cfg = fn.blocks, fn.cfg_cache
    signature: List[Any] = []
    for block in blocks:
        signature += block.successors()
        signature.append(None)
    if cfg is None or cfg.blocks != blocks or cfg.signature != signature:
        cfg = fn.cfg_cache = IndexCFG(list(blocks), signature)
    return cfg


def postorder(fn: Function) -> List[BasicBlock]:
    """Postorder traversal of reachable blocks from the entry."""
    cfg = index_cfg(fn)
    return [cfg.blocks[b] for b in cfg.post]


def reverse_postorder(fn: Function) -> List[BasicBlock]:
    """Reverse postorder — the canonical forward-dataflow iteration order."""
    cfg = index_cfg(fn)
    return [cfg.blocks[b] for b in reversed(cfg.post)]


def reachable_blocks(fn: Function) -> Set[int]:
    """Ids of blocks reachable from the entry."""
    cfg = index_cfg(fn)
    return {id(cfg.blocks[b]) for b in cfg.post}


def predecessors_map(fn: Function) -> Dict[int, List[BasicBlock]]:
    """Predecessor lists keyed by ``id(block)``: layout order, no repeats."""
    cfg = index_cfg(fn)
    blocks = cfg.blocks
    return {id(b): [blocks[p] for p in ps] for b, ps in zip(blocks, cfg.preds)}


def remove_unreachable_blocks(fn: Function) -> bool:
    """Drop blocks not reachable from the entry; fix phis. Returns changed."""
    cfg = index_cfg(fn)
    if len(cfg.post) == len(cfg.blocks):
        return False
    reached = set(cfg.post)
    dead = [block for b, block in enumerate(cfg.blocks) if b not in reached]
    dead_ids = {id(b) for b in dead}
    for block in fn.blocks:
        if id(block) in dead_ids:
            continue
        for phi in block.phis():
            for i in range(phi.num_incoming - 1, -1, -1):
                if id(phi.incoming_block(i)) in dead_ids:
                    phi.remove_operand(2 * i + 1)
                    phi.remove_operand(2 * i)
    for block in dead:
        # Values defined in dead blocks may still be referenced from other
        # dead blocks (fine — all erased) or from phis already fixed above.
        for inst in block.instructions:
            if inst.has_uses:
                inst.replace_all_uses_with(UndefValue(inst.type))
        block.erase_from_parent()
    return True
