"""CFG traversal utilities shared by analyses and passes."""

from __future__ import annotations

from typing import Dict, Iterator, List, Set

from ..ir.module import BasicBlock, Function
from ..ir.values import UndefValue


def reachable_blocks(fn: Function) -> Set[int]:
    """Ids of blocks reachable from the entry."""
    seen: Set[int] = set()
    stack = [fn.entry] if fn.blocks else []
    while stack:
        block = stack.pop()
        if id(block) in seen:
            continue
        seen.add(id(block))
        stack.extend(block.successors())
    return seen


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


def reverse_postorder(fn: Function) -> List[BasicBlock]:
    """Reverse postorder — the canonical forward-dataflow iteration order."""
    return list(reversed(postorder(fn)))


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


def remove_unreachable_blocks(fn: Function) -> bool:
    """Drop blocks not reachable from the entry; fix phis. Returns changed."""
    reachable = reachable_blocks(fn)
    dead = [b for b in fn.blocks if id(b) not in reachable]
    if not dead:
        return False
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
