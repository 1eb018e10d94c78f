"""Natural-loop detection.

Identifies loops from back edges over the dominator tree, producing
:class:`Loop` records with header / latches / blocks / exits / preheader and
nesting depth. All loop passes start from :class:`LoopInfo`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.module import BasicBlock, Function
from .cfg import predecessors_map
from .dominators import DominatorTree


class Loop:
    """A natural loop: a header plus the blocks of its back-edge bodies."""

    def __init__(self, header: BasicBlock):
        self.header = header
        self.blocks: List[BasicBlock] = [header]
        self._block_ids: Set[int] = {id(header)}
        self.latches: List[BasicBlock] = []
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []

    def contains(self, block: BasicBlock) -> bool:
        return id(block) in self._block_ids

    def add_block(self, block: BasicBlock) -> None:
        if id(block) not in self._block_ids:
            self._block_ids.add(id(block))
            self.blocks.append(block)

    @property
    def depth(self) -> int:
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    @property
    def single_latch(self) -> Optional[BasicBlock]:
        return self.latches[0] if len(self.latches) == 1 else None

    def preheader(self) -> Optional[BasicBlock]:
        """The unique out-of-loop predecessor of the header that branches
        only to the header — present after ``loop-simplify``."""
        outside = [
            p for p in self.header.predecessors() if not self.contains(p)
        ]
        if len(outside) != 1:
            return None
        pred = outside[0]
        if pred.successors() == [self.header]:
            return pred
        return None

    def exiting_blocks(self) -> List[BasicBlock]:
        """Blocks inside the loop with a successor outside it."""
        result = []
        for block in self.blocks:
            if any(not self.contains(s) for s in block.successors()):
                result.append(block)
        return result

    def exit_blocks(self) -> List[BasicBlock]:
        """Blocks outside the loop that are targets of loop exits."""
        result: List[BasicBlock] = []
        seen: Set[int] = set()
        for block in self.blocks:
            for succ in block.successors():
                if not self.contains(succ) and id(succ) not in seen:
                    seen.add(id(succ))
                    result.append(succ)
        return result

    def has_dedicated_exits(self) -> bool:
        """Every exit block's predecessors are all inside the loop."""
        return all(
            all(self.contains(p) for p in exit_block.predecessors())
            for exit_block in self.exit_blocks()
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Loop header=%{self.header.name} blocks={len(self.blocks)} depth={self.depth}>"


class LoopInfo:
    """All natural loops of a function, with a nesting forest."""

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


def has_natural_loop(fn: Function) -> bool:
    """Whether ``LoopInfo(fn).loops`` is non-empty: some reachable block
    has a successor that dominates it (a back edge).

    A back edge is a retreating edge of every depth-first walk from the
    entry (its target dominates its source, so it is on the walk's
    stack), so a walk without retreating edges answers False without a
    dominator tree; otherwise only the retreating edges are tested.
    """
    if not fn.blocks:
        return False
    entry = fn.entry
    seen = {id(entry)}
    on_stack = {id(entry)}
    stack = [(entry, iter(entry.successors()))]
    retreating: List[Tuple[BasicBlock, BasicBlock]] = []
    while stack:
        block, succs = stack[-1]
        for succ in succs:
            if id(succ) in on_stack:
                retreating.append((block, succ))
            elif id(succ) not in seen:
                seen.add(id(succ))
                on_stack.add(id(succ))
                stack.append((succ, iter(succ.successors())))
                break
        else:
            stack.pop()
            on_stack.discard(id(block))
    if not retreating:
        return False
    dom = DominatorTree(fn)
    return any(dom.dominates_block(head, tail) for tail, head in retreating)
