"""Natural-loop detection.

Identifies loops from back edges over the dominator tree, producing
:class:`Loop` records with header / latches / blocks / exits / preheader and
nesting depth. All loop passes start from :class:`LoopInfo`.

They are computed once per CFG shape on the function's cached
:class:`~repro.analysis.cfg.IndexCFG`, and :class:`LoopInfo` is a view
over them. Every view of a shape shares its :class:`Loop` records; a
consumer that edits one (``loop-simplify`` merging latches) edits a
:meth:`Loop.copy`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.module import BasicBlock, Function
from .cfg import IndexCFG, index_cfg
from .dominators import dominator_info


class Loop:
    """A natural loop: a header plus the blocks of its back-edge bodies."""

    __slots__ = ("header", "blocks", "_block_ids", "latches", "parent", "children")

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

    def copy(self) -> "Loop":
        """A record of this loop that can be edited without touching it
        (the records :class:`LoopInfo` hands out are shared)."""
        new = Loop(self.header)
        new.blocks = list(self.blocks)
        new._block_ids = set(self._block_ids)
        new.latches = list(self.latches)
        new.parent = self.parent
        new.children = list(self.children)
        return new

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


class LoopForest:
    """The natural loops of an index CFG, in order of their first back
    edge (blocks in layout order, successors in order). Per loop ``lp``:
    ``headers``, ``members`` (the body), ``parent`` (smallest enclosing
    loop or ``-1``) and ``exit_edges`` (edges leaving the body, at least
    1); per block, ``innermost`` (``-1`` for none). ``records`` are the
    matching :class:`Loop` records (body in the backward walk's order,
    one latch per back edge), ``innermost_first`` them innermost first."""

    __slots__ = (
        "headers", "members", "parent", "innermost", "exit_edges",
        "records", "innermost_first",
    )

    def __init__(self, cfg: IndexCFG):
        dom = dominator_info(cfg)
        succs, preds, pre = cfg.succs, cfg.preds, dom.pre
        headers: List[int] = []
        bodies: List[List[int]] = []
        members: List[Set[int]] = []
        latches: List[List[int]] = []
        loop_of_header: Dict[int, int] = {}
        for latch, succ in enumerate(succs):
            if pre[latch] < 0:
                continue  # unreachable
            for header in succ:
                if not dom.dominates(header, latch):
                    continue
                lp = loop_of_header.get(header)
                if lp is None:
                    lp = loop_of_header[header] = len(headers)
                    headers.append(header)
                    bodies.append([header])
                    members.append({header})
                    latches.append([])
                latches[lp].append(latch)
                # Walk backwards from the latch collecting the body.
                body, member = bodies[lp], members[lp]
                stack = [latch]
                while stack:
                    b = stack.pop()
                    if b in member:
                        continue
                    member.add(b)
                    body.append(b)
                    stack.extend(p for p in preds[b] if pre[p] >= 0)
        n_loops = len(headers)
        # Nesting: the smallest other loop containing the header.
        parent = [-1] * n_loops
        for lp in range(n_loops):
            best = -1
            for other in range(n_loops):
                if other == lp or headers[lp] not in members[other]:
                    continue
                if best < 0 or len(bodies[other]) < len(bodies[best]):
                    best = other
            parent[lp] = best
        innermost = [-1] * len(succs)
        for lp in range(n_loops):
            for b in bodies[lp]:
                cur = innermost[b]
                if cur < 0 or len(bodies[lp]) < len(bodies[cur]):
                    innermost[b] = lp
        self.headers, self.members = tuple(headers), tuple(map(frozenset, members))
        self.parent, self.innermost = tuple(parent), tuple(innermost)
        self.exit_edges = tuple(
            max(sum(1 for b in bodies[lp] for s in succs[b]
                    if s not in members[lp]), 1)
            for lp in range(n_loops)
        )

        blocks = cfg.blocks
        records: List[Loop] = []
        for lp in range(n_loops):
            loop = Loop(blocks[headers[lp]])
            loop.blocks = [blocks[b] for b in bodies[lp]]
            loop._block_ids = set(map(id, loop.blocks))
            loop.latches = [blocks[b] for b in latches[lp]]
            records.append(loop)
        for lp, loop in enumerate(records):
            if parent[lp] >= 0:
                loop.parent = records[parent[lp]]
                loop.parent.children.append(loop)
        self.records = records
        self.innermost_first = sorted(records, key=lambda l: -l.depth)


def loop_forest(cfg: IndexCFG) -> LoopForest:
    """The natural loops of ``cfg``, computed on first use."""
    if cfg.loops is None:
        cfg.loops = LoopForest(cfg)
    return cfg.loops


class LoopInfo:
    """All natural loops of a function, with a nesting forest: a view of
    the cached :class:`LoopForest` of ``fn``'s CFG shape at construction.
    ``loops`` is the view's own list; the :class:`Loop` records in it are
    shared and must not be edited (use :meth:`Loop.copy`)."""

    def __init__(self, fn: Function):
        self.fn = fn
        self._cfg = cfg = index_cfg(fn)
        self._forest = forest = loop_forest(cfg)
        self.loops: List[Loop] = list(forest.records)

    # -- queries ---------------------------------------------------------------
    def loop_for(self, block: BasicBlock) -> Optional[Loop]:
        """Innermost loop containing ``block``."""
        b = self._cfg.index.get(id(block))
        if b is None:
            return None
        lp = self._forest.innermost[b]
        return self._forest.records[lp] if lp >= 0 else None

    def depth_of(self, block: BasicBlock) -> int:
        loop = self.loop_for(block)
        return loop.depth if loop is not None else 0

    def top_level(self) -> List[Loop]:
        return [l for l in self.loops if l.parent is None]

    def innermost_first(self) -> List[Loop]:
        """Loops ordered innermost-to-outermost (stable within a depth)."""
        return list(self._forest.innermost_first)
