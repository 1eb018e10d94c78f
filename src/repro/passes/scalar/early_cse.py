"""-early-cse / -early-cse-memssa: dominator-scoped common subexpression
elimination with store-to-load forwarding.

Pure expressions are hashed in a scoped table along a dominator-tree walk.
Memory values are tracked with a generation counter bumped at every
may-write instruction: the plain variant only forwards within a basic
block, while the ``-memssa`` variant keeps memory facts across dominated
blocks (mirroring LLVM's MemorySSA-backed EarlyCSE).
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from ...analysis.dominators import DominatorTree
from ...ir.instructions import (
    BinaryOp,
    Call,
    Cast,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Select,
    Store,
    COMMUTATIVE_OPS,
)
from ...ir.module import BasicBlock, Function
from ...ir.values import ConstantFloat, ConstantInt, ConstantNull, UndefValue, Value
from ..base import FunctionPass, register_pass
from .instsimplify import simplify_instruction
from ..utils import erase_trivially_dead, replace_and_erase


def _operand_key(value: Value):
    """Identity for SSA values; by-value identity for scalar constants
    (constants are not interned, so two ``i32 5`` objects must key equal)."""
    cls = value.__class__
    if cls is ConstantInt:
        return ("ci", value.type, value.value)  # type: ignore[attr-defined]
    if cls is ConstantFloat:
        return ("cf", value.type, value.value)  # type: ignore[attr-defined]
    if cls is ConstantNull:
        return ("cn", value.type)
    if cls is UndefValue:
        return ("cu", id(value))  # undefs never CSE with each other
    return id(value)


def _commuted_pair(a, b) -> Tuple:
    """``(a, b)`` in a canonical order, so both operand orders of a
    commutative expression key equal. SSA values (int keys) order by
    value and come before constants (tuple keys)."""
    if a.__class__ is int:
        if b.__class__ is int and b < a:
            return (b, a)
        return (a, b)
    if b.__class__ is int or repr(b) < repr(a):
        return (b, a)
    return (a, b)


def expression_key(inst: Instruction) -> Optional[Tuple]:
    """Hashable structural key for pure, CSE-able instructions."""
    k = _operand_key
    ops = inst._operands
    if isinstance(inst, BinaryOp):
        if inst.opcode in COMMUTATIVE_OPS:
            pair = _commuted_pair(k(ops[0]), k(ops[1]))
        else:
            pair = (k(ops[0]), k(ops[1]))
        return ("bin", inst.opcode, inst.type, pair)
    if isinstance(inst, ICmp):
        return ("icmp", inst.predicate, k(ops[0]), k(ops[1]))
    if isinstance(inst, FCmp):
        return ("fcmp", inst.predicate, k(ops[0]), k(ops[1]))
    if isinstance(inst, Cast):
        return ("cast", inst.opcode, inst.type, k(ops[0]))
    if isinstance(inst, GetElementPtr):
        return ("gep", inst.type, tuple([k(op) for op in ops]))
    if isinstance(inst, Select):
        return ("select", tuple([k(op) for op in ops]))
    if isinstance(inst, Call):
        fn = inst.called_function
        if fn is not None and "readnone" in fn.attributes and "willreturn" in fn.attributes:
            return ("call", fn.name, tuple([k(a) for a in ops[1:]]))
    return None


#: Marks a key that had no entry before a scope's insert.
_ABSENT = object()


class _ScopedTable:
    """Dominator-scoped name lookup: one dict holds the visible entry of
    every key, and each open scope keeps an undo log of the entries its
    inserts shadowed, replayed backwards when the scope is popped."""

    def __init__(self) -> None:
        self.table: Dict = {}
        self.undo: List[List[Tuple]] = [[]]

    def push(self) -> None:
        self.undo.append([])

    def pop(self) -> None:
        table = self.table
        for key, old in reversed(self.undo.pop()):
            if old is _ABSENT:
                del table[key]
            else:
                table[key] = old

    def lookup(self, key):
        return self.table.get(key)

    def insert(self, key, value) -> None:
        self.undo[-1].append((key, self.table.get(key, _ABSENT)))
        self.table[key] = value


class _EarlyCSE:
    def __init__(self, fn: Function, cross_block_memory: bool):
        self.fn = fn
        self.cross_block_memory = cross_block_memory
        self.changed = False

    def run(self) -> bool:
        dom = DominatorTree(self.fn)
        expressions = _ScopedTable()
        memory = _ScopedTable()  # id(pointer) -> (value, generation)
        generation = [0]

        def process_block(block: BasicBlock) -> None:
            if not self.cross_block_memory:
                generation[0] += 1  # forget all memory facts between blocks
                local_gen_floor = generation[0]
            elif block is not self.fn.entry and block.single_predecessor is None:
                # Memory facts only flow along single-pred chains: a merge
                # point may be reached via a path (a dominator-tree sibling)
                # whose stores have not been seen yet on this DFS walk.
                generation[0] += 1
            for inst in list(block.instructions):
                if inst.parent is None:
                    continue
                simplified = simplify_instruction(inst)
                if simplified is not None and simplified is not inst:
                    replace_and_erase(inst, simplified)
                    self.changed = True
                    continue

                if isinstance(inst, Load):
                    fact = memory.lookup(id(inst.pointer))
                    if fact is not None:
                        value, gen = fact
                        valid = gen == generation[0]
                        if not self.cross_block_memory:
                            valid = valid and gen >= local_gen_floor
                        if valid and value.type == inst.type:
                            replace_and_erase(inst, value)
                            self.changed = True
                            continue
                    memory.insert(id(inst.pointer), (inst, generation[0]))
                    continue

                if isinstance(inst, Store):
                    # Idempotent store elimination: storing back the value
                    # that is already known to be in the location.
                    fact = memory.lookup(id(inst.pointer))
                    if (
                        fact is not None
                        and fact[0] is inst.value
                        and fact[1] == generation[0]
                    ):
                        inst.erase_from_parent()
                        self.changed = True
                        continue
                    generation[0] += 1
                    memory.insert(id(inst.pointer), (inst.value, generation[0]))
                    continue

                if inst.may_write_memory:
                    generation[0] += 1
                    continue

                key = expression_key(inst)
                if key is None:
                    continue
                available = expressions.lookup(key)
                if available is not None and available.type == inst.type:
                    replace_and_erase(inst, available)
                    self.changed = True
                else:
                    expressions.insert(key, inst)

        def walk(block: BasicBlock) -> None:
            expressions.push()
            memory.push()
            process_block(block)
            for child in dom.children(block):
                walk(child)
            expressions.pop()
            memory.pop()

        old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old, 4 * len(self.fn.blocks) + 1000))
        try:
            walk(self.fn.entry)
        finally:
            sys.setrecursionlimit(old)
        self.changed |= erase_trivially_dead(self.fn)
        return self.changed


@register_pass
class EarlyCSE(FunctionPass):
    """Fast dominator-scoped CSE; memory facts are block-local."""

    name = "early-cse"

    def run_on_function(self, fn: Function) -> bool:
        return _EarlyCSE(fn, cross_block_memory=False).run()


@register_pass
class EarlyCSEMemSSA(FunctionPass):
    """EarlyCSE with cross-block (dominator-scoped) memory forwarding."""

    name = "early-cse-memssa"

    def run_on_function(self, fn: Function) -> bool:
        return _EarlyCSE(fn, cross_block_memory=True).run()
