"""Lightweight alias analysis and memory-dependence queries.

The rules are deliberately conservative but capture the cases our passes
need: distinct allocas never alias, distinct globals never alias, an alloca
whose address does not escape cannot alias anything external, GEPs with
distinct constant offsets off the same base do not alias.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..ir.instructions import (
    Alloca,
    Call,
    Cast,
    GetElementPtr,
    Instruction,
    Load,
    Phi,
    Select,
    Store,
)
from ..ir.module import Function
from ..ir.values import Argument, GlobalVariable, Value


def underlying_object(pointer: Value, max_depth: int = 12) -> Value:
    """Strip GEPs and pointer casts to find the base object."""
    current = pointer
    for _ in range(max_depth):
        if isinstance(current, GetElementPtr):
            current = current.pointer
        elif isinstance(current, Cast) and current.opcode in ("bitcast", "inttoptr"):
            current = current.value
        else:
            break
    return current


def _is_identified_object(value: Value) -> bool:
    """Objects with a known, distinct identity."""
    return isinstance(value, (Alloca, GlobalVariable))


def _constant_offset_of(pointer: Value) -> Optional[Tuple[Value, int]]:
    """Decompose ``pointer`` into (base, constant byte offset) if possible."""
    if isinstance(pointer, GetElementPtr):
        offset = pointer.constant_offset()
        if offset is None:
            return None
        inner = _constant_offset_of(pointer.pointer)
        if inner is None:
            return (pointer.pointer, offset)
        base, base_off = inner
        return (base, base_off + offset)
    return (pointer, 0)


def must_alias(a: Value, b: Value) -> bool:
    """True only when the two pointers definitely refer to the same address."""
    if a is b:
        return True
    da = _constant_offset_of(a)
    db = _constant_offset_of(b)
    if da is not None and db is not None:
        return da[0] is db[0] and da[1] == db[1]
    return False


def may_alias(a: Value, b: Value) -> bool:
    """True unless the two pointers provably never overlap."""
    if a is b:
        return True
    base_a = underlying_object(a)
    base_b = underlying_object(b)
    if _is_identified_object(base_a) and _is_identified_object(base_b):
        if base_a is not base_b:
            return False
        # Same base: compare constant offsets when both are known.
        da = _constant_offset_of(a)
        db = _constant_offset_of(b)
        if da is not None and db is not None and da[0] is db[0]:
            size_a = _access_size(a)
            size_b = _access_size(b)
            if size_a is not None and size_b is not None:
                return not (
                    da[1] + size_a <= db[1] or db[1] + size_b <= da[1]
                )
        return True
    return True


def _access_size(pointer: Value) -> Optional[int]:
    from ..ir.types import PointerType

    if isinstance(pointer.type, PointerType):
        ty = pointer.type.pointee
        try:
            return ty.size
        except (TypeError, NotImplementedError):
            return None
    return None


def pointer_escapes(alloca: Alloca) -> bool:
    """Conservative escape check: the address leaves the function if it is
    used by anything but direct loads/stores/GEPs/casts (recursively)."""
    worklist: List[Value] = [alloca]
    seen = set()
    while worklist:
        pointer = worklist.pop()
        if id(pointer) in seen:
            continue
        seen.add(id(pointer))
        for use in pointer.uses:
            user = use.user
            if isinstance(user, Load):
                continue
            if isinstance(user, Store):
                if user.value is pointer:
                    return True  # the address itself is stored somewhere
                continue
            if isinstance(user, (GetElementPtr, Cast, Phi, Select)):
                worklist.append(user)  # derived pointer: keep chasing
                continue
            return True  # calls, ptrtoint, returns, comparisons, ...
    return False


def clobbers_between(
    start: Instruction, end: Instruction, pointer: Value
) -> bool:
    """May any instruction strictly between ``start`` and ``end`` (same
    block) write memory that aliases ``pointer``?"""
    block = start.parent
    assert block is not None and block is end.parent
    insts = block.instructions
    lo = insts.index(start) + 1
    hi = insts.index(end)
    for inst in insts[lo:hi]:
        if isinstance(inst, Store) and may_alias(inst.pointer, pointer):
            return True
        if isinstance(inst, Call) and inst.may_write_memory:
            base = underlying_object(pointer)
            if isinstance(base, Alloca) and not pointer_escapes(base):
                continue  # non-escaping locals are invisible to calls
            return True
    return False
