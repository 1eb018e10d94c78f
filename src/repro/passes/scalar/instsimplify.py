"""-instsimplify: fold instructions to *existing* values.

Simplifications here never create new instructions — they return a constant
or an already-available value (that restriction is what distinguishes this
pass from ``instcombine``). The :func:`simplify_instruction` helper is also
called by instcombine, GVN and SCCP.
"""

from __future__ import annotations

from typing import Optional

from ...ir.instructions import (
    BinaryOp,
    Cast,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Phi,
    Select,
)
from ...ir.module import Function
from ...ir.types import I1, IntType
from ...ir.values import ConstantFloat, ConstantInt, UndefValue, Value
from ..base import FunctionPass, register_pass
from ..fold import fold_instruction
from ..utils import erase_trivially_dead, replace_and_erase


def _simplify_binary(inst: BinaryOp) -> Optional[Value]:
    op, lhs, rhs = inst.opcode, inst.lhs, inst.rhs
    lc = lhs if isinstance(lhs, ConstantInt) else None
    rc = rhs if isinstance(rhs, ConstantInt) else None

    if op == "add":
        if rc is not None and rc.is_zero():
            return lhs
        if lc is not None and lc.is_zero():
            return rhs
    elif op == "sub":
        if rc is not None and rc.is_zero():
            return lhs
        if lhs is rhs:
            return ConstantInt(inst.type, 0)  # type: ignore[arg-type]
    elif op == "mul":
        if rc is not None:
            if rc.is_zero():
                return rc
            if rc.is_one():
                return lhs
        if lc is not None:
            if lc.is_zero():
                return lc
            if lc.is_one():
                return rhs
    elif op in ("sdiv", "udiv"):
        if rc is not None and rc.is_one():
            return lhs
        if lhs is rhs and rc is None and lc is None:
            return None  # x/x == 1 only if x != 0; not provable
    elif op in ("srem", "urem"):
        if rc is not None and rc.is_one():
            return ConstantInt(inst.type, 0)  # type: ignore[arg-type]
    elif op == "and":
        if lhs is rhs:
            return lhs
        if rc is not None:
            if rc.is_zero():
                return rc
            if rc.is_all_ones():
                return lhs
        if lc is not None:
            if lc.is_zero():
                return lc
            if lc.is_all_ones():
                return rhs
    elif op == "or":
        if lhs is rhs:
            return lhs
        if rc is not None:
            if rc.is_zero():
                return lhs
            if rc.is_all_ones():
                return rc
        if lc is not None:
            if lc.is_zero():
                return rhs
            if lc.is_all_ones():
                return lc
    elif op == "xor":
        if lhs is rhs:
            return ConstantInt(inst.type, 0)  # type: ignore[arg-type]
        if rc is not None and rc.is_zero():
            return lhs
        if lc is not None and lc.is_zero():
            return rhs
    elif op in ("shl", "lshr", "ashr"):
        if rc is not None and rc.is_zero():
            return lhs
        if lc is not None and lc.is_zero():
            return lc
    elif op in ("fadd", "fsub"):
        if isinstance(rhs, ConstantFloat) and rhs.value == 0.0:
            return lhs
        if op == "fadd" and isinstance(lhs, ConstantFloat) and lhs.value == 0.0:
            return rhs
    elif op in ("fmul", "fdiv"):
        if isinstance(rhs, ConstantFloat) and rhs.value == 1.0:
            return lhs
        if op == "fmul" and isinstance(lhs, ConstantFloat) and lhs.value == 1.0:
            return rhs
    return None


_ALWAYS_TRUE = frozenset({"eq", "sle", "sge", "ule", "uge"})


def _simplify_icmp(inst: ICmp) -> Optional[Value]:
    if inst.lhs is inst.rhs:
        return ConstantInt(I1, 1 if inst.predicate in _ALWAYS_TRUE else 0)
    return None


def simplify_instruction(inst: Instruction) -> Optional[Value]:
    """Return an existing value equivalent to ``inst``, or ``None``."""
    folded = fold_instruction(inst)
    if folded is not None:
        return folded
    if isinstance(inst, BinaryOp):
        return _simplify_binary(inst)
    if isinstance(inst, ICmp):
        return _simplify_icmp(inst)
    if isinstance(inst, FCmp):
        return None
    if isinstance(inst, Select):
        if inst.true_value is inst.false_value:
            return inst.true_value
    if isinstance(inst, Phi):
        return inst.unique_value()
    if isinstance(inst, GetElementPtr):
        if all(
            isinstance(i, ConstantInt) and i.is_zero() for i in inst.indices
        ) and inst.type == inst.pointer.type:
            return inst.pointer
    if isinstance(inst, Cast):
        if inst.opcode == "bitcast" and inst.type == inst.value.type:
            return inst.value
    return None


@register_pass
class InstSimplify(FunctionPass):
    """Fold instructions to existing values, then sweep dead code."""

    name = "instsimplify"

    def run_on_function(self, fn: Function) -> bool:
        changed = False
        progress = True
        while progress:
            progress = False
            for block in fn.blocks:
                for inst in list(block.instructions):
                    if inst.parent is None:
                        continue
                    replacement = simplify_instruction(inst)
                    if replacement is not None and replacement is not inst:
                        replace_and_erase(inst, replacement)
                        progress = True
            changed |= progress
        changed |= erase_trivially_dead(fn)
        return changed
