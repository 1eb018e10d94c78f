"""Compile-time constant folding shared by several passes.

``instsimplify``, ``instcombine``, ``sccp``/``ipsccp`` and ``gvn`` all fold
through these helpers so the semantics live in exactly one place (and match
the interpreter's).
"""

from __future__ import annotations

import struct
from typing import Optional

from ..ir.instructions import BinaryOp, Cast, FCmp, ICmp, Instruction, Select
from ..ir.interp import _fcmp, _float_binop, _icmp, _int_binop, InterpError
from ..ir.types import I1, FloatType, IntType, PointerType, Type
from ..ir.values import (
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    UndefValue,
    Value,
)


def fold_binary(opcode: str, lhs: Value, rhs: Value) -> Optional[Constant]:
    """Fold a binary op over constants; ``None`` if not foldable."""
    if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
        ty = lhs.int_type
        try:
            return ConstantInt(ty, _int_binop(opcode, ty, lhs.value, rhs.value))
        except InterpError:
            return None  # division by zero: leave the trap in place
    if isinstance(lhs, ConstantFloat) and isinstance(rhs, ConstantFloat):
        assert isinstance(lhs.type, FloatType)
        try:
            result = _float_binop(opcode, lhs.value, rhs.value)
        except InterpError:
            return None
        if result != result or result in (float("inf"), float("-inf")):
            return None  # keep NaN/Inf production visible
        return ConstantFloat(lhs.type, result)
    return None


def fold_icmp(predicate: str, lhs: Value, rhs: Value) -> Optional[ConstantInt]:
    if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
        return ConstantInt(I1, _icmp(predicate, lhs.int_type, lhs.value, rhs.value))
    if isinstance(lhs, ConstantNull) and isinstance(rhs, ConstantNull):
        return ConstantInt(I1, 1 if predicate in ("eq", "ule", "uge", "sle", "sge") else 0)
    return None


def fold_fcmp(predicate: str, lhs: Value, rhs: Value) -> Optional[ConstantInt]:
    if isinstance(lhs, ConstantFloat) and isinstance(rhs, ConstantFloat):
        return ConstantInt(I1, _fcmp(predicate, lhs.value, rhs.value))
    return None


def _round_to(ty: FloatType, value: float) -> float:
    """Round to the target float width, matching the interpreter's casts."""
    if ty.bits == 32:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    return value


def fold_cast(opcode: str, value: Value, to_type: Type) -> Optional[Constant]:
    if isinstance(value, UndefValue):
        return UndefValue(to_type)
    if isinstance(value, ConstantInt):
        src = value.int_type
        if opcode == "trunc" and isinstance(to_type, IntType):
            return ConstantInt(to_type, value.value)
        if opcode == "zext" and isinstance(to_type, IntType):
            return ConstantInt(to_type, value.unsigned)
        if opcode == "sext" and isinstance(to_type, IntType):
            return ConstantInt(to_type, value.value)
        if opcode in ("sitofp", "uitofp") and isinstance(to_type, FloatType):
            raw = value.unsigned if opcode == "uitofp" else value.value
            return ConstantFloat(to_type, _round_to(to_type, float(raw)))
        if opcode == "bitcast" and to_type == value.type:
            return value
        if opcode == "inttoptr" and isinstance(to_type, PointerType):
            if value.value == 0:
                return ConstantNull(to_type)
            return None
    if isinstance(value, ConstantFloat):
        if opcode == "fptosi" and isinstance(to_type, IntType):
            v = value.value
            if v != v or abs(v) > 2**62:
                return None
            return ConstantInt(to_type, int(v))
        if opcode in ("fptrunc", "fpext") and isinstance(to_type, FloatType):
            return ConstantFloat(to_type, _round_to(to_type, value.value))
    if isinstance(value, ConstantNull):
        if opcode == "bitcast" and isinstance(to_type, PointerType):
            return ConstantNull(to_type)
        if opcode == "ptrtoint" and isinstance(to_type, IntType):
            return ConstantInt(to_type, 0)
    return None


def fold_select(cond: Value, tval: Value, fval: Value) -> Optional[Value]:
    if isinstance(cond, ConstantInt):
        return tval if cond.value else fval
    if tval is fval:
        return tval
    return None


def fold_instruction(inst: Instruction) -> Optional[Value]:
    """Fold any fully-constant instruction. Returns replacement or ``None``."""
    ops = inst._operands
    if isinstance(inst, BinaryOp):
        return fold_binary(inst.opcode, ops[0], ops[1])
    if isinstance(inst, ICmp):
        return fold_icmp(inst.predicate, ops[0], ops[1])
    if isinstance(inst, FCmp):
        return fold_fcmp(inst.predicate, ops[0], ops[1])
    if isinstance(inst, Cast):
        return fold_cast(inst.opcode, ops[0], inst.type)
    if isinstance(inst, Select):
        return fold_select(ops[0], ops[1], ops[2])
    return None
