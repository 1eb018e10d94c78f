"""Instruction selection: lower IR instructions to machine-op lists.

This is a *cost-model* lowering: it produces the machine-op classes (with
no operands) that a real ISel would, so that the object-size and MCA
models see a realistic instruction stream — compare+branch fusion, GEPs
folded into addressing modes, immediate materialization, phi-resolution
copies, argument setup, etc.
"""

from __future__ import annotations

from typing import List

from ..ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    ExtractElement,
    FCmp,
    GetElementPtr,
    ICmp,
    InsertElement,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
)
from ..ir.types import FloatType, IntType, VectorType
from ..ir.values import ConstantInt, ConstantVector
from .target import TargetDescriptor

_INT_OP_CLASS = {
    "add": "alu", "sub": "alu", "and": "alu", "or": "alu", "xor": "alu",
    "shl": "alu", "lshr": "alu", "ashr": "alu",
    "mul": "imul",
    "sdiv": "idiv", "udiv": "idiv", "srem": "idiv", "urem": "idiv",
}
_FLOAT_OP_CLASS = {
    "fadd": "fpalu", "fsub": "fpalu",
    "fmul": "fpmul",
    "fdiv": "fpdiv", "frem": "fpdiv",
}


def _is_addressing_foldable(gep: GetElementPtr) -> bool:
    """GEPs whose every use is a load/store address fold into the
    addressing mode (base + index*scale + disp) and cost nothing."""
    if len(gep.indices) > 2:
        return False
    for use in gep.uses:
        user = use.user
        if isinstance(user, Load) and user.pointer is gep:
            continue
        if isinstance(user, Store) and user.pointer is gep and user.value is not gep:
            continue
        return False
    return bool(gep.uses)


def _fused_with_branch(icmp: Instruction) -> bool:
    """A compare only consumed by one branch fuses into cmp+jcc."""
    users = list(icmp.users())
    return (
        len(users) == 1
        and isinstance(users[0], Branch)
        and users[0].parent is icmp.parent
    )


def _movimm(target: TargetDescriptor, operands) -> List[str]:
    """One ``movimm`` per integer constant too wide for a short
    immediate, in operand order."""
    limit = target.max_short_imm
    return [
        "movimm"
        for op in operands
        if isinstance(op, ConstantInt) and abs(op.value) > limit
    ]


def _lower_binary(inst: BinaryOp, target: TargetDescriptor) -> List[str]:
    ops = _movimm(target, inst._operands)
    ty = inst.type
    if isinstance(ty, VectorType):
        ops.append("vfp" if ty.element.is_float else "valu")
        if inst.opcode in ("sdiv", "udiv", "srem", "urem", "fdiv"):
            ops.append("vfp")  # divides decompose
    elif isinstance(ty, FloatType):
        ops.append(_FLOAT_OP_CLASS[inst.opcode])
    else:
        cls = _INT_OP_CLASS[inst.opcode]
        ops.append(cls)
        if cls == "idiv" and not target.fixed_width:
            ops.append("alu")  # cdq/cqo sign-extension companion
    return ops


def _lower_compare(inst: Instruction, target: TargetDescriptor) -> List[str]:
    ops = _movimm(target, inst._operands)
    ops.append("fpalu" if isinstance(inst, FCmp) else "alu")  # cmp
    if not _fused_with_branch(inst):
        users = list(inst.users())
        if not all(isinstance(u, (Select, Branch)) for u in users):
            ops.append("alu")  # setcc / cset materialization
    return ops


def _lower_alloca(inst: Alloca, target: TargetDescriptor) -> List[str]:
    return []  # folded into frame layout; see objfile accounting


def _lower_load(inst: Load, target: TargetDescriptor) -> List[str]:
    if isinstance(inst.type, VectorType):
        return ["vload"]
    return ["load"]


def _lower_store(inst: Store, target: TargetDescriptor) -> List[str]:
    value = inst.value
    ops = _movimm(target, (value,))
    ops.append("vstore" if isinstance(value.type, VectorType) else "store")
    return ops


def _lower_gep(inst: GetElementPtr, target: TargetDescriptor) -> List[str]:
    if _is_addressing_foldable(inst):
        return []
    if inst.has_all_constant_indices:
        return ["lea"]
    return ["lea"] + (["alu"] if len(inst.indices) > 1 else [])


def _lower_phi(inst: Phi, target: TargetDescriptor) -> List[str]:
    # Phis cost a move per incoming edge (resolved in predecessors);
    # attribute them to the phi so block sizes stay well-defined.
    return ["mov"] * inst.num_incoming


def _lower_select(inst: Select, target: TargetDescriptor) -> List[str]:
    ops = _movimm(target, (inst.true_value, inst.false_value))
    ops.append("cmov")
    return ops


def _lower_cast(inst: Cast, target: TargetDescriptor) -> List[str]:
    if inst.opcode in ("bitcast", "inttoptr", "ptrtoint", "trunc"):
        return []  # register reinterpretation
    if inst.opcode in ("zext", "sext"):
        return ["alu"]
    return ["fpalu"]  # fp<->int conversions


def _lower_vector_element(inst: Instruction, target: TargetDescriptor) -> List[str]:
    return ["valu"]


def _lower_call(inst: Call, target: TargetDescriptor) -> List[str]:
    callee = inst.called_function
    n_args = inst.num_operands - 1
    if callee is not None and callee.name.startswith("llvm.memset"):
        return ["mov"] * 3 + ["call"]
    if callee is not None and callee.name.startswith("llvm.memcpy"):
        return ["mov"] * 3 + ["call"]
    if callee is not None and callee.name.startswith("llvm."):
        return ["alu"]  # residual intrinsics lower to an op or nothing
    ops = ["mov"] * min(n_args, 6)
    ops.extend(["store"] * max(0, n_args - 6))  # stack-passed args
    ops.append("call")
    return ops


def _lower_branch(inst: Branch, target: TargetDescriptor) -> List[str]:
    if inst.is_conditional:
        cond = inst.condition
        fused = isinstance(cond, (ICmp, FCmp)) and _fused_with_branch(cond)
        if fused:
            return ["branch"]
        return ["alu", "branch"]  # test + jcc
    return ["branch"]


def _lower_switch(inst: Switch, target: TargetDescriptor) -> List[str]:
    # Compare-and-branch chain (small switches; Oz avoids jump tables).
    return ["alu", "branch"] * max(1, inst.num_cases) + ["branch"]


def _lower_ret(inst: Ret, target: TargetDescriptor) -> List[str]:
    return ["ret"]


def _lower_unreachable(inst: Unreachable, target: TargetDescriptor) -> List[str]:
    return ["trap"]


_LOWERERS = {
    BinaryOp: _lower_binary,
    ICmp: _lower_compare,
    FCmp: _lower_compare,
    Alloca: _lower_alloca,
    Load: _lower_load,
    Store: _lower_store,
    GetElementPtr: _lower_gep,
    Phi: _lower_phi,
    Select: _lower_select,
    Cast: _lower_cast,
    ExtractElement: _lower_vector_element,
    InsertElement: _lower_vector_element,
    Call: _lower_call,
    Branch: _lower_branch,
    Switch: _lower_switch,
    Ret: _lower_ret,
    Unreachable: _lower_unreachable,
}


def lower_instruction(
    inst: Instruction, target: TargetDescriptor
) -> List[str]:
    """Machine-op classes for one IR instruction (a fresh list)."""
    lower = _LOWERERS.get(type(inst))
    if lower is None:
        # A subclass lowers as its nearest lowered base class.
        for cls in type(inst).__mro__[1:]:
            lower = _LOWERERS.get(cls)
            if lower is not None:
                break
        else:  # pragma: no cover - all instructions covered above
            raise TypeError(f"cannot lower {inst!r}")
    return lower(inst, target)
