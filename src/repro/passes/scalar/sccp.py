"""-sccp: sparse conditional constant propagation.

Classic Wegman–Zadeck three-level lattice (top / constant / overdefined)
with executable-edge tracking, so constants are propagated *through*
branches that are themselves decided by constants. The solver core is
shared with the interprocedural ``-ipsccp`` pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from ...analysis.cfg import remove_unreachable_blocks
from ...ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Switch,
)
from ...ir.module import BasicBlock, Function
from ...ir.values import (
    Argument,
    Constant,
    ConstantFloat,
    ConstantInt,
    UndefValue,
    Value,
)
from ..base import FunctionPass, register_pass
from ..fold import fold_binary, fold_cast, fold_fcmp, fold_icmp
from ..utils import constant_fold_terminator, erase_trivially_dead

TOP = "top"
BOTTOM = "bottom"
LatticeValue = Union[str, Constant]


def _meet(a: LatticeValue, b: LatticeValue) -> LatticeValue:
    # TOP and BOTTOM are the module's sentinel strings, so identity tests
    # suffice (and skip comparing constants with strings).
    if a is TOP:
        return b
    if b is TOP:
        return a
    if a is BOTTOM or b is BOTTOM:
        return BOTTOM
    if _same_constant(a, b):  # type: ignore[arg-type]
        return a
    return BOTTOM


def _same_constant(a: Constant, b: Constant) -> bool:
    if isinstance(a, ConstantInt) and isinstance(b, ConstantInt):
        return a.type == b.type and a.value == b.value
    if isinstance(a, ConstantFloat) and isinstance(b, ConstantFloat):
        return a.type == b.type and a.value == b.value
    return a is b


class SCCPSolver:
    """The dataflow engine; usable per-function or interprocedurally."""

    def __init__(self, fn: Function, arg_values: Optional[Dict[int, LatticeValue]] = None):
        self.fn = fn
        self.lattice: Dict[int, LatticeValue] = {}
        self.executable_edges: Set[Tuple[int, int]] = set()
        self.executable_blocks: Set[int] = set()
        self.ssa_worklist: List[Instruction] = []
        self.block_worklist: List[BasicBlock] = []
        for arg in fn.args:
            self.lattice[id(arg)] = (
                arg_values.get(id(arg), BOTTOM) if arg_values else BOTTOM
            )
        #: meet of all returned values, for interprocedural use
        self.return_value: LatticeValue = TOP

    # -- lattice access ------------------------------------------------------
    def value_of(self, value: Value) -> LatticeValue:
        if isinstance(value, Constant):
            if value.__class__ is UndefValue:
                return BOTTOM  # do not exploit undef (keeps interp-equivalence)
            return value
        return self.lattice.get(id(value), TOP)

    def _set(self, inst: Instruction, value: LatticeValue) -> None:
        # Monotonic: TOP -> constant -> BOTTOM; a second, different
        # constant means BOTTOM, and BOTTOM stays.
        key = id(inst)
        old = self.lattice.get(key, TOP)
        if old is TOP:
            if value is TOP:
                return
            new = value
        elif old is BOTTOM or value is TOP or (
            value is not BOTTOM and _same_constant(old, value)  # type: ignore[arg-type]
        ):
            return
        else:
            new = BOTTOM
        self.lattice[key] = new
        executable = self.executable_blocks
        worklist = self.ssa_worklist
        for use in inst.uses:
            user = use.user
            if isinstance(user, Instruction) and user.parent is not None:
                if id(user.parent) in executable:
                    worklist.append(user)

    def _mark_edge(self, src: BasicBlock, dst: BasicBlock) -> None:
        edge = (id(src), id(dst))
        if edge in self.executable_edges:
            return
        self.executable_edges.add(edge)
        if id(dst) not in self.executable_blocks:
            self.executable_blocks.add(id(dst))
            self.block_worklist.append(dst)
        else:
            # Only the phis need revisiting for a newly executable edge.
            for phi in dst.phis():
                self.ssa_worklist.append(phi)

    # -- transfer functions -----------------------------------------------------
    def _visit_phi(self, inst: Phi) -> None:
        ops = inst._operands
        block_id = id(inst.parent)
        edges = self.executable_edges
        result: LatticeValue = TOP
        for i in range(0, len(ops), 2):
            if (id(ops[i + 1]), block_id) in edges:
                result = _meet(result, self.value_of(ops[i]))
        self._set(inst, result)

    def _visit_ret(self, inst: Ret) -> None:
        if inst._operands:
            self.return_value = _meet(
                self.return_value, self.value_of(inst._operands[0])
            )
        else:
            self.return_value = BOTTOM

    def _visit_call(self, inst: Call) -> None:
        if not inst.type.is_void:
            self._set(inst, self._call_value(inst))

    def _visit_memory(self, inst: Instruction) -> None:
        # Memory contents and addresses are not modelled: overdefined.
        if not inst.type.is_void:
            self._set(inst, BOTTOM)

    def _constant_operands(self, inst: Instruction) -> Optional[List[Constant]]:
        """The operands' lattice values when all are constants. An
        overdefined operand makes ``inst`` overdefined; an unknown one
        leaves it waiting for more information. Both return None."""
        value_of = self.value_of
        values = [value_of(op) for op in inst._operands]
        if BOTTOM in values:
            self._set(inst, BOTTOM)
            return None
        if TOP in values:
            return None
        return values  # type: ignore[return-value]

    def _visit_binary(self, inst: BinaryOp) -> None:
        consts = self._constant_operands(inst)
        if consts is not None:
            folded = fold_binary(inst.opcode, consts[0], consts[1])
            self._set(inst, folded if folded is not None else BOTTOM)

    def _visit_icmp(self, inst: ICmp) -> None:
        consts = self._constant_operands(inst)
        if consts is not None:
            folded = fold_icmp(inst.predicate, consts[0], consts[1])
            self._set(inst, folded if folded is not None else BOTTOM)

    def _visit_fcmp(self, inst: FCmp) -> None:
        consts = self._constant_operands(inst)
        if consts is not None:
            folded = fold_fcmp(inst.predicate, consts[0], consts[1])
            self._set(inst, folded if folded is not None else BOTTOM)

    def _visit_cast(self, inst: Cast) -> None:
        consts = self._constant_operands(inst)
        if consts is not None:
            folded = fold_cast(inst.opcode, consts[0], inst.type)
            self._set(inst, folded if folded is not None else BOTTOM)

    def _visit_select(self, inst: Select) -> None:
        consts = self._constant_operands(inst)
        if consts is not None:
            cond = consts[0]
            if isinstance(cond, ConstantInt):
                self._set(inst, consts[1] if cond.value else consts[2])
            else:
                self._set(inst, BOTTOM)

    def _visit_other(self, inst: Instruction) -> None:
        if not inst.type.is_void and self._constant_operands(inst) is not None:
            self._set(inst, BOTTOM)

    def _call_value(self, inst: Call) -> LatticeValue:
        """Overridden by ipsccp to consult callee summaries."""
        return BOTTOM

    def _visit_branch(self, inst: Branch) -> None:
        block = inst.parent
        assert block is not None
        ops = inst._operands
        if len(ops) == 1:
            self._mark_edge(block, ops[0])  # type: ignore[arg-type]
            return
        cond = self.value_of(ops[0])
        if isinstance(cond, ConstantInt):
            self._mark_edge(block, ops[1] if cond.value else ops[2])  # type: ignore[arg-type]
        elif cond == BOTTOM:
            self._mark_edge(block, ops[1])  # type: ignore[arg-type]
            self._mark_edge(block, ops[2])  # type: ignore[arg-type]

    def _visit_switch(self, inst: Switch) -> None:
        block = inst.parent
        assert block is not None
        value = self.value_of(inst.value)
        if isinstance(value, ConstantInt):
            taken = inst.default
            for cv, target in inst.cases():
                if cv.value == value.value:
                    taken = target
                    break
            self._mark_edge(block, taken)
        elif value == BOTTOM:
            for target in inst.targets:
                self._mark_edge(block, target)

    # -- driver -------------------------------------------------------------------
    def solve(self) -> None:
        entry = self.fn.entry
        self.executable_blocks.add(id(entry))
        self.block_worklist.append(entry)
        visitor = _VISITORS.get
        other = SCCPSolver._visit_other
        while self.block_worklist or self.ssa_worklist:
            while self.ssa_worklist:
                inst = self.ssa_worklist.pop()
                if inst.parent is not None and id(inst.parent) in self.executable_blocks:
                    visitor(inst.__class__, other)(self, inst)
            while self.block_worklist:
                block = self.block_worklist.pop()
                for inst in block.instructions:
                    visitor(inst.__class__, other)(self, inst)

    # -- applying the solution ----------------------------------------------------
    def apply(self) -> bool:
        changed = False
        for block in list(self.fn.blocks):
            if id(block) not in self.executable_blocks:
                continue
            for inst in list(block.instructions):
                if inst.type.is_void or inst.parent is None:
                    continue
                value = self.lattice.get(id(inst))
                if isinstance(value, Constant) and inst.has_uses:
                    inst.replace_all_uses_with(value)
                    changed = True
            changed |= constant_fold_terminator(block)
        changed |= remove_unreachable_blocks(self.fn)
        changed |= erase_trivially_dead(self.fn)
        return changed


#: Transfer function per instruction class (every class not listed takes
#: ``_visit_other``: void, or overdefined once its operands are known).
_VISITORS = {
    Phi: SCCPSolver._visit_phi,
    Branch: SCCPSolver._visit_branch,
    Switch: SCCPSolver._visit_switch,
    Ret: SCCPSolver._visit_ret,
    Call: SCCPSolver._visit_call,
    Load: SCCPSolver._visit_memory,
    Alloca: SCCPSolver._visit_memory,
    BinaryOp: SCCPSolver._visit_binary,
    ICmp: SCCPSolver._visit_icmp,
    FCmp: SCCPSolver._visit_fcmp,
    Cast: SCCPSolver._visit_cast,
    Select: SCCPSolver._visit_select,
}


@register_pass
class SCCP(FunctionPass):
    """Sparse conditional constant propagation."""

    name = "sccp"

    def run_on_function(self, fn: Function) -> bool:
        solver = SCCPSolver(fn)
        solver.solve()
        return solver.apply()
