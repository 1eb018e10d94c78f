"""IR verifier.

Checks the structural invariants every pass must preserve. Run after each
pass in the test-suite (``PassManager(verify=True)``) so a pass that breaks
SSA form or the CFG fails loudly at the point of breakage.
"""

from __future__ import annotations

from typing import List, Set

from .instructions import Branch, Call, Instruction, Phi, Ret, Switch
from .module import BasicBlock, Function, Module
from .types import FunctionType, VOID
from .values import Argument, Constant, GlobalValue, Value


class VerificationError(Exception):
    """Raised when a module violates an IR invariant."""


def verify_module(module: Module) -> None:
    """Verify every function; raises :class:`VerificationError` on failure."""
    errors: List[str] = []
    for fn in module.functions:
        if fn.is_declaration:
            continue
        errors.extend(_verify_function(fn))
    if errors:
        raise VerificationError("\n".join(errors))


def verify_function(fn: Function) -> None:
    errors = _verify_function(fn)
    if errors:
        raise VerificationError("\n".join(errors))


def _verify_function(fn: Function) -> List[str]:
    errors: List[str] = []
    where = f"@{fn.name}"
    blocks: Set[int] = {id(b) for b in fn.blocks}

    if not fn.blocks:
        return [f"{where}: defined function has no blocks"]

    for block in fn.blocks:
        bwhere = f"{where}/%{block.name}"
        if block.parent is not fn:
            errors.append(f"{bwhere}: bad parent link")
        if not block.instructions:
            errors.append(f"{bwhere}: empty block")
            continue
        term = block.instructions[-1]
        if not term.is_terminator:
            errors.append(f"{bwhere}: missing terminator")
        for inst in block.instructions[:-1]:
            if inst.is_terminator:
                errors.append(f"{bwhere}: terminator {inst.opcode} in block middle")
        seen_non_phi = False
        for inst in block.instructions:
            if isinstance(inst, Phi):
                if seen_non_phi:
                    errors.append(f"{bwhere}: phi after non-phi")
            else:
                seen_non_phi = True
            if inst.parent is not block:
                errors.append(f"{bwhere}: instruction with bad parent: {inst!r}")

    # Phi / predecessor consistency + successor sanity.
    for block in fn.blocks:
        bwhere = f"{where}/%{block.name}"
        for succ in block.successors():
            if id(succ) not in blocks:
                errors.append(f"{bwhere}: successor %{succ.name} not in function")
        preds = block.predecessors()
        pred_ids = {id(p) for p in preds}
        for phi in block.phis():
            incoming_ids = [id(phi.incoming_block(i)) for i in range(phi.num_incoming)]
            if set(incoming_ids) != pred_ids or len(incoming_ids) != len(pred_ids):
                pred_names = sorted(p.name for p in preds)
                inc_names = sorted(
                    phi.incoming_block(i).name for i in range(phi.num_incoming)
                )
                errors.append(
                    f"{bwhere}: phi %{phi.name} incoming {inc_names} != preds {pred_names}"
                )

    # Return type consistency.
    for block in fn.blocks:
        term = block.terminator
        if isinstance(term, Ret):
            if fn.return_type.is_void:
                if term.value is not None:
                    errors.append(f"{where}: ret with value in void function")
            elif term.value is None:
                errors.append(f"{where}: ret void in non-void function")
            elif term.value.type != fn.return_type:
                errors.append(
                    f"{where}: ret type {term.value.type} != {fn.return_type}"
                )

    # Call signature checks.
    for inst in fn.instructions():
        if isinstance(inst, Call):
            callee = inst.called_function
            if callee is None:
                continue
            ftype = callee.ftype
            if len(inst.args) < len(ftype.params) or (
                len(inst.args) > len(ftype.params) and not ftype.vararg
            ):
                errors.append(
                    f"{where}: call to @{callee.name} with {len(inst.args)} args, "
                    f"expected {len(ftype.params)}"
                )
                continue
            for i, (arg, pty) in enumerate(zip(inst.args, ftype.params)):
                if arg.type != pty:
                    errors.append(
                        f"{where}: call to @{callee.name} arg {i}: "
                        f"{arg.type} != {pty}"
                    )

    errors.extend(_verify_ssa(fn))
    errors.extend(_verify_uses(fn))
    return errors


def _verify_ssa(fn: Function) -> List[str]:
    """Check the dominance property of SSA defs over uses."""
    from ..analysis.dominators import DominatorTree

    errors: List[str] = []
    try:
        dom = DominatorTree(fn)
    except Exception as exc:  # pragma: no cover - dominator bug
        return [f"@{fn.name}: dominator construction failed: {exc}"]

    positions = {}
    for block in fn.blocks:
        for i, inst in enumerate(block.instructions):
            positions[id(inst)] = (block, i)

    for block in fn.blocks:
        if not dom.is_reachable(block):
            continue
        for i, inst in enumerate(block.instructions):
            for op_index, op in enumerate(inst.operands):
                if not isinstance(op, Instruction):
                    continue
                pos = positions.get(id(op))
                if pos is None:
                    errors.append(
                        f"@{fn.name}/%{block.name}: operand of %{inst.name or inst.opcode} "
                        f"defined outside function: {op!r}"
                    )
                    continue
                def_block, def_index = pos
                if isinstance(inst, Phi):
                    # A phi use must be dominated at the end of the matching
                    # incoming block.
                    if op_index % 2 == 0:
                        pred = inst.operand(op_index + 1)
                        if dom.is_reachable(pred) and not dom.dominates_block(
                            def_block, pred
                        ):
                            errors.append(
                                f"@{fn.name}/%{block.name}: phi %{inst.name} incoming "
                                f"%{op.name} does not dominate pred %{pred.name}"
                            )
                    continue
                if def_block is block:
                    if def_index >= i:
                        errors.append(
                            f"@{fn.name}/%{block.name}: %{op.name} used before def"
                        )
                elif dom.is_reachable(def_block) and not dom.dominates_block(
                    def_block, block
                ):
                    errors.append(
                        f"@{fn.name}/%{block.name}: def %{op.name} in %{def_block.name} "
                        f"does not dominate use in %{block.name}"
                    )
    return errors


def _verify_uses(fn: Function) -> List[str]:
    """Check def-use bookkeeping consistency of every operand that keeps a
    use list (non-global constants keep none)."""
    errors: List[str] = []
    for block in fn.blocks:
        for inst in block.instructions:
            for i, op in enumerate(inst.operands):
                if isinstance(op, Constant) and not isinstance(op, GlobalValue):
                    continue
                found = any(
                    use.user is inst and use.index == i for use in op.uses
                )
                if not found:
                    errors.append(
                        f"@{fn.name}: missing use record: "
                        f"%{inst.name or inst.opcode} operand {i}"
                    )
    return errors
