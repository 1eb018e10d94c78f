"""Small IR-surgery helpers shared across passes."""

from __future__ import annotations

from typing import List, Optional

from ..ir.builder import IRBuilder
from ..ir.instructions import Branch, Instruction, Phi, Switch
from ..ir.module import BasicBlock, Function
from ..ir.values import ConstantInt, UndefValue, Value


def replace_and_erase(inst: Instruction, replacement: Value) -> None:
    """RAUW + erase: the standard way a pass retires an instruction."""
    inst.replace_all_uses_with(replacement)
    inst.erase_from_parent()


def erase_trivially_dead(fn: Function) -> bool:
    """Iteratively remove instructions with no uses and no side effects."""
    changed = False
    progress = True
    while progress:
        progress = False
        for block in fn.blocks:
            for inst in reversed(list(block.instructions)):
                if inst.is_trivially_dead:
                    inst.erase_from_parent()
                    progress = True
                    changed = True
    return changed


def simplify_single_incoming_phis(block: BasicBlock) -> bool:
    """Replace phis that have one incoming value (or all-same) with it."""
    changed = False
    for phi in list(block.phis()):
        unique = phi.unique_value()
        if unique is not None:
            replace_and_erase(phi, unique)
            changed = True
        elif phi.num_incoming == 0:
            replace_and_erase(phi, UndefValue(phi.type))
            changed = True
    return changed


def merge_block_into_predecessor(block: BasicBlock) -> bool:
    """Fold ``block`` into its unique predecessor when the predecessor's
    only successor is ``block`` (and no phi complications remain)."""
    pred = block.single_predecessor
    if pred is None or pred is block:
        return False
    if pred.successors() != [block]:
        return False
    # Phis in `block` are trivially single-incoming; fold them first.
    simplify_single_incoming_phis(block)
    if block.phis():
        return False
    term = pred.terminator
    assert term is not None
    term.erase_from_parent()
    for inst in list(block.instructions):
        inst.parent = None
        pred.append(inst)
    block.instructions.clear()
    # Anyone referring to `block` (phis in successors) now sees `pred`.
    block.replace_all_uses_with(pred)
    block.erase_from_parent()
    return True


def redirect_branch(
    block: BasicBlock, old_target: BasicBlock, new_target: BasicBlock
) -> None:
    """Point every edge block->old_target at new_target, updating phis."""
    term = block.terminator
    assert term is not None
    for i, op in enumerate(term.operands):
        if op is old_target:
            term.set_operand(i, new_target)
    for phi in new_target.phis():
        incoming = phi.incoming_for_block(old_target)
        if incoming is not None and phi.incoming_for_block(block) is None:
            phi.add_incoming(incoming, block)
    old_target.remove_phi_incoming_for(block)


def split_edge(pred: BasicBlock, succ: BasicBlock, name: str = "") -> BasicBlock:
    """Insert a fresh block on the edge pred->succ; returns the new block."""
    fn = pred.parent
    assert fn is not None
    mid = fn.add_block(name or fn.next_name("split"))
    term = pred.terminator
    assert term is not None
    for i, op in enumerate(term.operands):
        if op is succ:
            term.set_operand(i, mid)
    IRBuilder(mid).br(succ)
    for phi in succ.phis():
        for i in range(phi.num_incoming):
            if phi.incoming_block(i) is pred:
                phi.set_operand(2 * i + 1, mid)
    return mid


def constant_fold_terminator(block: BasicBlock) -> bool:
    """Turn a conditional branch on a constant into an unconditional one,
    and fold switches over constants."""
    term = block.terminator
    if isinstance(term, Branch) and term.is_conditional:
        cond = term.condition
        if isinstance(cond, ConstantInt):
            taken = term.true_target if cond.value else term.false_target
            dead = term.false_target if cond.value else term.true_target
            term.erase_from_parent()
            IRBuilder(block).br(taken)
            if dead is not taken:
                dead.remove_phi_incoming_for(block)
            return True
        if term.true_target is term.false_target:
            target = term.true_target
            term.erase_from_parent()
            IRBuilder(block).br(target)
            return True
    if isinstance(term, Switch):
        value = term.value
        if isinstance(value, ConstantInt):
            taken = term.default
            for cv, target in term.cases():
                if cv.value == value.value:
                    taken = target
                    break
            others = {id(b) for b in term.targets if b is not taken}
            all_targets = term.targets
            term.erase_from_parent()
            IRBuilder(block).br(taken)
            for target in all_targets:
                if id(target) in others:
                    target.remove_phi_incoming_for(block)
            return True
        if term.num_cases == 0:
            target = term.default
            term.erase_from_parent()
            IRBuilder(block).br(target)
            return True
    return False
