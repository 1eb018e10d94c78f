"""-loop-simplify and -lcssa: canonical loop form.

loop-simplify guarantees every loop a preheader, a single latch and
dedicated exit blocks; lcssa rewrites out-of-loop uses of loop-defined
values through phis in the exit blocks. The other loop passes assume (or
re-check) these shapes, exactly as in LLVM — which is why the two appear
before every loop-pass group in the ``-Oz`` sequence.
"""

from __future__ import annotations

from typing import Optional

from ...analysis.dominators import DominatorTree
from ...analysis.loops import Loop, LoopInfo
from ...ir.builder import IRBuilder
from ...ir.instructions import Instruction, Phi
from ...ir.module import Function
from ..base import FunctionPass, register_pass


def _insert_preheader(fn: Function, loop: Loop) -> bool:
    if loop.preheader() is not None:
        return False
    header = loop.header
    outside_preds = [p for p in header.predecessors() if not loop.contains(p)]
    if not outside_preds:
        return False  # unreachable loop; leave alone
    pre = fn.add_block(fn.next_name("preheader"), before=header)
    IRBuilder(pre).br(header)
    for pred in outside_preds:
        term = pred.terminator
        assert term is not None
        for i, op in enumerate(term.operands):
            if op is header:
                term.set_operand(i, pre)
    # Split header phis: the part coming from outside moves into a phi in
    # the preheader (or a direct value if there was a single outside pred).
    for phi in header.phis():
        outside_values = [
            (phi.incoming_for_block(p), p) for p in outside_preds
        ]
        if len(outside_values) == 1:
            value = outside_values[0][0]
        else:
            merged = Phi(phi.type, fn.next_name(phi.name or "ph"))
            pre.insert(0, merged)
            for v, p in outside_values:
                assert v is not None
                merged.add_incoming(v, p)
            value = merged
        for p in outside_preds:
            phi.remove_incoming(p)
        assert value is not None
        phi.add_incoming(value, pre)
    return True


def _merge_latches(fn: Function, loop: Loop) -> Optional[Loop]:
    """Route every back edge through one new latch; returns a copy of
    ``loop`` that includes it (None if there was one latch already)."""
    if len(loop.latches) <= 1:
        return None
    header = loop.header
    latch = fn.add_block(fn.next_name("latch"))
    IRBuilder(latch).br(header)
    loop = loop.copy()
    loop.add_block(latch)
    for phi in header.phis():
        merged = Phi(phi.type, fn.next_name(phi.name or "lm"))
        latch.insert(0, merged)
        for old in loop.latches:
            value = phi.incoming_for_block(old)
            if value is None:
                continue
            merged.add_incoming(value, old)
            phi.remove_incoming(old)
        phi.add_incoming(merged, latch)
    for old in loop.latches:
        term = old.terminator
        assert term is not None
        for i, op in enumerate(term.operands):
            if op is header:
                term.set_operand(i, latch)
    loop.latches = [latch]
    return loop


def _dedicate_exits(fn: Function, loop: Loop) -> bool:
    changed = False
    for exit_block in loop.exit_blocks():
        outside_preds = [
            p for p in exit_block.predecessors() if not loop.contains(p)
        ]
        if not outside_preds:
            continue
        inside_preds = [
            p for p in exit_block.predecessors() if loop.contains(p)
        ]
        dedicated = fn.add_block(fn.next_name("exit"), before=exit_block)
        IRBuilder(dedicated).br(exit_block)
        for pred in inside_preds:
            term = pred.terminator
            assert term is not None
            for i, op in enumerate(term.operands):
                if op is exit_block:
                    term.set_operand(i, dedicated)
        for phi in exit_block.phis():
            inside_values = [
                (phi.incoming_for_block(p), p) for p in inside_preds
            ]
            if not inside_values:
                continue
            if len(inside_values) == 1:
                value = inside_values[0][0]
            else:
                merged = Phi(phi.type, fn.next_name(phi.name or "ex"))
                dedicated.insert(0, merged)
                for v, p in inside_values:
                    assert v is not None
                    merged.add_incoming(v, p)
                value = merged
            for p in inside_preds:
                phi.remove_incoming(p)
            assert value is not None
            phi.add_incoming(value, dedicated)
        changed = True
    return changed


@register_pass
class LoopSimplify(FunctionPass):
    """Put loops in canonical preheader/latch/dedicated-exit form."""

    name = "loop-simplify"

    def run_on_function(self, fn: Function) -> bool:
        changed = False
        # Loop structures are invalidated by each fix, so recompute.
        for _ in range(8):
            info = LoopInfo(fn)
            round_changed = False
            for loop in info.loops:
                round_changed |= _insert_preheader(fn, loop)
                merged = _merge_latches(fn, loop)
                if merged is not None:
                    loop, round_changed = merged, True
                round_changed |= _dedicate_exits(fn, loop)
                if round_changed:
                    break  # recompute loop info before continuing
            changed |= round_changed
            if not round_changed:
                break
        return changed


@register_pass
class LCSSA(FunctionPass):
    """Rewrite out-of-loop uses of loop values through exit-block phis."""

    name = "lcssa"

    def run_on_function(self, fn: Function) -> bool:
        info = LoopInfo(fn)
        dom = DominatorTree(fn)
        changed = False
        for loop in info.loops:
            exits = loop.exit_blocks()
            if not exits:
                continue
            for block in list(loop.blocks):
                for inst in list(block.instructions):
                    if inst.type.is_void:
                        continue
                    outside_uses = [
                        use
                        for use in inst.uses
                        if isinstance(use.user, Instruction)
                        and use.user.parent is not None
                        and not loop.contains(
                            use.user.incoming_block(use.index // 2)
                            if isinstance(use.user, Phi) and use.index % 2 == 0
                            else use.user.parent
                        )
                    ]
                    if not outside_uses:
                        continue
                    # Insert a phi in each exit block dominated by the def.
                    exit_phis = {}
                    for exit_block in exits:
                        if not all(
                            loop.contains(p) for p in exit_block.predecessors()
                        ):
                            continue
                        if not all(
                            dom.dominates_block(block, p)
                            for p in exit_block.predecessors()
                        ):
                            continue
                        phi = Phi(inst.type, fn.next_name((inst.name or "v") + ".lcssa"))
                        exit_block.insert(0, phi)
                        for pred in exit_block.predecessors():
                            phi.add_incoming(inst, pred)
                        exit_phis[id(exit_block)] = phi
                    if not exit_phis:
                        continue
                    for use in outside_uses:
                        user = use.user
                        location = (
                            user.incoming_block(use.index // 2)
                            if isinstance(user, Phi) and use.index % 2 == 0
                            else user.parent
                        )
                        replacement = None
                        for exit_id, phi in exit_phis.items():
                            if phi.parent is not None and dom.dominates_block(
                                phi.parent, location
                            ):
                                replacement = phi
                                break
                        if replacement is not None and user is not replacement:
                            user.set_operand(use.index, replacement)
                            changed = True
                    # Clean up unused phis we speculatively inserted.
                    for phi in list(exit_phis.values()):
                        if not phi.has_uses:
                            phi.erase_from_parent()
        return changed
