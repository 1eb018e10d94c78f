"""Delta-debugging reducer for failing (module, pass-sequence) pairs.

Shrinks along two axes, llvm-reduce style:

* **pass sequence** — classic ddmin over the pass list: drop halves,
  then quarters, … then single passes, keeping any candidate that still
  reproduces the failure;
* **module** — structural transformations applied to clones of the
  current best module, each kept only if (a) the candidate still passes
  the structural verifier (garbage in must not masquerade as a pass bug)
  and (b) the failure still reproduces:

  - delete never-called helper functions and unused globals,
  - replace conditional branches/switches with unconditional branches
    (then prune newly unreachable blocks and phi edges),
  - delete instructions in shrinking chunks, rewriting uses of a deleted
    value to a zero constant of its type.

The predicate is typically ``lambda m, p: oracle.check(m, p).kind ==
original_kind`` — a candidate whose *baseline* breaks (e.g. a load
through a zeroed pointer now traps) makes the oracle return ``skip``,
which the predicate rejects, so reduction can never wander off the
original failure.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..analysis.cfg import reachable_blocks
from ..ir.instructions import Branch, Instruction, Phi, Switch
from ..ir.module import BasicBlock, Function, Module
from ..ir.types import FloatType, IntType, PointerType, Type, VectorType
from ..ir.values import (
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantVector,
    UndefValue,
    Value,
)
from ..ir.verifier import verify_module

Predicate = Callable[[Module, List[str]], bool]


def zero_value(ty: Type) -> Value:
    """A harmless constant of ``ty`` to stand in for a deleted value."""
    if isinstance(ty, IntType):
        return ConstantInt(ty, 0)
    if isinstance(ty, FloatType):
        return ConstantFloat(ty, 0.0)
    if isinstance(ty, PointerType):
        return ConstantNull(ty)
    if isinstance(ty, VectorType):
        return ConstantVector(ty, [zero_value(ty.element)] * ty.count)
    return UndefValue(ty)


def ddmin_passes(
    passes: Sequence[str], interesting: Callable[[List[str]], bool],
) -> List[str]:
    """Minimal sub-list of ``passes`` that stays interesting (ddmin)."""
    current = list(passes)
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        shrunk = True
        while shrunk and len(current) > 1:
            shrunk = False
            i = 0
            while i < len(current):
                candidate = current[:i] + current[i + chunk:]
                if candidate and interesting(candidate):
                    current = candidate
                    shrunk = True
                else:
                    i += chunk
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)
    return current


class Reducer:
    """Shrinks a failing (module, passes) pair to a minimal repro."""

    def __init__(
        self,
        predicate: Predicate,
        max_checks: int = 3000,
        max_rounds: int = 12,
    ):
        self.predicate = predicate
        self.max_checks = max_checks
        self.max_rounds = max_rounds
        self.checks = 0

    # -- bookkeeping --------------------------------------------------------
    def _interesting(self, module: Module, passes: List[str]) -> bool:
        if self.checks >= self.max_checks:
            return False
        self.checks += 1
        return self.predicate(module, passes)

    def _try(self, module: Module, passes: List[str],
             transform: Callable[[Module], bool]) -> Optional[Module]:
        """Apply ``transform`` to a clone; return it if still interesting."""
        if self.checks >= self.max_checks:
            return None  # don't pay for clones the budget can't evaluate
        candidate = module.clone()
        try:
            if not transform(candidate):
                return None
            verify_module(candidate)
        except Exception:
            return None
        if self._interesting(candidate, passes):
            return candidate
        return None

    # -- entry point --------------------------------------------------------
    def reduce(
        self, module: Module, passes: Sequence[str],
    ) -> Tuple[Module, List[str]]:
        """Return the reduced (module, passes); inputs are not mutated."""
        passes = list(passes)
        if not self._interesting(module, passes):
            raise ValueError(
                "the (module, passes) pair does not reproduce the failure"
            )
        passes = ddmin_passes(
            passes, lambda ps: self._interesting(module, list(ps))
        )
        best = module.clone()
        for _ in range(self.max_rounds):
            before = best.instruction_count
            best = self._reduce_module_round(best, passes)
            if best.instruction_count >= before or self.checks >= self.max_checks:
                break
        # The smaller module may need even fewer passes.
        final_best = best
        passes = ddmin_passes(
            passes, lambda ps: self._interesting(final_best, list(ps))
        )
        normalize_names(best)
        if not self.predicate(best, passes):  # renaming must be a no-op
            raise AssertionError("renaming changed reproduction behaviour")
        return best, passes

    # -- one round of module shrinking --------------------------------------
    def _reduce_module_round(self, module: Module, passes: List[str]) -> Module:
        for step in (
            self._drop_dead_symbols,
            self._simplify_terminators,
            self._delete_instructions,
            self._merge_chains,
        ):
            module = step(module, passes)
            if self.checks >= self.max_checks:
                break
        return module

    # -- straight-line cleanup ----------------------------------------------
    def _merge_chains(self, module: Module, passes: List[str]) -> Module:
        """Collapse br-only chains left behind by instruction deletion."""
        candidate = self._try(module, passes, _merge_chain_blocks)
        return candidate if candidate is not None else module

    # -- symbol-level -------------------------------------------------------
    def _drop_dead_symbols(self, module: Module, passes: List[str]) -> Module:
        changed = True
        while changed and self.checks < self.max_checks:
            changed = False
            for fn in list(module.functions):
                if fn.name == "entry" or fn.has_uses:
                    continue
                name = fn.name
                candidate = self._try(
                    module, passes, lambda m: _remove_function(m, name)
                )
                if candidate is not None:
                    module = candidate
                    changed = True
            for gv in list(module.globals):
                if gv.has_uses:
                    continue
                name = gv.name
                candidate = self._try(
                    module, passes, lambda m: _remove_global(m, name)
                )
                if candidate is not None:
                    module = candidate
                    changed = True
        return module

    # -- CFG-level ----------------------------------------------------------
    def _simplify_terminators(self, module: Module, passes: List[str]) -> Module:
        for f_idx, fn in enumerate(module.functions):
            if fn.is_declaration:
                continue
            b_idx = 0
            while b_idx < len(fn.blocks):
                term = fn.blocks[b_idx].terminator
                variants: List[int] = []
                if isinstance(term, Branch) and term.is_conditional:
                    variants = [0, 1]
                elif isinstance(term, Switch):
                    variants = list(range(len(term.targets)))
                for which in variants:
                    candidate = self._try(
                        module, passes,
                        lambda m: _force_terminator(m, f_idx, b_idx, which),
                    )
                    if candidate is not None:
                        module = candidate
                        fn = module.functions[f_idx]
                        break
                b_idx += 1
            if self.checks >= self.max_checks:
                break
        return module

    # -- instruction-level --------------------------------------------------
    def _delete_instructions(self, module: Module, passes: List[str]) -> Module:
        progress = True
        while progress and self.checks < self.max_checks:
            progress = False
            coords = _deletable_coords(module)
            chunk = max(1, len(coords) // 2)
            while chunk >= 1 and self.checks < self.max_checks:
                i = 0
                coords = _deletable_coords(module)
                while i < len(coords):
                    batch = coords[i : i + chunk]
                    candidate = self._try(
                        module, passes, lambda m: _delete_coords(m, batch)
                    )
                    if candidate is not None:
                        module = candidate
                        progress = True
                        coords = _deletable_coords(module)
                        # restart scan at the same position
                    else:
                        i += chunk
                if chunk == 1:
                    break
                chunk = max(1, chunk // 2)
        return module


# -- clone-side transformations (operate on coordinates, since clones
#    produce fresh objects) ----------------------------------------------------

Coord = Tuple[int, int, int]  # (function index, block index, instruction index)


def _remove_function(module: Module, name: str) -> bool:
    fn = module.get_function(name)
    if fn is None or fn.has_uses:
        return False
    for block in list(fn.blocks):
        for inst in list(block.instructions):
            inst.drop_all_operands()
    module.remove_function(fn)
    return True


def _remove_global(module: Module, name: str) -> bool:
    gv = module.get_global(name)
    if gv is None or gv.has_uses:
        return False
    module.remove_global(gv)
    return True


def _force_terminator(
    module: Module, f_idx: int, b_idx: int, which: int
) -> bool:
    """Replace a conditional branch/switch with ``br`` to target ``which``."""
    fn = module.functions[f_idx]
    block = fn.blocks[b_idx]
    term = block.terminator
    if isinstance(term, Branch) and term.is_conditional:
        targets = term.targets
    elif isinstance(term, Switch):
        targets = term.targets
    else:
        return False
    keep = targets[which]
    dropped = [t for t in targets if t is not keep]
    term.erase_from_parent()
    block.append(Branch(keep))
    for succ in dropped:
        if block not in succ.predecessors():
            succ.remove_phi_incoming_for(block)
    _prune_unreachable(fn)
    return True


def _prune_unreachable(fn: Function) -> None:
    reachable = reachable_blocks(fn)
    for block in list(fn.blocks):
        if id(block) in reachable:
            continue
        for succ in block.successors():
            if id(succ) in reachable:
                succ.remove_phi_incoming_for(block)
        for inst in list(block.instructions):
            if inst.has_uses:
                inst.replace_all_uses_with(zero_value(inst.type))
            inst.drop_all_operands()
        block.instructions.clear()
        block.erase_from_parent()
    # Single-incoming phis left by edge removal fold to their value.
    for block in fn.blocks:
        for phi in list(block.phis()):
            if phi.num_incoming == 1:
                phi.replace_all_uses_with(phi.incoming_value(0))
                phi.erase_from_parent()


def _merge_chain_blocks(module: Module) -> bool:
    """Merge each block into its single-predecessor unconditional successor."""
    changed = False
    for fn in module.functions:
        if fn.is_declaration:
            continue
        merged = True
        while merged:
            merged = False
            for block in list(fn.blocks):
                term = block.terminator
                if not (isinstance(term, Branch) and not term.is_conditional):
                    continue
                succ = term.targets[0]
                if (
                    succ is block
                    or succ is fn.entry
                    or succ.single_predecessor is not block
                ):
                    continue
                for phi in list(succ.phis()):
                    phi.replace_all_uses_with(phi.incoming_value(0))
                    phi.erase_from_parent()
                term.erase_from_parent()
                for inst in list(succ.instructions):
                    succ.instructions.remove(inst)
                    block.append(inst)
                # Phis in succ's successors must see the merged block as
                # their incoming edge now.
                succ.replace_all_uses_with(block)
                succ.erase_from_parent()
                changed = True
                merged = True
                break
    return changed


def normalize_names(module: Module) -> None:
    """Rename blocks/values sequentially after clone-round name growth."""
    for fn in module.functions:
        counter = 0
        for b_idx, block in enumerate(fn.blocks):
            block.name = "entry" if b_idx == 0 else f"b{b_idx}"
            for inst in block.instructions:
                if not inst.type.is_void:
                    counter += 1
                    inst.name = f"v{counter}"


def _deletable_coords(module: Module) -> List[Coord]:
    coords: List[Coord] = []
    for f_idx, fn in enumerate(module.functions):
        for b_idx, block in enumerate(fn.blocks):
            for i_idx, inst in enumerate(block.instructions):
                if inst.is_terminator:
                    continue
                coords.append((f_idx, b_idx, i_idx))
    return coords


def _delete_coords(module: Module, coords: Sequence[Coord]) -> bool:
    """Delete instructions (highest index first so indices stay valid)."""
    if not coords:
        return False
    for f_idx, b_idx, i_idx in sorted(coords, reverse=True):
        fn = module.functions[f_idx]
        block = fn.blocks[b_idx]
        inst = block.instructions[i_idx]
        if inst.is_terminator:
            return False
        if inst.has_uses:
            if inst.type.is_void:
                return False
            inst.replace_all_uses_with(zero_value(inst.type))
        inst.erase_from_parent()
    return True
