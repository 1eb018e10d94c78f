"""Structured cloning of functions and modules.

Cloning is used pervasively: the RL environment clones its input once per
episode, the inliner clones callee bodies, loop unrolling/unswitching clone
loop bodies. All of them funnel through :func:`clone_blocks_into`, which
copies instructions while remapping operands through a value map.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .instructions import Instruction
from .module import BasicBlock, Function, Module
from .values import Value

#: Maps id(original value) -> replacement value.
ValueMap = Dict[int, Value]


def clone_blocks_into(
    target_fn: Function,
    blocks: List[BasicBlock],
    vmap: ValueMap,
    name_suffix: str = "",
) -> List[BasicBlock]:
    """Clone ``blocks`` (in order) into ``target_fn``.

    ``vmap`` should already map values defined outside ``blocks`` that the
    cloned code must see differently (e.g. callee arguments when inlining).
    Values not present in the map — constants, globals, values defined
    outside the cloned region, and blocks outside the region — are kept
    as-is. The map is updated with every cloned block and instruction.

    Operands that refer *forward* to instructions cloned later (phis over
    back edges) are resolved in a second pass.
    """
    return _clone_blocks(
        target_fn, blocks, vmap, name_suffix, keep_names=False
    )


def _clone_blocks(
    target_fn: Function,
    blocks: List[BasicBlock],
    vmap: ValueMap,
    name_suffix: str,
    keep_names: bool,
) -> List[BasicBlock]:
    """:func:`clone_blocks_into`; with ``keep_names`` cloned values keep
    their names instead of drawing fresh ones from ``target_fn``."""
    new_blocks: List[BasicBlock] = []
    for block in blocks:
        nb = target_fn.add_block(block.name + name_suffix)
        vmap[id(block)] = nb
        new_blocks.append(nb)

    cloned: List[Tuple[Instruction, Instruction]] = []
    for block, nb in zip(blocks, new_blocks):
        for inst in block.instructions:
            operands = [vmap.get(id(op), op) for op in inst.operands]
            copy = inst.clone_impl(operands)
            copy.meta = dict(inst.meta)
            if not copy.type.is_void:
                copy.name = (
                    inst.name if keep_names
                    else target_fn.next_name(inst.name or "t")
                )
            nb.append(copy)
            vmap[id(inst)] = copy
            cloned.append((inst, copy))

    for original, copy in cloned:
        for i, op in enumerate(original.operands):
            mapped = vmap.get(id(op))
            if mapped is not None and copy.operand(i) is not mapped:
                copy.set_operand(i, mapped)
    return new_blocks


def clone_function_body(
    source: Function, target: Function, vmap: Optional[ValueMap] = None
) -> ValueMap:
    """Clone all blocks of ``source`` into the (block-less) ``target``.

    A whole-function copy keeps the local names and the name counter, so
    a cloned module prints exactly like its source and repeated cloning
    never grows names.
    """
    vmap = dict(vmap or {})
    for src_arg, dst_arg in zip(source.args, target.args):
        vmap[id(src_arg)] = dst_arg
    target._name_counter = source._name_counter
    _clone_blocks(target, source.blocks, vmap, "", keep_names=True)
    return vmap


def clone_module(module: Module) -> Module:
    """Deep-copy a module: globals, functions, bodies, attributes."""
    from .values import GlobalVariable

    new = Module(module.name)
    vmap: ValueMap = {}

    for gv in module.globals:
        ng = GlobalVariable(
            gv.value_type,
            gv.name,
            None,  # initializer attached after all symbols exist
            gv.is_constant,
            gv.linkage,
            gv.alignment,
        )
        new.add_global(ng)
        vmap[id(gv)] = ng

    for fn in module.functions:
        nf = Function(
            new,
            fn.name,
            fn.ftype,
            fn.linkage,
            [a.name for a in fn.args],
        )
        nf.attributes = set(fn.attributes)
        vmap[id(fn)] = nf

    # Initializers may reference other globals/functions; remap them.
    for gv in module.globals:
        init = gv.initializer
        if init is not None:
            ng = vmap[id(gv)]
            ng.set_initializer(vmap.get(id(init), init))  # type: ignore[union-attr]

    for fn in module.functions:
        if fn.is_declaration:
            continue
        nf = new.get_function(fn.name)
        assert nf is not None
        clone_function_body(fn, nf, vmap)
    return new
