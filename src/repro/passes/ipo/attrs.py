"""Function-attribute inference: -functionattrs, -rpo-functionattrs,
-attributor, -inferattrs, -forceattrs.

Inferred attributes (``readnone``, ``readonly``, ``nounwind``,
``willreturn``, ``norecurse``) are what unlock call CSE in early-cse/GVN
and dead-call elimination in DCE — the attribute passes look like no-ops
but materially change what later passes may do, which is why they pepper
the ``-Oz`` sequence.
"""

from __future__ import annotations

from typing import Dict, Set

from ...analysis.callgraph import CallGraph
from ...analysis.loops import LoopInfo
from ...analysis.memdep import pointer_escapes, underlying_object
from ...ir.instructions import Alloca, Call, Load, Store
from ...ir.module import Function, Module
from ...ir.values import Value
from ..base import ModulePass, register_pass


def _callee_attrs(call: Call) -> Set[str]:
    callee = call.called_function
    return set(callee.attributes) if callee is not None else set()


def infer_attributes(module: Module) -> bool:
    """Shared bottom-up inference engine."""
    graph = CallGraph(module)
    # Escape facts per alloca id: inference changes attributes only, so
    # an alloca's uses (all ``pointer_escapes`` reads) stay fixed.
    escapes: Dict[int, bool] = {}
    changed = False
    for fn in graph.bottom_up_order():
        changed |= _infer_for(fn, graph, escapes)
    return changed


def _is_local(pointer: Value, escapes: Dict[int, bool]) -> bool:
    """Whether ``pointer`` is based on a non-escaping local alloca, so
    accesses through it are invisible outside the function."""
    base = underlying_object(pointer)
    if not isinstance(base, Alloca):
        return False
    escaped = escapes.get(id(base))
    if escaped is None:
        escaped = escapes[id(base)] = pointer_escapes(base)
    return not escaped


def _infer_for(fn: Function, graph: CallGraph, escapes: Dict[int, bool]) -> bool:
    changed = False
    reads = False
    writes = False
    calls_ok_nounwind = True
    calls_ok_willreturn = True

    for inst in fn.instructions():
        if isinstance(inst, Load):
            if not reads and not _is_local(inst.pointer, escapes):
                reads = True
        elif isinstance(inst, Store):
            if not writes and not _is_local(inst.pointer, escapes):
                writes = True
        elif isinstance(inst, Call):
            attrs = _callee_attrs(inst)
            callee = inst.called_function
            if callee is fn:
                continue  # self-recursion: handled by the SCC ordering
            if callee is None or callee.is_declaration and not callee.is_intrinsic:
                if callee is None or not attrs & {"readnone", "readonly"}:
                    reads = writes = True
            if "readnone" not in attrs:
                reads = True
                if "readonly" not in attrs:
                    writes = True
            if "nounwind" not in attrs:
                calls_ok_nounwind = False
            if "willreturn" not in attrs:
                calls_ok_willreturn = False

    def add(attr: str, condition: bool) -> None:
        nonlocal changed
        if condition and attr not in fn.attributes:
            fn.attributes.add(attr)
            changed = True

    add("readnone", not reads and not writes)
    add("readonly", not writes)
    add("nounwind", calls_ok_nounwind)
    recursive = graph.is_recursive(fn)
    add("norecurse", not recursive)
    if (
        not fn.is_declaration
        and "willreturn" not in fn.attributes
        and calls_ok_willreturn
        and not recursive
    ):
        add("willreturn", not LoopInfo(fn).loops)
    return changed


@register_pass
class FunctionAttrs(ModulePass):
    """Infer memory/termination attributes bottom-up."""

    name = "functionattrs"

    def run_on_module(self, module: Module) -> bool:
        return infer_attributes(module)


@register_pass
class RPOFunctionAttrs(ModulePass):
    """The RPO flavour reuses the same fixpoint inference."""

    name = "rpo-functionattrs"

    def run_on_module(self, module: Module) -> bool:
        return infer_attributes(module)


@register_pass
class Attributor(ModulePass):
    """Iterated attribute inference (LLVM's Attributor, restricted to the
    same attribute set — iterating catches SCC-crossing facts)."""

    name = "attributor"

    def run_on_module(self, module: Module) -> bool:
        changed = False
        for _ in range(3):
            if not infer_attributes(module):
                break
            changed = True
        return changed


#: Known external library routines and their attributes.
KNOWN_LIBRARY_ATTRS = {
    "abs": {"readnone", "willreturn", "nounwind"},
    "labs": {"readnone", "willreturn", "nounwind"},
    "sqrt": {"readnone", "willreturn", "nounwind"},
    "sin": {"readnone", "willreturn", "nounwind"},
    "cos": {"readnone", "willreturn", "nounwind"},
    "floor": {"readnone", "willreturn", "nounwind"},
    "ceil": {"readnone", "willreturn", "nounwind"},
    "strlen": {"readonly", "willreturn", "nounwind"},
    "memcmp": {"readonly", "willreturn", "nounwind"},
    "printf": {"nounwind"},
    "puts": {"nounwind"},
    "putchar": {"nounwind"},
}


@register_pass
class InferAttrs(ModulePass):
    """Attach known attributes to recognized library declarations."""

    name = "inferattrs"

    def run_on_module(self, module: Module) -> bool:
        changed = False
        for fn in module.functions:
            known = KNOWN_LIBRARY_ATTRS.get(fn.name)
            if fn.is_intrinsic:
                known = {"nounwind", "willreturn"}
                if fn.name.startswith(("llvm.expect", "llvm.is.constant", "llvm.objectsize", "llvm.abs")):
                    known = known | {"readnone"}
            if known and not known <= fn.attributes:
                fn.attributes |= known
                changed = True
        return changed


@register_pass
class ForceAttrs(ModulePass):
    """-forceattrs applies attributes from the command line; with none
    given (our configuration) it is an intentional no-op."""

    name = "forceattrs"

    def run_on_module(self, module: Module) -> bool:
        return False
