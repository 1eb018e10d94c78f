"""Reference pass-layer implementations.

The oracle the pass layer's work cuts are compared against. Each function
here is the straightforward implementation a faster one in ``src/``
replaced, kept only so that tests can run a pass both ways and compare:

* ``reference_ipsccp`` re-solves every defined function in every round
  of the bounded interprocedural fixpoint (``src/`` re-solves only
  functions whose callees' effective return facts changed);
* ``ReferenceSCCPSolver`` visits instructions through an ``isinstance``
  ladder over copied operand lists (``src/``: per-class dispatch);
* ``ReferenceScopedTable`` scans the scope stack innermost-first on every
  lookup, and ``reference_expression_key`` orders commutative operands
  with ``sorted(..., key=repr)`` (``src/``: one dict with per-scope undo
  logs, and a direct canonical pair);
* ``reference_predecessors_map`` de-duplicates predecessors with a list
  scan;
* ``reference_is_recursive`` runs the SCC decomposition on every query.

``reference_passes()`` swaps all of them in for the duration of a
``with`` block.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Dict, Iterator, List, Optional, Tuple

import networkx as nx

from repro.analysis import cfg as cfg_module
from repro.analysis.callgraph import CallGraph
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    COMMUTATIVE_OPS,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Switch,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import Constant, ConstantInt, UndefValue, Value
from repro.passes.fold import fold_binary, fold_cast, fold_fcmp, fold_icmp
from repro.passes.ipo import ipsccp as ipsccp_module
from repro.passes.scalar import early_cse as early_cse_module
from repro.passes.scalar import sccp as sccp_module
from repro.passes.scalar.sccp import (
    BOTTOM,
    TOP,
    LatticeValue,
    SCCPSolver,
    _same_constant,
)


def _reference_meet(a: LatticeValue, b: LatticeValue) -> LatticeValue:
    if a == TOP:
        return b
    if b == TOP:
        return a
    if a == BOTTOM or b == BOTTOM:
        return BOTTOM
    assert isinstance(a, Constant) and isinstance(b, Constant)
    if _same_constant(a, b):
        return a
    return BOTTOM


class ReferenceSCCPSolver(SCCPSolver):
    """The SCCP solver with its ``isinstance``-ladder transfer function."""

    def value_of(self, value: Value) -> LatticeValue:
        if isinstance(value, Constant) and not isinstance(value, UndefValue):
            return value
        if isinstance(value, UndefValue):
            return BOTTOM
        return self.lattice.get(id(value), TOP)

    def _set(self, inst: Instruction, value: LatticeValue) -> None:
        old = self.lattice.get(id(inst), TOP)
        new = _reference_meet(old, value) if old != TOP else value
        if old == BOTTOM:
            return
        if old == TOP and new == TOP:
            return
        if old != TOP and isinstance(old, Constant) and isinstance(new, Constant):
            if _same_constant(old, new):
                return
            new = BOTTOM
        self.lattice[id(inst)] = new
        for use in inst.uses:
            user = use.user
            if isinstance(user, Instruction) and user.parent is not None:
                if id(user.parent) in self.executable_blocks:
                    self.ssa_worklist.append(user)

    def _visit(self, inst: Instruction) -> None:
        if isinstance(inst, Phi):
            result: LatticeValue = TOP
            for value, pred in inst.incoming():
                if (id(pred), id(inst.parent)) in self.executable_edges:
                    result = _reference_meet(result, self.value_of(value))
            self._set(inst, result)
            return
        if isinstance(inst, (Branch, Switch)):
            self._reference_terminator(inst)
            return
        if isinstance(inst, Ret):
            if inst.value is not None:
                self.return_value = _reference_meet(
                    self.return_value, self.value_of(inst.value)
                )
            else:
                self.return_value = BOTTOM
            return
        if isinstance(inst, Call):
            if not inst.type.is_void:
                self._set(inst, self._call_value(inst))
            return
        if not inst.type.is_void and isinstance(inst, (Load, Alloca)):
            self._set(inst, BOTTOM)
            return
        if inst.type.is_void:
            return
        operand_values = [self.value_of(op) for op in inst.operands]
        if any(v == BOTTOM for v in operand_values):
            self._set(inst, BOTTOM)
            return
        if any(v == TOP for v in operand_values):
            return
        consts = operand_values
        folded = None
        if isinstance(inst, BinaryOp):
            folded = fold_binary(inst.opcode, consts[0], consts[1])
        elif isinstance(inst, ICmp):
            folded = fold_icmp(inst.predicate, consts[0], consts[1])
        elif isinstance(inst, FCmp):
            folded = fold_fcmp(inst.predicate, consts[0], consts[1])
        elif isinstance(inst, Cast):
            folded = fold_cast(inst.opcode, consts[0], inst.type)
        elif isinstance(inst, Select):
            cond = consts[0]
            if isinstance(cond, ConstantInt):
                folded = consts[1] if cond.value else consts[2]
        self._set(inst, folded if folded is not None else BOTTOM)

    def _reference_terminator(self, inst: Instruction) -> None:
        block = inst.parent
        if isinstance(inst, Branch):
            if not inst.is_conditional:
                self._mark_edge(block, inst.targets[0])
                return
            cond = self.value_of(inst.condition)
            if isinstance(cond, ConstantInt):
                target = inst.true_target if cond.value else inst.false_target
                self._mark_edge(block, target)
            elif cond == BOTTOM:
                self._mark_edge(block, inst.true_target)
                self._mark_edge(block, inst.false_target)
            return
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

    def solve(self) -> None:
        entry = self.fn.entry
        self.executable_blocks.add(id(entry))
        self.block_worklist.append(entry)
        while self.block_worklist or self.ssa_worklist:
            while self.ssa_worklist:
                inst = self.ssa_worklist.pop()
                if inst.parent is not None and id(inst.parent) in self.executable_blocks:
                    self._visit(inst)
            while self.block_worklist:
                block = self.block_worklist.pop()
                for inst in block.instructions:
                    self._visit(inst)


def reference_ipsccp(self, module: Module) -> bool:
    """``IPSCCP.run_on_module``, solving every function every round."""
    graph = CallGraph(module)
    return_values: Dict[str, LatticeValue] = {}
    solvers: Dict[str, SCCPSolver] = {}

    class _IPSolver(ReferenceSCCPSolver):
        def _call_value(self, inst: Call) -> LatticeValue:
            callee = inst.called_function
            if callee is None:
                return BOTTOM
            known = return_values.get(callee.name, BOTTOM)
            return known if isinstance(known, Constant) else BOTTOM

    for _ in range(self.MAX_ROUNDS):
        stable = True
        for fn in module.functions:
            if fn.is_declaration:
                continue
            args = ipsccp_module._call_site_arg_constants(fn, graph)
            solver = _IPSolver(fn, args)
            solver.solve()
            solvers[fn.name] = solver
            new_ret = solver.return_value
            old_ret = return_values.get(fn.name, TOP)
            if not (
                old_ret == new_ret
                or (
                    isinstance(old_ret, Constant)
                    and isinstance(new_ret, Constant)
                    and _same_constant(old_ret, new_ret)
                )
            ):
                return_values[fn.name] = new_ret
                stable = False
        if stable:
            break

    changed = False
    for fn in module.functions:
        solver = solvers.get(fn.name)
        if solver is not None:
            changed |= solver.apply()

    for fn in module.functions:
        if fn.is_declaration:
            continue
        for call in list(fn.calls()):
            if call.parent is None or call.type.is_void:
                continue
            callee = call.called_function
            if callee is None or callee.is_declaration:
                continue
            if not callee.is_internal or callee.name in graph.address_taken:
                continue
            ret = return_values.get(callee.name)
            if isinstance(ret, Constant) and call.has_uses:
                call.replace_all_uses_with(ret)
                changed = True
    return changed


class ReferenceScopedTable:
    """A stack of dicts giving dominator-scoped name lookup."""

    def __init__(self) -> None:
        self.scopes: List[Dict] = [{}]

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def lookup(self, key):
        for scope in reversed(self.scopes):
            if key in scope:
                return scope[key]
        return None

    def insert(self, key, value) -> None:
        self.scopes[-1][key] = value


def reference_expression_key(inst: Instruction) -> Optional[Tuple]:
    """early-cse's expression key with ``sorted(key=repr)`` commutative
    operand order."""
    k = early_cse_module._operand_key
    if isinstance(inst, BinaryOp):
        ops = (k(inst.lhs), k(inst.rhs))
        if inst.opcode in COMMUTATIVE_OPS:
            ops = tuple(sorted(ops, key=repr))
        return ("bin", inst.opcode, inst.type, ops)
    if isinstance(inst, ICmp):
        return ("icmp", inst.predicate, k(inst.lhs), k(inst.rhs))
    if isinstance(inst, FCmp):
        return ("fcmp", inst.predicate, k(inst.lhs), k(inst.rhs))
    if isinstance(inst, Cast):
        return ("cast", inst.opcode, inst.type, k(inst.value))
    if isinstance(inst, GetElementPtr):
        return ("gep", inst.type, tuple(k(op) for op in inst.operands))
    if isinstance(inst, Select):
        return ("select", tuple(k(op) for op in inst.operands))
    if isinstance(inst, Call):
        fn = inst.called_function
        if fn is not None and "readnone" in fn.attributes and "willreturn" in fn.attributes:
            return ("call", fn.name, tuple(k(a) for a in inst.args))
    return None


def reference_predecessors_map(fn: Function) -> Dict[int, List[BasicBlock]]:
    """Predecessor lists keyed by ``id(block)``, de-duplicated by scan."""
    preds: Dict[int, List[BasicBlock]] = {id(b): [] for b in fn.blocks}
    for block in fn.blocks:
        for succ in block.successors():
            lst = preds.get(id(succ))
            if lst is not None and block not in lst:
                lst.append(block)
    return preds


def reference_is_recursive(self, fn: Function) -> bool:
    """``CallGraph.is_recursive`` with one SCC decomposition per query."""
    return self.graph.has_edge(fn.name, fn.name) or any(
        fn.name in scc and len(scc) > 1
        for scc in nx.strongly_connected_components(self.graph)
    )


@contextlib.contextmanager
def reference_passes() -> Iterator[None]:
    """Run the pass layer on the reference implementations inside the
    block. ``predecessors_map`` is rebound in every loaded ``repro``
    module that imported it by name."""
    fast_preds = cfg_module.predecessors_map
    patches = [
        (ipsccp_module.IPSCCP, "run_on_module", reference_ipsccp),
        (sccp_module, "SCCPSolver", ReferenceSCCPSolver),
        (early_cse_module, "_ScopedTable", ReferenceScopedTable),
        (early_cse_module, "expression_key", reference_expression_key),
        (CallGraph, "is_recursive", reference_is_recursive),
    ]
    for name, module in list(sys.modules.items()):
        if (
            name.startswith("repro.")
            and getattr(module, "predecessors_map", None) is fast_preds
        ):
            patches.append((module, "predecessors_map", reference_predecessors_map))
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)
