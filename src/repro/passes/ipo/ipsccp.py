"""-ipsccp: interprocedural sparse conditional constant propagation.

Extends the per-function SCCP solver with two interprocedural facts:

* an internal, non-address-taken function whose every call site passes the
  same constant for an argument is solved with that argument pinned;
* a function whose solver concludes a constant return value has its call
  sites' results replaced by that constant.

Iterated to a (small, bounded) fixpoint, visiting functions in module
order; after the first round only functions whose callees' return facts
changed since their last solve are solved again. Then each function's
solution is applied.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ...analysis.callgraph import CallGraph
from ...ir.instructions import Call
from ...ir.module import Function, Module
from ...ir.values import Constant, ConstantFloat, ConstantInt
from ..base import ModulePass, register_pass
from ..scalar.sccp import BOTTOM, TOP, LatticeValue, SCCPSolver, _same_constant


def _call_site_arg_constants(
    fn: Function, graph: CallGraph
) -> Optional[Dict[int, LatticeValue]]:
    """Per-argument meet over all call sites, or None if unanalyzable."""
    if not fn.is_internal or fn.name in graph.address_taken:
        return None
    sites = [c for c in graph.call_sites.get(fn.name, []) if c.parent is not None]
    if not sites:
        return None
    values: Dict[int, LatticeValue] = {}
    for i, arg in enumerate(fn.args):
        meet: LatticeValue = TOP
        for call in sites:
            if i >= len(call.args):
                meet = BOTTOM
                break
            actual = call.arg(i)
            if isinstance(actual, Constant):
                if meet == TOP:
                    meet = actual
                elif isinstance(meet, Constant) and _same_constant(meet, actual):
                    pass
                else:
                    meet = BOTTOM
            else:
                meet = BOTTOM
        values[id(arg)] = meet if meet != TOP else BOTTOM
    return values


def _direct_callees(fn: Function) -> Set[str]:
    """Names of the functions ``fn`` calls directly."""
    names: Set[str] = set()
    for inst in fn.calls():
        callee = inst.called_function
        if callee is not None:
            names.add(callee.name)
    return names


@register_pass
class IPSCCP(ModulePass):
    """Interprocedural SCCP."""

    name = "ipsccp"

    MAX_ROUNDS = 3

    def run_on_module(self, module: Module) -> bool:
        graph = CallGraph(module)
        return_values: Dict[str, LatticeValue] = {}
        solvers: Dict[str, SCCPSolver] = {}

        class _IPSolver(SCCPSolver):
            def _call_value(self, inst: Call) -> LatticeValue:
                callee = inst.called_function
                if callee is None:
                    return BOTTOM
                known = return_values.get(callee.name, BOTTOM)
                return known if isinstance(known, Constant) else BOTTOM

        # A solve reads other functions only through ``_call_value``,
        # which sees a callee's *effective* return fact (a constant, or
        # BOTTOM for both TOP and BOTTOM). Nothing else a solve depends on
        # changes before the solutions are applied, so a function whose
        # callees' effective facts are all unchanged since its last solve
        # would reproduce that solve exactly and is not solved again.
        # ``stamp`` counts effective-fact changes; ``fact_stamp`` records
        # the stamp of each function's last change, ``solve_stamp`` the
        # stamp each function was last solved at.
        defined = [fn for fn in module.functions if not fn.is_declaration]
        callees = {fn.name: _direct_callees(fn) for fn in defined}
        fact_stamp: Dict[str, int] = {}
        solve_stamp: Dict[str, int] = {}
        stamp = 0
        for _ in range(self.MAX_ROUNDS):
            stable = True
            for fn in defined:
                last = solve_stamp.get(fn.name)
                if last is not None and all(
                    fact_stamp.get(name, 0) <= last for name in callees[fn.name]
                ):
                    continue
                args = _call_site_arg_constants(fn, graph)
                solver = _IPSolver(fn, args)
                solver.solve()
                solvers[fn.name] = solver
                solve_stamp[fn.name] = stamp
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
                    if isinstance(old_ret, Constant) or isinstance(new_ret, Constant):
                        stamp += 1
                        fact_stamp[fn.name] = stamp
            if stable:
                break

        changed = False
        for fn in module.functions:
            solver = solvers.get(fn.name)
            if solver is not None:
                changed |= solver.apply()

        # Replace call results with known constant returns.
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
