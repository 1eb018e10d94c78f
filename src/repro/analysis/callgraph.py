"""Call graph construction and bottom-up SCC ordering.

The inliner and the function-attribute passes walk the call graph in
post-order (callees before callers), with SCCs collapsed so mutual
recursion is handled once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import networkx as nx

from ..ir.instructions import Call
from ..ir.module import Function, Module


class CallGraph:
    """Directed multigraph of who-calls-whom, plus address-taken facts."""

    def __init__(self, module: Module):
        self.module = module
        self.graph: "nx.DiGraph" = nx.DiGraph()
        self.call_sites: Dict[str, List[Call]] = {}
        self.address_taken: Set[str] = set()
        #: names on a call cycle, computed on the first is_recursive query
        self._recursive: Optional[Set[str]] = None
        self._compute()

    def _compute(self) -> None:
        for fn in self.module.functions:
            self.graph.add_node(fn.name)
            self.call_sites[fn.name] = []

        for fn in self.module.functions:
            for inst in fn.instructions():
                if isinstance(inst, Call):
                    callee = inst.called_function
                    if callee is not None:
                        self.graph.add_edge(fn.name, callee.name)
                        self.call_sites[callee.name].append(inst)

        # A function whose value is used other than as a direct callee has
        # its address taken (indirect calls / stored function pointers).
        for fn in self.module.functions:
            for use in fn.uses:
                user = use.user
                if isinstance(user, Call) and use.index == 0:
                    continue
                self.address_taken.add(fn.name)
                break

    # -- queries -----------------------------------------------------------
    def callers_of(self, fn: Function) -> List[Call]:
        return list(self.call_sites.get(fn.name, []))

    def is_dead(self, fn: Function) -> bool:
        """Internal, never called, address never taken."""
        return (
            fn.is_internal
            and not self.call_sites.get(fn.name)
            and fn.name not in self.address_taken
        )

    def is_recursive(self, fn: Function) -> bool:
        """Calls itself, or sits in a strongly connected component of
        more than one function."""
        if self._recursive is None:
            self._recursive = {
                name
                for scc in nx.strongly_connected_components(self.graph)
                if len(scc) > 1
                for name in scc
            }
            self._recursive.update(u for u, _ in nx.selfloop_edges(self.graph))
        return fn.name in self._recursive

    def bottom_up_order(self) -> List[Function]:
        """Defined functions, callees before callers (SCCs collapsed)."""
        condensed = nx.condensation(self.graph)
        order: List[Function] = []
        for scc_id in nx.topological_sort(condensed):
            members = condensed.nodes[scc_id]["members"]
            for name in sorted(members):
                fn = self.module.get_function(name)
                if fn is not None and not fn.is_declaration:
                    order.append(fn)
        # topological_sort of the condensation yields callers-first for
        # edges caller->callee, so reverse for bottom-up.
        return list(reversed(order))
