"""Program analyses over the miniature IR."""

from .callgraph import CallGraph
from .cfg import (
    postorder,
    predecessors_map,
    reachable_blocks,
    remove_unreachable_blocks,
    reverse_postorder,
)
from .dominators import DominatorTree
from .loops import Loop, LoopInfo
from .memdep import (
    clobbers_between,
    may_alias,
    must_alias,
    pointer_escapes,
    underlying_object,
)

__all__ = [
    "CallGraph",
    "DominatorTree",
    "Loop",
    "LoopInfo",
    "clobbers_between",
    "may_alias",
    "must_alias",
    "pointer_escapes",
    "postorder",
    "predecessors_map",
    "reachable_blocks",
    "remove_unreachable_blocks",
    "reverse_postorder",
    "underlying_object",
]
