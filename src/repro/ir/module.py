"""Containers: basic blocks, functions and modules.

A :class:`BasicBlock` is itself a value (of label type) so that branches and
phis can reference it through the ordinary use machinery. A
:class:`Function` is a global value whose "pointee" is its signature, so
taking the address of a function and calling it indirectly both work.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from .instructions import TERMINATOR_OPS, Instruction, Phi
from .types import FunctionType, LabelType, PointerType, Type
from .values import Argument, GlobalValue, GlobalVariable, Value


class BasicBlock(Value):
    """A straight-line sequence of instructions ending in one terminator."""

    def __init__(self, name: str = "", parent: Optional["Function"] = None):
        super().__init__(LabelType(), name)
        self.parent = parent
        self.instructions: List[Instruction] = []

    # -- structure ----------------------------------------------------------
    def append(self, inst: Instruction) -> Instruction:
        self.instructions.append(inst)
        inst.parent = self
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        self.instructions.insert(index, inst)
        inst.parent = self
        return inst

    def insert_before_terminator(self, inst: Instruction) -> Instruction:
        term = self.terminator
        if term is None:
            return self.append(inst)
        return self.insert(self.instructions.index(term), inst)

    @property
    def terminator(self) -> Optional[Instruction]:
        insts = self.instructions
        if insts and insts[-1].opcode in TERMINATOR_OPS:
            return insts[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def phis(self) -> List[Phi]:
        result = []
        for inst in self.instructions:
            if isinstance(inst, Phi):
                result.append(inst)
            else:
                break
        return result

    def non_phi_instructions(self) -> List[Instruction]:
        return [i for i in self.instructions if not isinstance(i, Phi)]

    @property
    def first_non_phi(self) -> Optional[Instruction]:
        for inst in self.instructions:
            if not isinstance(inst, Phi):
                return inst
        return None

    # -- CFG ------------------------------------------------------------------
    def successors(self) -> List["BasicBlock"]:
        insts = self.instructions
        if insts and insts[-1].opcode in TERMINATOR_OPS:
            return insts[-1].targets  # type: ignore[attr-defined]
        return []

    def _iter_predecessors(self) -> Iterator["BasicBlock"]:
        """Distinct predecessor blocks, derived from uses of this block by
        terminators."""
        seen: Set[int] = set()
        for use in self.uses:
            user = use.user
            if (
                isinstance(user, Instruction)
                and user.opcode in TERMINATOR_OPS
                and user.parent is not None
                and id(user.parent) not in seen
                and self in user.targets  # type: ignore[attr-defined]
            ):
                seen.add(id(user.parent))
                yield user.parent

    def predecessors(self) -> List["BasicBlock"]:
        return list(self._iter_predecessors())

    @property
    def single_predecessor(self) -> Optional["BasicBlock"]:
        """The only predecessor block, or None; stops at the second."""
        preds = self._iter_predecessors()
        first = next(preds, None)
        if first is None or next(preds, None) is not None:
            return None
        return first

    @property
    def single_successor(self) -> Optional["BasicBlock"]:
        succs = self.successors()
        return succs[0] if len(succs) == 1 else None

    def remove_phi_incoming_for(self, pred: "BasicBlock") -> None:
        for phi in self.phis():
            phi.remove_incoming(pred)

    def erase_from_parent(self) -> None:
        """Drop the block and all of its instructions from the function."""
        for inst in list(self.instructions):
            inst.drop_all_operands()
            inst.parent = None
        self.instructions.clear()
        if self.parent is not None:
            self.parent.blocks.remove(self)
            self.parent = None

    def ref(self) -> str:
        return f"%{self.name}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BasicBlock %{self.name} ({len(self.instructions)} insts)>"


class Function(GlobalValue):
    """A function definition (with blocks) or declaration (without)."""

    def __init__(
        self,
        module: Optional["Module"],
        name: str,
        ftype: FunctionType,
        linkage: str = "external",
        arg_names: Sequence[str] = (),
    ):
        super().__init__(PointerType(ftype), name, linkage)
        self.module = module
        self.ftype = ftype
        self.blocks: List[BasicBlock] = []
        self.attributes: Set[str] = set()
        self.args: List[Argument] = [
            Argument(
                ty,
                arg_names[i] if i < len(arg_names) else f"arg{i}",
                self,
                i,
            )
            for i, ty in enumerate(ftype.params)
        ]
        self._name_counter = 0
        # The index CFG and analyses of the last CFG shape fetched
        # (:func:`repro.analysis.cfg.index_cfg` checks it on every fetch).
        self.cfg_cache = None
        if module is not None:
            module.add_function(self)

    # -- basic properties ----------------------------------------------------
    @property
    def return_type(self) -> Type:
        return self.ftype.ret

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def is_intrinsic(self) -> bool:
        return self.name.startswith("llvm.")

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    # -- construction ----------------------------------------------------------
    def add_block(self, name: str = "", before: Optional[BasicBlock] = None) -> BasicBlock:
        block = BasicBlock(name or self.next_name("bb"), self)
        if before is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(before), block)
        return block

    def next_name(self, prefix: str = "t") -> str:
        self._name_counter += 1
        return f"{prefix}{self._name_counter}"

    # -- iteration ---------------------------------------------------------------
    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    @property
    def instruction_count(self) -> int:
        return sum(len(b.instructions) for b in self.blocks)

    def calls(self) -> Iterator["Instruction"]:
        from .instructions import Call

        for inst in self.instructions():
            if isinstance(inst, Call):
                yield inst

    # -- attributes -----------------------------------------------------------
    def add_attribute(self, attr: str) -> None:
        self.attributes.add(attr)

    def has_attribute(self, attr: str) -> bool:
        return attr in self.attributes

    def __repr__(self) -> str:  # pragma: no cover
        kind = "declare" if self.is_declaration else "define"
        return f"<Function {kind} @{self.name} : {self.ftype}>"


class Module:
    """Top-level container of globals and functions."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: List[Function] = []
        self.globals: List[GlobalVariable] = []
        self._symbols: Dict[str, GlobalValue] = {}

    # -- symbol management ------------------------------------------------------
    def add_function(self, fn: Function) -> Function:
        if fn.name in self._symbols:
            raise ValueError(f"duplicate symbol @{fn.name}")
        fn.module = self
        self.functions.append(fn)
        self._symbols[fn.name] = fn
        return fn

    def add_global(self, gv: GlobalVariable) -> GlobalVariable:
        if gv.name in self._symbols:
            raise ValueError(f"duplicate symbol @{gv.name}")
        gv.module = self
        self.globals.append(gv)
        self._symbols[gv.name] = gv
        return gv

    def get_function(self, name: str) -> Optional[Function]:
        sym = self._symbols.get(name)
        return sym if isinstance(sym, Function) else None

    def get_global(self, name: str) -> Optional[GlobalVariable]:
        sym = self._symbols.get(name)
        return sym if isinstance(sym, GlobalVariable) else None

    def remove_function(self, fn: Function) -> None:
        self.functions.remove(fn)
        del self._symbols[fn.name]
        fn.module = None

    def remove_global(self, gv: GlobalVariable) -> None:
        self.globals.remove(gv)
        del self._symbols[gv.name]
        gv.module = None

    def rename_symbol(self, gv: GlobalValue, new_name: str) -> None:
        if new_name in self._symbols:
            raise ValueError(f"duplicate symbol @{new_name}")
        del self._symbols[gv.name]
        gv.name = new_name
        self._symbols[new_name] = gv

    def unique_symbol_name(self, base: str) -> str:
        if base not in self._symbols:
            return base
        i = 1
        while f"{base}.{i}" in self._symbols:
            i += 1
        return f"{base}.{i}"

    def get_or_insert_function(
        self, name: str, ftype: FunctionType, linkage: str = "external"
    ) -> Function:
        existing = self.get_function(name)
        if existing is not None:
            return existing
        return Function(self, name, ftype, linkage)

    # -- iteration ------------------------------------------------------------
    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions if not f.is_declaration]

    @property
    def instruction_count(self) -> int:
        return sum(f.instruction_count for f in self.functions)

    def clone(self) -> "Module":
        from .clone import clone_module

        return clone_module(self)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
