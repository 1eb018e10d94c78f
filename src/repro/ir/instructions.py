"""Instruction set of the miniature SSA IR.

Design notes
------------
* Basic blocks are :class:`~repro.ir.values.Value`\\ s of label type, and
  terminators/phis hold their target blocks *as operands*. This mirrors LLVM
  and means ``block.replace_all_uses_with(other)`` rewires both branches and
  phi incoming-block slots in one shot — the primitive CFG passes build on.
* Every instruction knows how to classify its own effects
  (``may_read_memory`` / ``may_write_memory`` / ``has_side_effects`` /
  ``is_speculatable``), which is what LICM, CSE, DCE and friends query.
* ``meta`` carries optional key/value metadata (branch weights from
  ``lower-expect``, alignment facts from ``alignment-from-assumptions``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from .types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
    VectorType,
    VOID,
    I1,
    I64,
)
from .values import Constant, ConstantInt, User, Value

if TYPE_CHECKING:  # pragma: no cover
    from .module import BasicBlock, Function

# Opcode groups --------------------------------------------------------------

INT_BINARY_OPS = (
    "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
    "and", "or", "xor", "shl", "lshr", "ashr",
)
FLOAT_BINARY_OPS = ("fadd", "fsub", "fmul", "fdiv", "frem")
BINARY_OPS = INT_BINARY_OPS + FLOAT_BINARY_OPS

COMMUTATIVE_OPS = frozenset({"add", "mul", "and", "or", "xor", "fadd", "fmul"})
ASSOCIATIVE_OPS = frozenset({"add", "mul", "and", "or", "xor"})

ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")
FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge")

#: predicate -> predicate with operands swapped
SWAPPED_PREDICATE = {
    "eq": "eq", "ne": "ne",
    "slt": "sgt", "sgt": "slt", "sle": "sge", "sge": "sle",
    "ult": "ugt", "ugt": "ult", "ule": "uge", "uge": "ule",
    "oeq": "oeq", "one": "one",
    "olt": "ogt", "ogt": "olt", "ole": "oge", "oge": "ole",
}

#: predicate -> logically negated predicate
INVERTED_PREDICATE = {
    "eq": "ne", "ne": "eq",
    "slt": "sge", "sge": "slt", "sle": "sgt", "sgt": "sle",
    "ult": "uge", "uge": "ult", "ule": "ugt", "ugt": "ule",
    "oeq": "one", "one": "oeq",
    "olt": "oge", "oge": "olt", "ole": "ogt", "ogt": "ole",
}

CAST_OPS = (
    "trunc", "zext", "sext", "fptrunc", "fpext",
    "fptosi", "sitofp", "uitofp", "bitcast", "ptrtoint", "inttoptr",
)

TERMINATOR_OPS = frozenset({"br", "switch", "ret", "unreachable"})


class Instruction(User):
    """Base class for all instructions."""

    opcode: str = "?"

    def __init__(self, ty: Type, operands: Sequence[Value] = (), name: str = ""):
        super().__init__(ty, operands, name)
        self.parent: Optional["BasicBlock"] = None
        self.meta: Dict[str, object] = {}

    # -- structural helpers ------------------------------------------------
    @property
    def function(self) -> Optional["Function"]:
        return self.parent.parent if self.parent is not None else None

    @property
    def module(self):
        fn = self.function
        return fn.module if fn is not None else None

    def erase_from_parent(self) -> None:
        """Remove from the containing block and drop operand uses."""
        if self.parent is not None:
            self.parent.instructions.remove(self)
            self.parent = None
        self.drop_all_operands()

    def insert_before(self, other: "Instruction") -> None:
        assert other.parent is not None
        block = other.parent
        block.instructions.insert(block.instructions.index(other), self)
        self.parent = block

    def insert_after(self, other: "Instruction") -> None:
        assert other.parent is not None
        block = other.parent
        block.instructions.insert(block.instructions.index(other) + 1, self)
        self.parent = block

    def move_before(self, other: "Instruction") -> None:
        if self.parent is not None:
            self.parent.instructions.remove(self)
            self.parent = None
        self.insert_before(other)

    def move_to_end(self, block: "BasicBlock") -> None:
        if self.parent is not None:
            self.parent.instructions.remove(self)
        block.instructions.append(self)
        self.parent = block

    # -- classification -----------------------------------------------------
    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATOR_OPS

    @property
    def is_phi(self) -> bool:
        return isinstance(self, Phi)

    @property
    def may_read_memory(self) -> bool:
        return False

    @property
    def may_write_memory(self) -> bool:
        return False

    @property
    def has_side_effects(self) -> bool:
        """True if removing this instruction could change program behaviour
        beyond its own result (memory writes, I/O, control flow)."""
        return self.may_write_memory or self.is_terminator

    @property
    def is_trivially_dead(self) -> bool:
        return not self.has_uses and not self.has_side_effects

    @property
    def is_speculatable(self) -> bool:
        """Safe to execute even if the original program would not have
        (no traps, no memory access, no side effects)."""
        return False

    def clone_impl(self, operands: List[Value]) -> "Instruction":
        """Create a detached copy with the given (already-mapped) operands."""
        raise NotImplementedError(type(self).__name__)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        ops = ", ".join(op.ref() for op in self.operands)
        head = f"%{self.name} = " if not self.type.is_void and self.name else ""
        return f"<{head}{self.opcode} {ops}>"


class BinaryOp(Instruction):
    """Two-operand arithmetic/logic (scalar or vector)."""

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = ""):
        if opcode not in BINARY_OPS:
            raise ValueError(f"bad binary opcode {opcode!r}")
        if lhs.type != rhs.type:
            raise TypeError(f"{opcode}: operand types differ: {lhs.type} vs {rhs.type}")
        super().__init__(lhs.type, [lhs, rhs], name)
        self.opcode = opcode

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)

    @property
    def is_commutative(self) -> bool:
        return self.opcode in COMMUTATIVE_OPS

    @property
    def is_division(self) -> bool:
        return self.opcode in ("sdiv", "udiv", "srem", "urem")

    @property
    def is_speculatable(self) -> bool:
        if self.is_division:
            rhs = self.rhs
            return isinstance(rhs, ConstantInt) and not rhs.is_zero()
        return True

    def clone_impl(self, operands: List[Value]) -> "BinaryOp":
        return BinaryOp(self.opcode, operands[0], operands[1], self.name)


class ICmp(Instruction):
    """Integer/pointer comparison producing i1 (or vector of i1)."""

    opcode = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"bad icmp predicate {predicate!r}")
        if lhs.type != rhs.type:
            raise TypeError("icmp operand types differ")
        result = (
            VectorType(I1, lhs.type.count)
            if isinstance(lhs.type, VectorType)
            else I1
        )
        super().__init__(result, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)

    @property
    def is_speculatable(self) -> bool:
        return True

    def clone_impl(self, operands: List[Value]) -> "ICmp":
        return ICmp(self.predicate, operands[0], operands[1], self.name)


class FCmp(Instruction):
    """Ordered floating-point comparison producing i1."""

    opcode = "fcmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"bad fcmp predicate {predicate!r}")
        if lhs.type != rhs.type:
            raise TypeError("fcmp operand types differ")
        result = (
            VectorType(I1, lhs.type.count)
            if isinstance(lhs.type, VectorType)
            else I1
        )
        super().__init__(result, [lhs, rhs], name)
        self.predicate = predicate

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)

    @property
    def is_speculatable(self) -> bool:
        return True

    def clone_impl(self, operands: List[Value]) -> "FCmp":
        return FCmp(self.predicate, operands[0], operands[1], self.name)


class Alloca(Instruction):
    """Stack allocation; yields a pointer to ``allocated_type``."""

    opcode = "alloca"

    def __init__(self, allocated_type: Type, name: str = "", alignment: int = 0):
        super().__init__(PointerType(allocated_type), [], name)
        self.allocated_type = allocated_type
        self.alignment = alignment or allocated_type.alignment

    def clone_impl(self, operands: List[Value]) -> "Alloca":
        return Alloca(self.allocated_type, self.name, self.alignment)


class Load(Instruction):
    """Memory read through a typed pointer."""

    opcode = "load"

    def __init__(self, pointer: Value, name: str = "", alignment: int = 0):
        if not isinstance(pointer.type, PointerType):
            raise TypeError("load requires a pointer operand")
        pointee = pointer.type.pointee
        super().__init__(pointee, [pointer], name)
        self.alignment = alignment or pointee.alignment

    @property
    def pointer(self) -> Value:
        return self.operand(0)

    @property
    def may_read_memory(self) -> bool:
        return True

    def clone_impl(self, operands: List[Value]) -> "Load":
        return Load(operands[0], self.name, self.alignment)


class Store(Instruction):
    """Memory write through a typed pointer. Produces no value."""

    opcode = "store"

    def __init__(self, value: Value, pointer: Value, alignment: int = 0):
        if not isinstance(pointer.type, PointerType):
            raise TypeError("store requires a pointer operand")
        if pointer.type.pointee != value.type:
            raise TypeError(
                f"store type mismatch: {value.type} into {pointer.type}"
            )
        super().__init__(VOID, [value, pointer])
        self.alignment = alignment or value.type.alignment

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def pointer(self) -> Value:
        return self.operand(1)

    @property
    def may_write_memory(self) -> bool:
        return True

    def clone_impl(self, operands: List[Value]) -> "Store":
        return Store(operands[0], operands[1], self.alignment)


class GetElementPtr(Instruction):
    """Pointer arithmetic over typed objects (simplified LLVM GEP).

    The first index scales by the size of the pointee; later indices step
    into arrays and structs. Struct indices must be constant.
    """

    opcode = "gep"

    def __init__(self, pointer: Value, indices: Sequence[Value], name: str = ""):
        if not isinstance(pointer.type, PointerType):
            raise TypeError("gep requires a pointer operand")
        result = self._result_type(pointer.type, indices)
        super().__init__(result, [pointer, *indices], name)

    @staticmethod
    def _result_type(ptr_ty: PointerType, indices: Sequence[Value]) -> PointerType:
        ty: Type = ptr_ty.pointee
        for idx in list(indices)[1:]:
            if isinstance(ty, (ArrayType, VectorType)):
                ty = ty.element
            elif isinstance(ty, StructType):
                if not isinstance(idx, ConstantInt):
                    raise TypeError("struct gep index must be constant")
                ty = ty.fields[idx.value]
            else:
                raise TypeError(f"cannot index into {ty}")
        return PointerType(ty)

    @property
    def pointer(self) -> Value:
        return self.operand(0)

    @property
    def indices(self) -> List[Value]:
        return self.operands[1:]

    @property
    def has_all_constant_indices(self) -> bool:
        return all(isinstance(i, ConstantInt) for i in self.indices)

    def constant_offset(self) -> Optional[int]:
        """Byte offset if all indices are constants, else ``None``."""
        if not self.has_all_constant_indices:
            return None
        assert isinstance(self.pointer.type, PointerType)
        ty: Type = self.pointer.type.pointee
        offset = self.indices[0].value * ty.size  # type: ignore[union-attr]
        for idx in self.indices[1:]:
            assert isinstance(idx, ConstantInt)
            if isinstance(ty, (ArrayType, VectorType)):
                ty = ty.element
                offset += idx.value * ty.size
            elif isinstance(ty, StructType):
                offset += ty.field_offset(idx.value)
                ty = ty.fields[idx.value]
            else:  # pragma: no cover - rejected at construction
                raise TypeError(f"cannot index into {ty}")
        return offset

    @property
    def is_speculatable(self) -> bool:
        return True  # address arithmetic never traps in this IR

    def clone_impl(self, operands: List[Value]) -> "GetElementPtr":
        return GetElementPtr(operands[0], operands[1:], self.name)


class Phi(Instruction):
    """SSA phi node. Operands are stored as [v0, b0, v1, b1, ...]."""

    opcode = "phi"

    def __init__(self, ty: Type, name: str = ""):
        super().__init__(ty, [], name)

    @property
    def num_incoming(self) -> int:
        return self.num_operands // 2

    def incoming_value(self, i: int) -> Value:
        return self.operand(2 * i)

    def incoming_block(self, i: int) -> "BasicBlock":
        return self.operand(2 * i + 1)  # type: ignore[return-value]

    def incoming(self) -> Iterable[Tuple[Value, "BasicBlock"]]:
        for i in range(self.num_incoming):
            yield self.incoming_value(i), self.incoming_block(i)

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type != self.type:
            raise TypeError(
                f"phi incoming type {value.type} != phi type {self.type}"
            )
        self.append_operand(value)
        self.append_operand(block)

    def incoming_for_block(self, block: "BasicBlock") -> Optional[Value]:
        for value, pred in self.incoming():
            if pred is block:
                return value
        return None

    def set_incoming_value(self, i: int, value: Value) -> None:
        self.set_operand(2 * i, value)

    def remove_incoming(self, block: "BasicBlock") -> None:
        for i in range(self.num_incoming - 1, -1, -1):
            if self.incoming_block(i) is block:
                self.remove_operand(2 * i + 1)
                self.remove_operand(2 * i)

    def unique_value(self) -> Optional[Value]:
        """The single incoming value if all entries agree (ignoring self),
        and replacing the phi with it preserves dominance.

        A value that is an instruction *in the phi's own block* is defined
        after the phi (phis lead the block), so it reaches the phi only
        around a back edge — folding would put uses before the def. Such
        loop-carried single-entry phis are reported as irreducible (None).
        """
        unique: Optional[Value] = None
        for value, _ in self.incoming():
            if value is self:
                continue
            if unique is None:
                unique = value
            elif unique is not value:
                return None
        if (
            isinstance(unique, Instruction)
            and unique.parent is not None
            and unique.parent is self.parent
        ):
            return None
        return unique

    def clone_impl(self, operands: List[Value]) -> "Phi":
        clone = Phi(self.type, self.name)
        for op in operands:
            clone.append_operand(op)
        return clone


class Select(Instruction):
    """Ternary select: ``cond ? tval : fval``."""

    opcode = "select"

    def __init__(self, cond: Value, tval: Value, fval: Value, name: str = ""):
        if tval.type != fval.type:
            raise TypeError("select arm types differ")
        super().__init__(tval.type, [cond, tval, fval], name)

    @property
    def condition(self) -> Value:
        return self.operand(0)

    @property
    def true_value(self) -> Value:
        return self.operand(1)

    @property
    def false_value(self) -> Value:
        return self.operand(2)

    @property
    def is_speculatable(self) -> bool:
        return True

    def clone_impl(self, operands: List[Value]) -> "Select":
        return Select(operands[0], operands[1], operands[2], self.name)


class Cast(Instruction):
    """Type conversion."""

    def __init__(self, opcode: str, value: Value, to_type: Type, name: str = ""):
        if opcode not in CAST_OPS:
            raise ValueError(f"bad cast opcode {opcode!r}")
        super().__init__(to_type, [value], name)
        self.opcode = opcode

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def is_speculatable(self) -> bool:
        return True

    def clone_impl(self, operands: List[Value]) -> "Cast":
        return Cast(self.opcode, operands[0], self.type, self.name)


class ExtractElement(Instruction):
    """Read one lane of a vector."""

    opcode = "extractelement"

    def __init__(self, vector: Value, index: Value, name: str = ""):
        if not isinstance(vector.type, VectorType):
            raise TypeError("extractelement requires a vector")
        super().__init__(vector.type.element, [vector, index], name)

    @property
    def vector(self) -> Value:
        return self.operand(0)

    @property
    def index(self) -> Value:
        return self.operand(1)

    @property
    def is_speculatable(self) -> bool:
        return True

    def clone_impl(self, operands: List[Value]) -> "ExtractElement":
        return ExtractElement(operands[0], operands[1], self.name)


class InsertElement(Instruction):
    """Write one lane of a vector, yielding the updated vector."""

    opcode = "insertelement"

    def __init__(self, vector: Value, element: Value, index: Value, name: str = ""):
        if not isinstance(vector.type, VectorType):
            raise TypeError("insertelement requires a vector")
        if vector.type.element != element.type:
            raise TypeError("insertelement element type mismatch")
        super().__init__(vector.type, [vector, element, index], name)

    @property
    def vector(self) -> Value:
        return self.operand(0)

    @property
    def is_speculatable(self) -> bool:
        return True

    def clone_impl(self, operands: List[Value]) -> "InsertElement":
        return InsertElement(operands[0], operands[1], operands[2], self.name)


class Call(Instruction):
    """Direct or indirect function call. Operand 0 is the callee."""

    opcode = "call"

    def __init__(self, callee: Value, args: Sequence[Value], name: str = "",
                 tail: bool = False):
        from .module import Function  # local import to avoid a cycle

        if isinstance(callee, Function):
            ret = callee.return_type
        elif isinstance(callee.type, PointerType) and callee.type.pointee.is_function:
            ret = callee.type.pointee.ret  # type: ignore[union-attr]
        else:
            raise TypeError(f"call target is not a function: {callee.type}")
        super().__init__(ret, [callee, *args], name)
        self.tail = tail

    @property
    def callee(self) -> Value:
        return self.operand(0)

    @property
    def called_function(self) -> Optional["Function"]:
        from .module import Function

        callee = self.callee
        return callee if isinstance(callee, Function) else None

    @property
    def args(self) -> List[Value]:
        return self.operands[1:]

    def arg(self, i: int) -> Value:
        return self.operand(i + 1)

    def set_arg(self, i: int, value: Value) -> None:
        self.set_operand(i + 1, value)

    @property
    def intrinsic_name(self) -> Optional[str]:
        fn = self.called_function
        if fn is not None and fn.name.startswith("llvm."):
            return fn.name
        return None

    def _callee_attrs(self) -> frozenset:
        fn = self.called_function
        return frozenset(fn.attributes) if fn is not None else frozenset()

    @property
    def may_read_memory(self) -> bool:
        return "readnone" not in self._callee_attrs()

    @property
    def may_write_memory(self) -> bool:
        attrs = self._callee_attrs()
        return "readnone" not in attrs and "readonly" not in attrs

    @property
    def has_side_effects(self) -> bool:
        # A call is removable only if it neither writes memory nor diverges.
        attrs = self._callee_attrs()
        pure = ("readnone" in attrs or "readonly" in attrs)
        return not (pure and "willreturn" in attrs)

    def clone_impl(self, operands: List[Value]) -> "Call":
        return Call(operands[0], operands[1:], self.name, self.tail)


class Branch(Instruction):
    """Unconditional (``br label``) or conditional (``br i1, l1, l2``)."""

    opcode = "br"

    def __init__(self, *operands: Value):
        if len(operands) == 1:
            super().__init__(VOID, list(operands))
        elif len(operands) == 3:
            if operands[0].type != I1:
                raise TypeError("branch condition must be i1")
            super().__init__(VOID, list(operands))
        else:
            raise ValueError("br takes 1 (target) or 3 (cond, then, else) operands")

    @property
    def is_conditional(self) -> bool:
        return self.num_operands == 3

    @property
    def condition(self) -> Value:
        assert self.is_conditional
        return self.operand(0)

    @property
    def targets(self) -> List["BasicBlock"]:
        ops = self._operands
        if len(ops) == 3:
            return [ops[1], ops[2]]  # type: ignore[list-item]
        return [ops[0]]  # type: ignore[list-item]

    @property
    def true_target(self) -> "BasicBlock":
        assert self.is_conditional
        return self.operand(1)  # type: ignore[return-value]

    @property
    def false_target(self) -> "BasicBlock":
        assert self.is_conditional
        return self.operand(2)  # type: ignore[return-value]

    def clone_impl(self, operands: List[Value]) -> "Branch":
        return Branch(*operands)


class Switch(Instruction):
    """Multi-way branch: operands are [value, default, cv0, b0, cv1, b1...]."""

    opcode = "switch"

    def __init__(self, value: Value, default: Value,
                 cases: Sequence[Tuple[ConstantInt, Value]] = ()):
        ops: List[Value] = [value, default]
        for cv, block in cases:
            ops.extend((cv, block))
        super().__init__(VOID, ops)

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def default(self) -> "BasicBlock":
        return self.operand(1)  # type: ignore[return-value]

    @property
    def num_cases(self) -> int:
        return (self.num_operands - 2) // 2

    def cases(self) -> Iterable[Tuple[ConstantInt, "BasicBlock"]]:
        for i in range(self.num_cases):
            yield (
                self.operand(2 + 2 * i),  # type: ignore[misc]
                self.operand(3 + 2 * i),  # type: ignore[misc]
            )

    @property
    def targets(self) -> List["BasicBlock"]:
        ops = self._operands
        return [ops[1], *ops[3::2]]  # type: ignore[list-item]

    def clone_impl(self, operands: List[Value]) -> "Switch":
        cases = [
            (operands[2 + 2 * i], operands[3 + 2 * i])
            for i in range((len(operands) - 2) // 2)
        ]
        return Switch(operands[0], operands[1], cases)  # type: ignore[arg-type]


class Ret(Instruction):
    """Function return, with or without a value."""

    opcode = "ret"

    def __init__(self, value: Optional[Value] = None):
        super().__init__(VOID, [value] if value is not None else [])

    @property
    def value(self) -> Optional[Value]:
        return self.operand(0) if self.num_operands else None

    @property
    def targets(self) -> List["BasicBlock"]:
        return []

    def clone_impl(self, operands: List[Value]) -> "Ret":
        return Ret(operands[0] if operands else None)


class Unreachable(Instruction):
    """Marks statically unreachable control flow."""

    opcode = "unreachable"

    def __init__(self) -> None:
        super().__init__(VOID, [])

    @property
    def targets(self) -> List["BasicBlock"]:
        return []

    def clone_impl(self, operands: List[Value]) -> "Unreachable":
        return Unreachable()
