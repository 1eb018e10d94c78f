"""Value hierarchy: the SSA value graph.

Every node in the IR is a :class:`Value`. Values that consume other values
(instructions, global initializers are kept simple constants) register a
:class:`Use` on each operand, giving the full def-use chain that analyses and
transformations rely on (``replace_all_uses_with`` is the workhorse of nearly
every pass).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence

from .types import (
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    Type,
    VectorType,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .instructions import Instruction
    from .module import Function, Module


class Use:
    """A single (user, operand-index) edge in the value graph."""

    __slots__ = ("user", "index")

    def __init__(self, user: "User", index: int):
        self.user = user
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Use({self.user!r}[{self.index}])"


class Value:
    """Base class for everything that can be an operand."""

    def __init__(self, ty: Type, name: str = ""):
        self.type = ty
        self.name = name
        self.uses: List[Use] = []

    # -- use bookkeeping --------------------------------------------------
    def add_use(self, use: Use) -> None:
        self.uses.append(use)

    def remove_use(self, use: Use) -> None:
        self.uses.remove(use)

    @property
    def num_uses(self) -> int:
        return len(self.uses)

    @property
    def has_uses(self) -> bool:
        return bool(self.uses)

    def users(self) -> Iterator["User"]:
        """Iterate over distinct users of this value."""
        seen = set()
        for use in list(self.uses):
            if id(use.user) not in seen:
                seen.add(id(use.user))
                yield use.user

    def replace_all_uses_with(self, other: "Value") -> None:
        """Rewrite every use of ``self`` to use ``other`` instead."""
        if other is self:
            return
        for use in list(self.uses):
            use.user.set_operand(use.index, other)

    # -- display -----------------------------------------------------------
    def ref(self) -> str:
        """Short textual reference used inside instruction operands."""
        return f"%{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.ref()} : {self.type}>"


class User(Value):
    """A value that holds operands (instructions and constant expressions)."""

    def __init__(self, ty: Type, operands: Sequence[Value] = (), name: str = ""):
        super().__init__(ty, name)
        self._operands: List[Value] = []
        self._uses_on_operands: List[Use] = []
        for op in operands:
            self.append_operand(op)

    @property
    def operands(self) -> List[Value]:
        return list(self._operands)

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    def operand(self, index: int) -> Value:
        return self._operands[index]

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        if old is value:
            return
        old.remove_use(self._uses_on_operands[index])
        self._operands[index] = value
        value.add_use(self._uses_on_operands[index])

    def append_operand(self, value: Value) -> None:
        use = Use(self, len(self._operands))
        self._operands.append(value)
        self._uses_on_operands.append(use)
        value.add_use(use)

    def remove_operand(self, index: int) -> None:
        self._operands[index].remove_use(self._uses_on_operands[index])
        del self._operands[index]
        del self._uses_on_operands[index]
        for i in range(index, len(self._operands)):
            self._uses_on_operands[i].index = i

    def drop_all_operands(self) -> None:
        """Detach from all operands (used when erasing instructions)."""
        for op, use in zip(self._operands, self._uses_on_operands):
            op.remove_use(use)
        self._operands.clear()
        self._uses_on_operands.clear()


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------


class Constant(Value):
    """Base class for compile-time constants.

    Non-global constants keep no use list. They are immutable and shared:
    a module clone keeps the original's constants, so a use list on one
    would tie every clone's instructions to the original module and keep
    dropped clones alive. :class:`GlobalValue` keeps its uses.
    """

    def add_use(self, use: Use) -> None:
        pass

    def remove_use(self, use: Use) -> None:
        pass

    def ref(self) -> str:
        raise NotImplementedError

    def is_zero(self) -> bool:
        return False

    def is_one(self) -> bool:
        return False


class ConstantInt(Constant):
    """An integer constant, stored in signed canonical form."""

    def __init__(self, ty: IntType, value: int):
        super().__init__(ty)
        self.value = ty.wrap(int(value))

    @property
    def int_type(self) -> IntType:
        assert isinstance(self.type, IntType)
        return self.type

    @property
    def unsigned(self) -> int:
        return self.value & ((1 << self.int_type.bits) - 1)

    def is_zero(self) -> bool:
        return self.value == 0

    def is_one(self) -> bool:
        return self.value == 1

    def is_all_ones(self) -> bool:
        return self.unsigned == self.int_type.max_unsigned

    def is_power_of_two(self) -> bool:
        u = self.unsigned
        return u > 0 and (u & (u - 1)) == 0

    def log2(self) -> int:
        assert self.is_power_of_two()
        return self.unsigned.bit_length() - 1

    def ref(self) -> str:
        if self.int_type.bits == 1:
            return "true" if self.value else "false"
        return str(self.value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ConstantInt {self.type} {self.value}>"


class ConstantFloat(Constant):
    """A floating point constant."""

    def __init__(self, ty: FloatType, value: float):
        super().__init__(ty)
        self.value = float(value)

    def is_zero(self) -> bool:
        return self.value == 0.0 and not math.copysign(1.0, self.value) < 0

    def is_one(self) -> bool:
        return self.value == 1.0

    def ref(self) -> str:
        return repr(self.value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ConstantFloat {self.type} {self.value}>"


class ConstantNull(Constant):
    """The null pointer of some pointer type."""

    def __init__(self, ty: PointerType):
        super().__init__(ty)

    def is_zero(self) -> bool:
        return True

    def ref(self) -> str:
        return "null"


class UndefValue(Constant):
    """An unspecified value of any first-class type."""

    def __init__(self, ty: Type):
        super().__init__(ty)

    def ref(self) -> str:
        return "undef"


class ConstantArray(Constant):
    """A constant aggregate used mostly as a global initializer."""

    def __init__(self, ty: ArrayType, elements: Sequence[Constant]):
        if len(elements) != ty.count:
            raise ValueError("element count mismatch")
        super().__init__(ty)
        self.elements = list(elements)

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.elements)

    def ref(self) -> str:
        inner = ", ".join(f"{e.type} {e.ref()}" for e in self.elements)
        return f"[{inner}]"


class ConstantVector(Constant):
    """A constant SIMD vector (including splats)."""

    def __init__(self, ty: VectorType, elements: Sequence[Constant]):
        if len(elements) != ty.count:
            raise ValueError("element count mismatch")
        super().__init__(ty)
        self.elements = list(elements)

    @classmethod
    def splat(cls, ty: VectorType, element: Constant) -> "ConstantVector":
        return cls(ty, [element] * ty.count)

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.elements)

    def is_splat(self) -> bool:
        first = self.elements[0]
        return all(
            type(e) is type(first) and getattr(e, "value", 0) == getattr(first, "value", 0)
            for e in self.elements
        )

    def ref(self) -> str:
        inner = ", ".join(f"{e.type} {e.ref()}" for e in self.elements)
        return f"<{inner}>"


class ConstantString(Constant):
    """A constant byte string (array of i8), used for global data."""

    def __init__(self, data: bytes):
        super().__init__(ArrayType(IntType(8), len(data)))
        self.data = bytes(data)

    def is_zero(self) -> bool:
        return all(b == 0 for b in self.data)

    def ref(self) -> str:
        text = "".join(
            chr(b) if 32 <= b < 127 and chr(b) not in '"\\' else f"\\{b:02x}"
            for b in self.data
        )
        return f'c"{text}"'


# ---------------------------------------------------------------------------
# Non-constant, non-instruction values
# ---------------------------------------------------------------------------


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, ty: Type, name: str, function: Optional["Function"] = None,
                 index: int = 0):
        super().__init__(ty, name)
        self.function = function
        self.index = index


class GlobalValue(Constant):
    """Base for module-level symbols: functions and global variables.

    Global values are constants (their *address* is a link-time constant).
    ``linkage`` is either ``"external"`` (visible outside the module) or
    ``"internal"`` (static; eligible for whole-module optimizations).
    """

    add_use = Value.add_use
    remove_use = Value.remove_use

    def __init__(self, ty: PointerType, name: str, linkage: str = "external"):
        super().__init__(ty)
        self.name = name
        self.linkage = linkage
        self.module: Optional["Module"] = None

    @property
    def is_internal(self) -> bool:
        return self.linkage == "internal"

    @property
    def value_type(self) -> Type:
        """The type of the object the symbol points at."""
        assert isinstance(self.type, PointerType)
        return self.type.pointee

    def ref(self) -> str:
        return f"@{self.name}"


class GlobalVariable(GlobalValue, User):
    """A module-level variable.

    The initializer, when present, is held as an *operand* so that symbols
    referenced from initializers (e.g. function-pointer tables) show up in
    use lists — GlobalDCE and the call graph's address-taken analysis rely
    on this.
    """

    def __init__(
        self,
        ty: Type,
        name: str,
        initializer: Optional[Constant] = None,
        is_constant: bool = False,
        linkage: str = "external",
        alignment: int = 0,
    ):
        GlobalValue.__init__(self, PointerType(ty), name, linkage)
        self._operands = []
        self._uses_on_operands = []
        if initializer is not None:
            self.append_operand(initializer)
        self.is_constant = is_constant
        self.alignment = alignment or ty.alignment

    @property
    def initializer(self) -> Optional[Constant]:
        return self._operands[0] if self._operands else None  # type: ignore[return-value]

    def set_initializer(self, value: Optional[Constant]) -> None:
        if self._operands:
            if value is None:
                self.remove_operand(0)
            else:
                self.set_operand(0, value)
        elif value is not None:
            self.append_operand(value)


def make_constant(ty: Type, value) -> Constant:
    """Build a scalar constant of ``ty`` from a Python number."""
    if isinstance(ty, IntType):
        return ConstantInt(ty, int(value))
    if isinstance(ty, FloatType):
        return ConstantFloat(ty, float(value))
    if isinstance(ty, PointerType) and value in (0, None):
        return ConstantNull(ty)
    if isinstance(ty, VectorType):
        return ConstantVector.splat(ty, make_constant(ty.element, value))
    raise TypeError(f"cannot build constant of type {ty}")


def zero(ty: Type) -> Constant:
    """The zero/null constant of ``ty``."""
    if isinstance(ty, ArrayType):
        return ConstantArray(ty, [zero(ty.element) for _ in range(ty.count)])
    return make_constant(ty, 0)
