"""Parser for the textual IR produced by :mod:`repro.ir.printer`.

Supports everything the printer emits except named struct types (structs
are built programmatically; modules containing struct-typed globals or
allocas do not round-trip through text — the test-suite's round-trip
properties use struct-free modules).

One compiled-regex ``findall`` turns the text into a flat token list. A
first walk over the top level creates every global and function
signature, skipping each function body by index, so calls resolve in any
order; bodies are then parsed in text order. Every parse step takes the
index of its first token and returns the index after its last.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    ExtractElement,
    FCmp,
    GetElementPtr,
    ICmp,
    InsertElement,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
    Unreachable,
    BINARY_OPS,
    CAST_OPS,
)
from .module import BasicBlock, Function, Module
from .types import (
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    Type,
    VectorType,
    VOID,
    I1,
)
from .values import (
    Constant,
    ConstantArray,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    ConstantVector,
    GlobalVariable,
    UndefValue,
    Value,
    zero,
)


class ParseError(ValueError):
    """Raised on malformed IR text."""


#: One token. At most one alternative can match at any position, except
#: a string and the word ``c`` it starts with, so the string comes first
#: and otherwise the most frequent tokens are tried first.
_TOKEN = r"""
    %[A-Za-z0-9._$\-]+
  | c"(?:[^"\\]|\\[0-9a-fA-F]{2})*"
  | [A-Za-z_][A-Za-z0-9_.]*
  | [=,:(){}\[\]<>*]|\.\.\.
  | -?\d+\.\d+(?:e[+-]?\d+)?|-?\d+
  | @[A-Za-z0-9._$\-]+
"""
_ONE_TOKEN_RE = re.compile(_TOKEN, re.VERBOSE)
#: Whitespace and comments before a token match outside the group. Where
#: no token starts, ``.+`` takes the rest of the text as one final token,
#: which :func:`_tokenize` reports; so the group always matches at once
#: and the scan never backtracks.
_TOKEN_RE = re.compile(
    r"(?: \s+ | ;[^\n]* )* (" + _TOKEN + r" | .+ | \Z)",
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> List[str]:
    tokens = _TOKEN_RE.findall(text)
    tokens.pop()  # the empty match at the end of the text
    if tokens and not tokens[-1]:
        tokens.pop()  # the text ended in whitespace or a comment
    if tokens and not _ONE_TOKEN_RE.fullmatch(tokens[-1]):
        pos = len(text) - len(tokens[-1])
        raise ParseError(f"bad character at offset {pos}: {text[pos:pos+20]!r}")
    return tokens


def _expect(toks: List[str], i: int, token: str) -> int:
    """The index after ``toks[i]``, which must be ``token``."""
    got = toks[i]
    if got != token:
        raise ParseError(f"expected {token!r}, got {got!r} at token {i + 1}")
    return i + 1


def _parse_align(toks: List[str], i: int) -> Tuple[int, int]:
    """An optional ``, align N`` suffix: ``(N or 0, next index)``."""
    if i < len(toks) and toks[i] == ",":
        i = _expect(toks, i + 1, "align")
        return int(toks[i]), i + 1
    return 0, i


class _Placeholder(Value):
    """Stand-in for a local value referenced before its definition."""


_SCALAR_TYPES: Dict[str, Type] = {
    "i1": IntType(1), "i8": IntType(8), "i16": IntType(16),
    "i32": IntType(32), "i64": IntType(64),
    "float": FloatType(32), "double": FloatType(64), "void": VOID,
}


def _parse_type(toks: List[str], i: int) -> Tuple[Type, int]:
    tok = toks[i]
    i += 1
    ty = _SCALAR_TYPES.get(tok)
    if ty is None:
        if tok != "[" and tok != "<":
            raise ParseError(f"expected type, got {tok!r}")
        count = int(toks[i])
        elem, i = _parse_type(toks, _expect(toks, i + 1, "x"))
        if tok == "[":
            ty = ArrayType(elem, count)
            i = _expect(toks, i, "]")
        else:
            ty = VectorType(elem, count)
            i = _expect(toks, i, ">")
    while i < len(toks) and toks[i] == "*":
        ty = PointerType(ty)
        i += 1
    return ty, i


_ESCAPE_RE = re.compile(r"\\([0-9a-fA-F]{2})")


def _parse_string_data(token: str) -> bytes:
    """The bytes of a ``c"..."`` token; ``\\XX`` is one byte in hex."""
    body = _ESCAPE_RE.sub(lambda m: chr(int(m.group(1), 16)), token[2:-1])
    return body.encode("latin-1")


def _scalar_constant(tok: str, ty: Type) -> Constant:
    if tok == "null":
        assert isinstance(ty, PointerType)
        return ConstantNull(ty)
    if tok == "true":
        return ConstantInt(I1, 1)
    if tok == "false":
        return ConstantInt(I1, 0)
    if isinstance(ty, IntType):
        return ConstantInt(ty, int(tok))
    if isinstance(ty, FloatType):
        return ConstantFloat(ty, float(tok))
    raise ParseError(f"bad constant {tok!r} for {ty}")


_MODULE_NAME_RE = re.compile(r"^;\s*module\s+(\S+)\s*$", re.MULTILINE)


class _Parser:
    """Builds one module; the function-body state (``fn``, ``locals``,
    ``blocks``, ``placeholders``) is reset for each body."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        # The printer records the module name in a leading comment;
        # recover it so print -> parse -> print is an exact round trip.
        m = _MODULE_NAME_RE.search(text)
        self.module = Module(m.group(1) if m else "module")

    def symbol(self, name: str) -> Value:
        sym = self.module._symbols.get(name)
        if sym is None:
            raise ParseError(f"unknown symbol @{name}")
        return sym

    def parse(self) -> Module:
        toks = self.toks
        n = len(toks)
        # Signatures and globals first, so calls resolve in any order:
        # each body is skipped by index (a body holds no brace but its
        # own two) and queued as (function name, index of its "{"). A
        # stray top-level token is queued as (None, its index) and
        # raised when the body parse reaches it.
        queued: List[Tuple[Optional[str], int]] = []
        i = 0
        while i < n:
            tok = toks[i]
            self.at = i
            if tok == "define" or tok == "declare":
                name, i = self._parse_function_header(i)
                if tok == "define":
                    queued.append((name, i))
                if i < n and toks[i] == "{":
                    if tok == "declare":
                        queued.append((None, i))
                    try:
                        i = toks.index("}", i) + 1
                    except ValueError:
                        raise ParseError("unexpected end of input") from None
            elif tok[0] == "@":
                i = self._parse_global(i)
            else:
                queued.append((None, i))
                i += 1
        for name, i in queued:
            if name is None:
                raise ParseError(f"unexpected top-level token {toks[i]!r}")
            fn = self.module.get_function(name)
            assert fn is not None
            self.parse_body(fn, i)
        return self.module

    # -- globals --------------------------------------------------------------
    def _parse_global(self, i: int) -> int:
        toks = self.toks
        name = toks[i][1:]
        i = _expect(toks, i + 1, "=")
        if self.module._symbols.get(name) is not None:
            raise ParseError(f"redefinition of @{name}")
        linkage = "external"
        if toks[i] == "internal":
            linkage = "internal"
            i += 1
        is_const = toks[i] == "constant"
        ty, i = _parse_type(toks, i + 1)
        init, i = self._parse_initializer(i, ty)
        align, i = _parse_align(toks, i)
        self.module.add_global(
            GlobalVariable(ty, name, init, is_const, linkage, align)
        )
        return i

    def _parse_initializer(
        self, i: int, ty: Type
    ) -> Tuple[Optional[Constant], int]:
        toks = self.toks
        # At the end of the text only a scalar type reads a token (and
        # runs off the list); the others cannot be initialized.
        tok = toks[i] if i < len(toks) else ""
        if tok == "zeroinitializer":
            return zero(ty), i + 1
        if tok.startswith('c"'):
            return ConstantString(_parse_string_data(tok)), i + 1
        if isinstance(ty, ArrayType) and tok == "[":
            i += 1
            elements: List[Constant] = []
            while toks[i] != "]":
                if elements:
                    i = _expect(toks, i, ",")
                ety, i = _parse_type(toks, i)
                elements.append(_scalar_constant(toks[i], ety))
                i += 1
            return ConstantArray(ty, elements), i + 1
        if isinstance(ty, (IntType, FloatType, PointerType)):
            return _scalar_constant(toks[i], ty), i + 1
        raise ParseError(f"cannot parse initializer for {ty}")

    # -- functions ------------------------------------------------------------
    def _parse_function_header(self, i: int) -> Tuple[str, int]:
        """A ``define``/``declare`` line up to its body: ``(function name,
        next index)``; creates the function unless the name exists."""
        toks = self.toks
        i += 1  # define | declare
        linkage = "external"
        if toks[i] == "internal":
            linkage = "internal"
            i += 1
        ret, i = _parse_type(toks, i)
        name = toks[i][1:]
        i = _expect(toks, i + 1, "(")
        params: List[Type] = []
        arg_names: List[str] = []
        vararg = False
        while toks[i] != ")":
            if params or vararg:
                i = _expect(toks, i, ",")
            if toks[i] == "...":
                vararg = True
                i += 1
                continue
            ty, i = _parse_type(toks, i)
            params.append(ty)
            if toks[i][0] == "%":
                arg_names.append(toks[i][1:])
                i += 1
            else:
                arg_names.append(f"arg{len(params) - 1}")
        i += 1
        start = i
        n = len(toks)
        while i < n and toks[i] not in ("{", "define", "declare") and (
            toks[i][0] != "@"
        ):
            i += 1
        if self.module.get_function(name) is None:
            fn = Function(
                self.module, name, FunctionType(ret, params, vararg),
                linkage, arg_names,
            )
            fn.attributes.update(toks[start:i])
        return name, i

    def parse_body(self, fn: Function, i: int) -> int:
        """Parse the body starting at ``toks[i] == "{"`` into ``fn``;
        forward references resolve by its closing ``}``."""
        toks = self.toks
        self.fn = fn
        self.locals: Dict[str, Value] = {f"%{a.name}": a for a in fn.args}
        self.blocks: Dict[str, BasicBlock] = {}
        self.placeholders: List[_Placeholder] = []
        rhs = _RHS_PARSERS
        i = _expect(toks, i, "{")
        current: Optional[BasicBlock] = None
        while True:
            tok = toks[i]
            if tok == "}":
                break
            after = toks[i + 1]
            if after == ":":
                current = self.get_block(tok)
                if current not in fn.blocks:
                    fn.blocks.append(current)
                i += 2
                continue
            if current is None:
                raise ParseError("instruction before first block label")
            result: Optional[str] = None
            if after == "=" and tok[0] == "%":
                result = tok
                i += 2
            op = toks[i]
            self.at = i
            parse_rhs = rhs.get(op)
            if parse_rhs is not None:
                inst, i = parse_rhs(self, op, i + 1)
            elif op == "tail" and toks[i + 1] == "call":
                inst, i = self._call(op, i + 2)
            else:
                raise ParseError(f"unknown instruction opcode {op!r}")
            current.append(inst)
            if result is not None:
                inst.name = result[1:]
                self.define_local(result, inst)
        if self.placeholders:
            names = ", ".join(p.name for p in self.placeholders)
            raise ParseError(f"undefined locals: {names}")
        return i + 1

    def get_block(self, name: str) -> BasicBlock:
        block = self.blocks.get(name)
        if block is None:
            block = BasicBlock(name, self.fn)
            self.blocks[name] = block
        return block

    def define_local(self, key: str, value: Value) -> None:
        existing = self.locals.get(key)
        if isinstance(existing, _Placeholder):
            existing.replace_all_uses_with(value)
            self.placeholders.remove(existing)
        elif existing is not None:
            raise ParseError(f"redefinition of {key}")
        self.locals[key] = value

    def ref(self, token: str, ty: Type) -> Value:
        """Resolve an operand token against an expected type."""
        value = self.locals.get(token)
        if value is not None:
            return value
        first = token[0]
        if first == "%":
            value = _Placeholder(ty, token[1:])
            self.locals[token] = value
            self.placeholders.append(value)
            return value
        if first == "@":
            return self.symbol(token[1:])
        if token == "null":
            assert isinstance(ty, PointerType)
            return ConstantNull(ty)
        if token == "undef":
            return UndefValue(ty)
        if token == "true":
            return ConstantInt(I1, 1)
        if token == "false":
            return ConstantInt(I1, 0)
        if isinstance(ty, IntType):
            return ConstantInt(ty, int(token))
        if isinstance(ty, FloatType):
            return ConstantFloat(ty, float(token))
        raise ParseError(f"cannot interpret operand {token!r} as {ty}")

    def operand(self, i: int, ty: Type) -> Tuple[Value, int]:
        """One operand of known type (vector literals need lookahead)."""
        tok = self.toks[i]
        if tok == "<" and isinstance(ty, VectorType):
            return self._vector_constant(i + 1, ty)
        return self.ref(tok, ty), i + 1

    def _vector_constant(self, i: int, ty: VectorType) -> Tuple[Value, int]:
        toks = self.toks
        elements = []
        while toks[i] != ">":
            if elements:
                i = _expect(toks, i, ",")
            ety, i = _parse_type(toks, i)
            elements.append(self.ref(toks[i], ety))
            i += 1
        return ConstantVector(ty, elements), i + 1  # type: ignore[arg-type]

    def typed_operand(self, i: int) -> Tuple[Value, int]:
        ty, i = _parse_type(self.toks, i)
        return self.operand(i, ty)

    def label(self, i: int) -> Tuple[BasicBlock, int]:
        """``label %name``."""
        i = _expect(self.toks, i, "label")
        return self.get_block(self.toks[i][1:]), i + 1

    # -- instructions: each reads what follows its opcode ---------------------
    def _binary(self, op: str, i: int) -> Tuple[Instruction, int]:
        ty, i = _parse_type(self.toks, i)
        lhs, i = self.operand(i, ty)
        rhs, i = self.operand(_expect(self.toks, i, ","), ty)
        return BinaryOp(op, lhs, rhs), i

    def _compare(self, op: str, i: int) -> Tuple[Instruction, int]:
        pred = self.toks[i]
        ty, i = _parse_type(self.toks, i + 1)
        lhs, i = self.operand(i, ty)
        rhs, i = self.operand(_expect(self.toks, i, ","), ty)
        if op == "icmp":
            return ICmp(pred, lhs, rhs), i
        return FCmp(pred, lhs, rhs), i

    def _cast(self, op: str, i: int) -> Tuple[Instruction, int]:
        src, i = self.typed_operand(i)
        ty, i = _parse_type(self.toks, _expect(self.toks, i, "to"))
        return Cast(op, src, ty), i

    def _alloca(self, op: str, i: int) -> Tuple[Instruction, int]:
        ty, i = _parse_type(self.toks, i)
        align, i = _parse_align(self.toks, i)
        return Alloca(ty, alignment=align), i

    def _load(self, op: str, i: int) -> Tuple[Instruction, int]:
        _, i = _parse_type(self.toks, i)  # result type, implied by pointer
        ptr, i = self.typed_operand(_expect(self.toks, i, ","))
        align, i = _parse_align(self.toks, i)
        return Load(ptr, alignment=align), i

    def _store(self, op: str, i: int) -> Tuple[Instruction, int]:
        value, i = self.typed_operand(i)
        ptr, i = self.typed_operand(_expect(self.toks, i, ","))
        align, i = _parse_align(self.toks, i)
        return Store(value, ptr, alignment=align), i

    def _gep(self, op: str, i: int) -> Tuple[Instruction, int]:
        toks = self.toks
        ptr, i = self.typed_operand(i)
        indices = []
        while i < len(toks) and toks[i] == ",":
            index, i = self.typed_operand(i + 1)
            indices.append(index)
        return GetElementPtr(ptr, indices), i

    def _phi(self, op: str, i: int) -> Tuple[Instruction, int]:
        toks = self.toks
        ty, i = _parse_type(toks, i)
        phi = Phi(ty)
        while True:
            value, i = self.operand(_expect(toks, i, "["), ty)
            i = _expect(toks, i, ",")
            btok = toks[i]
            i = _expect(toks, i + 1, "]")
            phi.add_incoming(value, self.get_block(btok[1:]))
            if toks[i] != ",":
                return phi, i
            i += 1

    def _select(self, op: str, i: int) -> Tuple[Instruction, int]:
        cond, i = self.typed_operand(i)
        tval, i = self.typed_operand(_expect(self.toks, i, ","))
        fval, i = self.typed_operand(_expect(self.toks, i, ","))
        return Select(cond, tval, fval), i

    def _extractelement(self, op: str, i: int) -> Tuple[Instruction, int]:
        vec, i = self.typed_operand(i)
        idx, i = self.typed_operand(_expect(self.toks, i, ","))
        return ExtractElement(vec, idx), i

    def _insertelement(self, op: str, i: int) -> Tuple[Instruction, int]:
        vec, i = self.typed_operand(i)
        elem, i = self.typed_operand(_expect(self.toks, i, ","))
        idx, i = self.typed_operand(_expect(self.toks, i, ","))
        return InsertElement(vec, elem, idx), i

    def _call(self, op: str, i: int) -> Tuple[Instruction, int]:
        """``call`` or, with ``op == "tail"``, ``tail call``."""
        toks = self.toks
        _, i = _parse_type(toks, i)  # return type, implied by callee
        callee_tok = toks[i]
        if callee_tok[0] == "@":
            callee: Value = self.symbol(callee_tok[1:])
        else:
            callee = self.locals[callee_tok]
        i = _expect(toks, i + 1, "(")
        args: List[Value] = []
        while toks[i] != ")":
            if args:
                i = _expect(toks, i, ",")
            arg, i = self.typed_operand(i)
            args.append(arg)
        return Call(callee, args, tail=op == "tail"), i + 1

    def _br(self, op: str, i: int) -> Tuple[Instruction, int]:
        toks = self.toks
        if toks[i] == "label":
            return Branch(self.get_block(toks[i + 1][1:])), i + 2
        ty, i = _parse_type(toks, i)
        cond = self.ref(toks[i], ty)
        then, i = self.label(_expect(toks, i + 1, ","))
        els, i = self.label(_expect(toks, i, ","))
        return Branch(cond, then, els), i

    def _switch(self, op: str, i: int) -> Tuple[Instruction, int]:
        toks = self.toks
        value, i = self.typed_operand(i)
        default, i = self.label(_expect(toks, i, ","))
        i = _expect(toks, i, "[")
        cases: List[Tuple[ConstantInt, BasicBlock]] = []
        while toks[i] != "]":
            cty, i = _parse_type(toks, i)
            cv = self.ref(toks[i], cty)
            block, i = self.label(_expect(toks, i + 1, ","))
            cases.append((cv, block))  # type: ignore[arg-type]
        return Switch(value, default, cases), i + 1

    def _ret(self, op: str, i: int) -> Tuple[Instruction, int]:
        if self.toks[i] == "void":
            return Ret(), i + 1
        value, i = self.typed_operand(i)
        return Ret(value), i

    def _unreachable(self, op: str, i: int) -> Tuple[Instruction, int]:
        return Unreachable(), i


#: Opcode -> the method that reads the rest of its instruction; an
#: opcode with a method of its own finds it by name (``_<opcode>``).
_RHS_PARSERS = {
    **dict.fromkeys(BINARY_OPS, _Parser._binary),
    **dict.fromkeys(CAST_OPS, _Parser._cast),
    **dict.fromkeys(("icmp", "fcmp"), _Parser._compare),
    **{op: getattr(_Parser, "_" + op) for op in (
        "alloca", "load", "store", "gep", "phi", "select", "extractelement",
        "insertelement", "call", "br", "switch", "ret", "unreachable",
    )},
}


def parse_module(text: str) -> Module:
    """Parse textual IR into a :class:`~repro.ir.module.Module`; malformed
    text raises :class:`ParseError` and nothing else."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except IndexError:
        # Every step indexes the token list directly; running off its
        # end means the text stopped inside a construct.
        raise ParseError("unexpected end of input") from None
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # A token that is no operand of its type (``int("}")``, an
        # unknown name) or operands no constructor takes; ``parser.at``
        # is the first token of the construct being built.
        raise ParseError(
            f"malformed {parser.toks[parser.at]} at token {parser.at + 1}: "
            f"{type(exc).__name__}: {exc}"
        ) from None
