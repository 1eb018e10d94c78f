"""The token-cursor parser the production parser replaced: the test oracle.

Production parses textual IR with :func:`repro.ir.parser.parse_module`,
which scans the text with one compiled-regex ``findall``, skips function
bodies by index while collecting signatures, and walks the flat token
list with a plain integer index. This module keeps the parser it
replaced, unchanged: a per-token ``match`` loop, a prescan that steps
through every token, and a :class:`_Cursor` whose
``next``/``peek``/``accept`` calls move through the tokens.
:mod:`tests.ir.test_parser_reference` checks that both build modules that
print identically, fingerprint identically and keep the same use lists,
and that both reject the same malformed texts with
:class:`~repro.ir.parser.ParseError`.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.ir.instructions import (
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
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.parser import ParseError
from repro.ir.types import (
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
from repro.ir.values import (
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    GlobalVariable,
    UndefValue,
    Value,
    zero,
)


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>;[^\n]*)
  | (?P<string>c"(?:[^"\\]|\\[0-9a-fA-F]{2})*")
  | (?P<global>@[A-Za-z0-9._$\-]+)
  | (?P<local>%[A-Za-z0-9._$\-]+)
  | (?P<number>-?\d+\.\d+(?:e[+-]?\d+)?|-?\d+)
  | (?P<word>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<punct>\.\.\.|[=,:(){}\[\]<>*])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"bad character at offset {pos}: {text[pos:pos+20]!r}")
        pos = m.end()
        if m.lastgroup in ("ws", "comment"):
            continue
        tokens.append(m.group(0))
    return tokens


class _Placeholder(Value):
    """Stand-in for a local value referenced before its definition."""

    def __init__(self, ty: Type, name: str):
        super().__init__(ty, name)


class _Cursor:
    def __init__(self, tokens: List[str]):
        self.tokens = tokens
        self.pos = 0

    @property
    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self, offset: int = 0) -> Optional[str]:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def next(self) -> str:
        if self.done:
            raise ParseError("unexpected end of input")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise ParseError(f"expected {token!r}, got {got!r} at token {self.pos}")

    def accept(self, token: str) -> bool:
        if self.peek() == token:
            self.pos += 1
            return True
        return False


_INT_TYPES = {"i1": 1, "i8": 8, "i16": 16, "i32": 32, "i64": 64}


def _parse_type(cur: _Cursor) -> Type:
    tok = cur.next()
    ty: Type
    if tok in _INT_TYPES:
        ty = IntType(_INT_TYPES[tok])
    elif tok == "float":
        ty = FloatType(32)
    elif tok == "double":
        ty = FloatType(64)
    elif tok == "void":
        ty = VOID
    elif tok == "[":
        count = int(cur.next())
        cur.expect("x")
        elem = _parse_type(cur)
        cur.expect("]")
        ty = ArrayType(elem, count)
    elif tok == "<":
        count = int(cur.next())
        cur.expect("x")
        elem = _parse_type(cur)
        cur.expect(">")
        ty = VectorType(elem, count)
    else:
        raise ParseError(f"expected type, got {tok!r}")
    while cur.accept("*"):
        ty = PointerType(ty)
    return ty


def _parse_string_data(token: str) -> bytes:
    body = token[2:-1]
    out = bytearray()
    i = 0
    while i < len(body):
        if body[i] == "\\":
            out.append(int(body[i + 1 : i + 3], 16))
            i += 3
        else:
            out.append(ord(body[i]))
            i += 1
    return bytes(out)


class _FunctionParser:
    """Parses one function body; resolves forward references at the end."""

    def __init__(self, module_parser: "_ModuleParser", fn: Function):
        self.mp = module_parser
        self.fn = fn
        self.locals: Dict[str, Value] = {f"%{a.name}": a for a in fn.args}
        self.blocks: Dict[str, BasicBlock] = {}
        self.placeholders: List[_Placeholder] = []

    def get_block(self, name: str) -> BasicBlock:
        block = self.blocks.get(name)
        if block is None:
            block = BasicBlock(name, self.fn)
            self.blocks[name] = block
        return block

    def define_local(self, name: str, value: Value) -> None:
        key = f"%{name}"
        existing = self.locals.get(key)
        if isinstance(existing, _Placeholder):
            existing.replace_all_uses_with(value)
            self.placeholders.remove(existing)
        elif existing is not None:
            raise ParseError(f"redefinition of {key}")
        self.locals[key] = value

    def ref(self, token: str, ty: Type) -> Value:
        """Resolve an operand token against an expected type."""
        if token.startswith("%"):
            value = self.locals.get(token)
            if value is None:
                value = _Placeholder(ty, token[1:])
                self.locals[token] = value
                self.placeholders.append(value)
            return value
        if token.startswith("@"):
            return self.mp.symbol(token[1:])
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

    def operand(self, cur: _Cursor, ty: Type) -> Value:
        """Parse one operand of known type (vector literals need lookahead)."""
        if isinstance(ty, VectorType) and cur.peek() == "<":
            return self._vector_constant(cur, ty)
        return self.ref(cur.next(), ty)

    def _vector_constant(self, cur: _Cursor, ty: VectorType) -> Value:
        from repro.ir.values import ConstantVector

        cur.expect("<")
        elements = []
        while not cur.accept(">"):
            if elements:
                cur.expect(",")
            ety = _parse_type(cur)
            elements.append(self.ref(cur.next(), ety))
        return ConstantVector(ty, elements)  # type: ignore[arg-type]

    def typed_operand(self, cur: _Cursor) -> Value:
        ty = _parse_type(cur)
        return self.operand(cur, ty)

    # -- instruction parsing ---------------------------------------------------
    def parse_body(self, cur: _Cursor) -> None:
        cur.expect("{")
        current: Optional[BasicBlock] = None
        while not cur.accept("}"):
            tok = cur.peek()
            assert tok is not None
            if cur.peek(1) == ":":
                label = cur.next()
                cur.expect(":")
                current = self.get_block(label)
                if current not in self.fn.blocks:
                    self.fn.blocks.append(current)
                continue
            if current is None:
                raise ParseError("instruction before first block label")
            self.parse_instruction(cur, current)
        if self.placeholders:
            names = ", ".join(p.name for p in self.placeholders)
            raise ParseError(f"undefined locals: {names}")

    def parse_instruction(self, cur: _Cursor, block: BasicBlock) -> None:
        result_name: Optional[str] = None
        if cur.peek(1) == "=" and cur.peek() and cur.peek().startswith("%"):
            result_name = cur.next()[1:]
            cur.expect("=")
        inst = self.parse_instruction_rhs(cur)
        block.append(inst)
        if result_name is not None:
            inst.name = result_name
            self.define_local(result_name, inst)

    def parse_instruction_rhs(self, cur: _Cursor) -> Instruction:
        op = cur.next()
        if op == "tail" and cur.peek() == "call":
            cur.next()
            return self._parse_call(cur, tail=True)
        if op in BINARY_OPS:
            ty = _parse_type(cur)
            lhs = self.operand(cur, ty)
            cur.expect(",")
            rhs = self.operand(cur, ty)
            return BinaryOp(op, lhs, rhs)
        if op in ("icmp", "fcmp"):
            pred = cur.next()
            ty = _parse_type(cur)
            lhs = self.operand(cur, ty)
            cur.expect(",")
            rhs = self.operand(cur, ty)
            return ICmp(pred, lhs, rhs) if op == "icmp" else FCmp(pred, lhs, rhs)
        if op in CAST_OPS:
            src = self.typed_operand(cur)
            cur.expect("to")
            return Cast(op, src, _parse_type(cur))
        if op == "alloca":
            ty = _parse_type(cur)
            align = 0
            if cur.accept(","):
                cur.expect("align")
                align = int(cur.next())
            return Alloca(ty, alignment=align)
        if op == "load":
            _parse_type(cur)  # result type, implied by pointer
            cur.expect(",")
            ptr = self.typed_operand(cur)
            align = 0
            if cur.accept(","):
                cur.expect("align")
                align = int(cur.next())
            return Load(ptr, alignment=align)
        if op == "store":
            value = self.typed_operand(cur)
            cur.expect(",")
            ptr = self.typed_operand(cur)
            align = 0
            if cur.accept(","):
                cur.expect("align")
                align = int(cur.next())
            return Store(value, ptr, alignment=align)
        if op == "gep":
            ptr = self.typed_operand(cur)
            indices = []
            while cur.accept(","):
                indices.append(self.typed_operand(cur))
            return GetElementPtr(ptr, indices)
        if op == "phi":
            ty = _parse_type(cur)
            phi = Phi(ty)
            while True:
                cur.expect("[")
                value = self.operand(cur, ty)
                cur.expect(",")
                btok = cur.next()
                cur.expect("]")
                phi.add_incoming(value, self.get_block(btok[1:]))
                if not cur.accept(","):
                    break
            return phi
        if op == "select":
            cond = self.typed_operand(cur)
            cur.expect(",")
            tval = self.typed_operand(cur)
            cur.expect(",")
            fval = self.typed_operand(cur)
            return Select(cond, tval, fval)
        if op == "extractelement":
            vec = self.typed_operand(cur)
            cur.expect(",")
            idx = self.typed_operand(cur)
            return ExtractElement(vec, idx)
        if op == "insertelement":
            vec = self.typed_operand(cur)
            cur.expect(",")
            elem = self.typed_operand(cur)
            cur.expect(",")
            idx = self.typed_operand(cur)
            return InsertElement(vec, elem, idx)
        if op == "call":
            return self._parse_call(cur, tail=False)
        if op == "br":
            if cur.accept("label"):
                return Branch(self.get_block(cur.next()[1:]))
            ty = _parse_type(cur)
            cond = self.ref(cur.next(), ty)
            cur.expect(",")
            cur.expect("label")
            then = self.get_block(cur.next()[1:])
            cur.expect(",")
            cur.expect("label")
            els = self.get_block(cur.next()[1:])
            return Branch(cond, then, els)
        if op == "switch":
            value = self.typed_operand(cur)
            cur.expect(",")
            cur.expect("label")
            default = self.get_block(cur.next()[1:])
            cur.expect("[")
            cases: List[Tuple[ConstantInt, BasicBlock]] = []
            while not cur.accept("]"):
                cty = _parse_type(cur)
                cv = self.ref(cur.next(), cty)
                cur.expect(",")
                cur.expect("label")
                cases.append((cv, self.get_block(cur.next()[1:])))  # type: ignore[arg-type]
            return Switch(value, default, cases)
        if op == "ret":
            if cur.accept("void"):
                return Ret()
            return Ret(self.typed_operand(cur))
        if op == "unreachable":
            return Unreachable()
        raise ParseError(f"unknown instruction opcode {op!r}")

    def _parse_call(self, cur: _Cursor, tail: bool) -> Call:
        _parse_type(cur)  # return type, implied by callee
        callee_tok = cur.next()
        if callee_tok.startswith("@"):
            callee: Value = self.mp.symbol(callee_tok[1:])
        else:
            callee = self.locals[callee_tok]
        cur.expect("(")
        args: List[Value] = []
        while not cur.accept(")"):
            if args:
                cur.expect(",")
            args.append(self.typed_operand(cur))
        return Call(callee, args, tail=tail)


_MODULE_NAME_RE = re.compile(r"^;\s*module\s+(\S+)\s*$", re.MULTILINE)


class _ModuleParser:
    def __init__(self, text: str):
        self.cur = _Cursor(_tokenize(text))
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
        cur = self.cur
        # Pre-scan for function signatures so calls can be resolved in any
        # order: collect (header position) of each define/declare first.
        self._prescan()
        self.cur = _Cursor(cur.tokens)
        cur = self.cur
        while not cur.done:
            tok = cur.peek()
            if tok == "define" or tok == "declare":
                self._parse_function(cur)
            elif tok is not None and tok.startswith("@"):
                self._parse_global(cur)
            else:
                raise ParseError(f"unexpected top-level token {tok!r}")
        return self.module

    # -- pre-scan ----------------------------------------------------------
    def _prescan(self) -> None:
        cur = self.cur
        while not cur.done:
            tok = cur.peek()
            if tok in ("define", "declare"):
                self._parse_function_header(cur, declare_only=True)
                # Skip body if present.
                if cur.peek() == "{":
                    depth = 0
                    while True:
                        t = cur.next()
                        if t == "{":
                            depth += 1
                        elif t == "}":
                            depth -= 1
                            if depth == 0:
                                break
            elif tok is not None and tok.startswith("@"):
                self._parse_global(cur)
            else:
                cur.next()

    def _parse_global(self, cur: _Cursor) -> None:
        name = cur.next()[1:]
        if self.module._symbols.get(name) is not None:
            # Re-parse pass: skip to end of the global line.
            cur.expect("=")
            self._skip_global_tail(cur)
            return
        cur.expect("=")
        linkage = "internal" if cur.accept("internal") else "external"
        is_const = cur.next() == "constant"
        ty = _parse_type(cur)
        init = self._parse_initializer(cur, ty)
        align = 0
        if cur.accept(","):
            cur.expect("align")
            align = int(cur.next())
        gv = GlobalVariable(ty, name, init, is_const, linkage, align)
        self.module.add_global(gv)

    def _skip_global_tail(self, cur: _Cursor) -> None:
        cur.accept("internal")
        cur.next()  # global|constant
        _parse_type(cur)
        ty_tok = cur.peek()
        if ty_tok == "zeroinitializer":
            cur.next()
        elif ty_tok is not None and ty_tok.startswith('c"'):
            cur.next()
        elif cur.accept("["):
            depth = 1
            while depth:
                t = cur.next()
                if t == "[":
                    depth += 1
                elif t == "]":
                    depth -= 1
        else:
            cur.next()
        if cur.accept(","):
            cur.expect("align")
            cur.next()

    def _parse_initializer(self, cur: _Cursor, ty: Type) -> Optional[Constant]:
        tok = cur.peek()
        if tok == "zeroinitializer":
            cur.next()
            return zero(ty)
        if tok is not None and tok.startswith('c"'):
            cur.next()
            return ConstantString(_parse_string_data(tok))
        if isinstance(ty, ArrayType) and cur.accept("["):
            from repro.ir.values import ConstantArray

            elements: List[Constant] = []
            while not cur.accept("]"):
                if elements:
                    cur.expect(",")
                ety = _parse_type(cur)
                elements.append(self._parse_scalar_constant(cur, ety))
            return ConstantArray(ty, elements)
        if isinstance(ty, (IntType, FloatType, PointerType)):
            return self._parse_scalar_constant(cur, ty)
        raise ParseError(f"cannot parse initializer for {ty}")

    def _parse_scalar_constant(self, cur: _Cursor, ty: Type) -> Constant:
        tok = cur.next()
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

    # -- functions ----------------------------------------------------------
    def _parse_function_header(
        self, cur: _Cursor, declare_only: bool
    ) -> Tuple[Optional[Function], List[str]]:
        kind = cur.next()  # define | declare
        linkage = "internal" if cur.accept("internal") else "external"
        ret = _parse_type(cur)
        name = cur.next()[1:]
        cur.expect("(")
        params: List[Type] = []
        arg_names: List[str] = []
        vararg = False
        while not cur.accept(")"):
            if params or vararg:
                cur.expect(",")
            if cur.accept("..."):
                vararg = True
                continue
            params.append(_parse_type(cur))
            tok = cur.peek()
            if tok is not None and tok.startswith("%"):
                arg_names.append(cur.next()[1:])
            else:
                arg_names.append(f"arg{len(params) - 1}")
        attrs: List[str] = []
        while cur.peek() not in (None, "{", "define", "declare") and not (
            cur.peek() or ""
        ).startswith("@"):
            attrs.append(cur.next())

        fn: Optional[Function] = None
        if declare_only:
            if self.module.get_function(name) is None:
                fn = Function(
                    self.module,
                    name,
                    FunctionType(ret, params, vararg),
                    linkage,
                    arg_names,
                )
                fn.attributes.update(attrs)
        else:
            fn = self.module.get_function(name)
            assert fn is not None
        return fn, arg_names

    def _parse_function(self, cur: _Cursor) -> None:
        is_define = cur.peek() == "define"
        fn, _ = self._parse_function_header(cur, declare_only=False)
        assert fn is not None
        if is_define:
            _FunctionParser(self, fn).parse_body(cur)


def parse_module(text: str) -> Module:
    """Parse textual IR into a :class:`~repro.ir.module.Module`."""
    return _ModuleParser(text).parse()
