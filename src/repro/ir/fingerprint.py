"""Stable structural fingerprints for functions and modules.

A fingerprint is a content hash over everything the metrics pipeline can
observe — opcodes, types, operand structure, predicates, alignments,
instruction metadata, callee identity and attributes, linkage — while
ignoring everything it cannot: local value names and block names (cloning
renames locals, and a clone must fingerprint identically to its source).

Properties relied on by the caches in :mod:`repro.core.metrics`:

* ``module.clone()`` ⇒ equal fingerprint;
* any structural mutation (instruction added/removed/reordered, operand
  rewired, type changed, attribute toggled) ⇒ different fingerprint;
* the module fingerprint is insensitive to the *order* of functions and
  globals, so symbol-table shuffles do not invalidate transition caches.

Equal fingerprints are used as cache keys for per-function codegen size,
MCA scheduling reports and IR2Vec embeddings: everything those computations
read is folded into the hash, so a hit is exact (modulo hash collision of
a 128-bit blake2b, which we accept).

Fingerprints are the hottest walk in the system (every env step hashes
every function at least once), so the hash input is assembled as *packed
row bytes*: one ``bytes`` object per function, built from interned token
fragments, fed to ``blake2b`` in a single update. The byte stream is
identical to what the historical token-join implementation streamed;
``tests/fingerprint_reference.py`` keeps that implementation as the
reference the equivalence test compares against.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Dict, List, Mapping, Optional, Tuple

from .instructions import (
    Alloca,
    Call,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Store,
)
from .module import Function, Module
from .types import Type
from .values import Constant, GlobalValue, Value

_DIGEST_BYTES = 16


def _hasher() -> "hashlib._Hash":
    return hashlib.blake2b(digest_size=_DIGEST_BYTES)


# -- interned token fragments -------------------------------------------------
# Position-based local ids (a0/b0/i0...) recur in every function; pre-encoded
# lists are grown on demand and shared across all walks.

_A_TOKENS: List[bytes] = []
_B_TOKENS: List[bytes] = []
_I_TOKENS: List[bytes] = []
_IID_TOKENS: List[bytes] = []  # b"i{n}=" row heads

#: ``str(type)`` is invariant for a type object; cache the encoded form
#: keyed by identity (the type object is retained so the id cannot be
#: recycled while the entry lives).
_TYPE_TOKENS: Dict[int, Tuple[Type, bytes]] = {}
_TYPE_TOKEN_CAP = 8192

_OPCODE_TOKENS: Dict[str, bytes] = {}
_PRED_TOKENS: Dict[str, bytes] = {}
_ALIGN_TOKENS: Dict[int, bytes] = {}

#: Constants are immutable (type, value and ``ref()`` are fixed at
#: construction), so their tokens are cached process-wide. Functions and
#: globals are *not*: attribute toggles and symbol renames must show up
#: in the next walk, so their tokens stay per-walk. Entries hold the
#: constant only weakly — a constant's use-list chains back to its users'
#: blocks and functions, so a strong reference here would pin every
#: (cloned) module that ever touched the cache. The death callback purges
#: the entry, so a live entry's id cannot have been recycled.
_CONST_TOKENS: Dict[int, Tuple["weakref.ref", bytes]] = {}
_CONST_TOKEN_CAP = 8192


def _cache_const_token(op: Value, token: bytes) -> None:
    key = id(op)
    if len(_CONST_TOKENS) >= _CONST_TOKEN_CAP:
        _CONST_TOKENS.clear()
    try:
        ref = weakref.ref(
            op, lambda _r, _key=key: _CONST_TOKENS.pop(_key, None)
        )
    except TypeError:  # pragma: no cover - weakref-less Value subclass
        return
    _CONST_TOKENS[key] = (ref, token)


def _grow_tokens(tokens: List[bytes], prefix: str, needed: int) -> None:
    for n in range(len(tokens), needed):
        tokens.append(f"{prefix}{n}".encode())


def _type_token(ty: Type) -> bytes:
    entry = _TYPE_TOKENS.get(id(ty))
    if entry is None:
        if len(_TYPE_TOKENS) >= _TYPE_TOKEN_CAP:
            _TYPE_TOKENS.clear()
        token = str(ty).encode()
        _TYPE_TOKENS[id(ty)] = (ty, token)
        return token
    return entry[1]


def _opcode_token(opcode: str) -> bytes:
    token = _OPCODE_TOKENS.get(opcode)
    if token is None:
        token = opcode.encode()
        _OPCODE_TOKENS[opcode] = token
    return token


def _operand_token_bytes(op: Value, tokens: Dict[int, bytes]) -> bytes:
    token = tokens.get(id(op))
    if token is not None:
        return token
    if isinstance(op, Function):
        attrs = ",".join(sorted(op.attributes))
        decl = "d" if op.is_declaration else ""
        token = f"@{op.name}|{attrs}|{decl}".encode()
    elif isinstance(op, GlobalValue):
        token = f"@{op.name}".encode()
    elif isinstance(op, Constant):
        entry = _CONST_TOKENS.get(id(op))
        if entry is None:
            token = f"k:{op.type}:{op.ref()}".encode()
            _cache_const_token(op, token)
        else:
            token = entry[1]
    else:  # pragma: no cover - exotic operand
        token = f"?:{op.type}:{op.ref()}".encode()
    tokens[id(op)] = token
    return token


def _instruction_row(
    inst: Instruction, iid: bytes, tokens: Dict[int, bytes]
) -> bytes:
    """Packed row bytes for one instruction: ``i{n}=tok tok ...;``."""
    parts = [_opcode_token(inst.opcode), _type_token(inst.type)]
    if isinstance(inst, (ICmp, FCmp)):
        pred = inst.predicate
        ptok = _PRED_TOKENS.get(pred)
        if ptok is None:
            ptok = pred.encode()
            _PRED_TOKENS[pred] = ptok
        parts.append(ptok)
    if isinstance(inst, (Alloca, Load, Store)):
        align = inst.alignment
        atok = _ALIGN_TOKENS.get(align)
        if atok is None:
            atok = f"align{align}".encode()
            _ALIGN_TOKENS[align] = atok
        parts.append(atok)
    if isinstance(inst, Alloca):
        parts.append(_type_token(inst.allocated_type))
    if isinstance(inst, Call) and inst.tail:
        parts.append(b"tail")
    if inst.meta:
        for key in sorted(inst.meta):
            parts.append(f"!{key}={inst.meta[key]!r}".encode())
    for op in inst.operands:
        parts.append(_operand_token_bytes(op, tokens))
    return iid + b" ".join(parts) + b";"


def packed_function(fn: Function) -> bytes:
    """The canonical byte stream a function fingerprint hashes.

    Identical, byte for byte, to the concatenation the historical
    streaming implementation fed through ``h.update`` — so digests are
    stable across the representation change.
    """
    linkage = "internal" if fn.is_internal else "external"
    head = (
        f"fn|{fn.name}|{fn.ftype}|{linkage}|{','.join(sorted(fn.attributes))}"
    ).encode()
    if fn.is_declaration:
        return head + b"|declaration"

    blocks = fn.blocks
    n_args = len(fn.args)
    _grow_tokens(_A_TOKENS, "a", n_args)
    _grow_tokens(_B_TOKENS, "b", len(blocks))

    # Structural identities: position-based, assigned up front so forward
    # references (phis over back edges) resolve deterministically.
    tokens: Dict[int, bytes] = {}
    for i, arg in enumerate(fn.args):
        tokens[id(arg)] = _A_TOKENS[i]
    counter = 0
    for bi, block in enumerate(blocks):
        tokens[id(block)] = _B_TOKENS[bi]
        for inst in block.instructions:
            if counter >= len(_I_TOKENS):
                _I_TOKENS.append(f"i{counter}".encode())
                _IID_TOKENS.append(_I_TOKENS[counter] + b"=")
            tokens[id(inst)] = _I_TOKENS[counter]
            counter += 1

    chunks: List[bytes] = [head]
    counter = 0
    for bi, block in enumerate(blocks):
        chunks.append(b"|" + _B_TOKENS[bi] + b":")
        for inst in block.instructions:
            chunks.append(
                _instruction_row(inst, _IID_TOKENS[counter], tokens)
            )
            counter += 1
    return b"".join(chunks)


def function_fingerprint(fn: Function) -> str:
    """Content hash of one function (hex digest).

    Covers the signature, linkage, attributes and — for definitions — the
    full body: block structure, instruction stream, operand graph and any
    metadata. Local names are ignored, so clones hash identically.
    """
    h = _hasher()
    h.update(packed_function(fn))
    return h.hexdigest()


def _global_fingerprint(gv) -> str:
    init = gv.initializer
    if init is None or init.is_zero():
        init_token = "zero"
    else:
        init_token = init.ref()
    linkage = "internal" if gv.is_internal else "external"
    kind = "const" if gv.is_constant else "var"
    h = _hasher()
    h.update(
        f"gv|{gv.name}|{gv.value_type}|{linkage}|{kind}"
        f"|align{gv.alignment}|{init_token}".encode()
    )
    return h.hexdigest()


def module_fingerprint(
    module: Module,
    function_fingerprints: Optional[Mapping[str, str]] = None,
) -> str:
    """Content hash of a whole module (hex digest).

    Combines the sorted per-symbol fingerprints so the result is
    insensitive to declaration order, then all the structural properties
    of each symbol through its own fingerprint. ``function_fingerprints``
    (symbol name → digest) reuses hashes the caller already computed —
    the metrics engine hashes each function exactly once per step and
    threads the digests through every consumer.
    """
    if function_fingerprints is None:
        parts = [function_fingerprint(fn) for fn in module.functions]
    else:
        parts = [
            function_fingerprints.get(fn.name) or function_fingerprint(fn)
            for fn in module.functions
        ]
    parts.extend(_global_fingerprint(gv) for gv in module.globals)
    parts.sort()
    h = _hasher()
    h.update(b"module")
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()
