"""Token-join reference for function fingerprints: the test oracle.

Production hashes one packed byte row per function
(:func:`repro.ir.fingerprint.packed_function`), built from interned
token fragments. This module keeps the implementation it replaced:
per-instruction string token lists, joined and fed to ``blake2b`` one
``update`` at a time. The two must give the same digest for every
function, declarations included.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.ir.fingerprint import _DIGEST_BYTES
from repro.ir.instructions import (
    Alloca,
    Call,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Store,
)
from repro.ir.module import Function
from repro.ir.values import Constant, GlobalValue, Value


def operand_token(op: Value, local_ids: Dict[int, str]) -> str:
    """A stable token for one operand.

    Local values (arguments, instructions, blocks) are referenced by their
    structural position, never by name. Globals are referenced by symbol
    name; called functions additionally contribute their attribute set,
    because callee attributes change the caller's effect analysis
    (``readnone``/``readonly`` gate reaching-store kills and DCE of calls).
    """
    token = local_ids.get(id(op))
    if token is not None:
        return token
    if isinstance(op, Function):
        attrs = ",".join(sorted(op.attributes))
        decl = "d" if op.is_declaration else ""
        return f"@{op.name}|{attrs}|{decl}"
    if isinstance(op, GlobalValue):
        return f"@{op.name}"
    if isinstance(op, Constant):
        return f"k:{op.type}:{op.ref()}"
    return f"?:{op.type}:{op.ref()}"


def instruction_tokens(
    inst: Instruction, local_ids: Dict[int, str]
) -> List[str]:
    """Token list for one instruction (string form)."""
    tokens = [inst.opcode, str(inst.type)]
    if isinstance(inst, (ICmp, FCmp)):
        tokens.append(inst.predicate)
    if isinstance(inst, (Alloca, Load, Store)):
        tokens.append(f"align{inst.alignment}")
    if isinstance(inst, Alloca):
        tokens.append(str(inst.allocated_type))
    if isinstance(inst, Call) and inst.tail:
        tokens.append("tail")
    if inst.meta:
        for key in sorted(inst.meta):
            tokens.append(f"!{key}={inst.meta[key]!r}")
    for op in inst.operands:
        tokens.append(operand_token(op, local_ids))
    return tokens


def streaming_function_fingerprint(fn: Function) -> str:
    """Per-token string joins + incremental ``h.update``."""
    h = hashlib.blake2b(digest_size=_DIGEST_BYTES)
    linkage = "internal" if fn.is_internal else "external"
    head = f"fn|{fn.name}|{fn.ftype}|{linkage}|{','.join(sorted(fn.attributes))}"
    h.update(head.encode())

    if fn.is_declaration:
        h.update(b"|declaration")
        return h.hexdigest()

    local_ids: Dict[int, str] = {}
    for i, arg in enumerate(fn.args):
        local_ids[id(arg)] = f"a{i}"
    counter = 0
    for bi, block in enumerate(fn.blocks):
        local_ids[id(block)] = f"b{bi}"
        for inst in block.instructions:
            local_ids[id(inst)] = f"i{counter}"
            counter += 1

    for block in fn.blocks:
        h.update(f"|{local_ids[id(block)]}:".encode())
        for inst in block.instructions:
            line = " ".join(instruction_tokens(inst, local_ids))
            h.update(f"{local_ids[id(inst)]}={line};".encode())
    return h.hexdigest()
