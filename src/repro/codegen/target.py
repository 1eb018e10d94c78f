"""Target descriptors: x86-64 and AArch64 cost models.

Each descriptor gives per-machine-op encoding sizes (bytes) and the
structural overheads (prologue/epilogue, call sequences, alignment). x86-64
has variable-length encodings; AArch64 is fixed 4-byte with extra
instructions for large immediates — the two targets therefore rank the
same IR differently, which is exactly why the paper reports both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

# Machine-op classes produced by instruction selection.
#   alu      integer add/sub/logic/shift/compare
#   imul     integer multiply
#   idiv     integer divide/remainder
#   lea      address arithmetic
#   load     memory read
#   store    memory write
#   fpalu    scalar float add/sub/convert
#   fpmul    scalar float multiply
#   fpdiv    scalar float divide
#   valu     vector integer op
#   vfp      vector float op
#   vload    vector load
#   vstore   vector store
#   mov      register move (phi resolution, arg setup)
#   movimm   materialize immediate
#   branch   conditional/unconditional jump
#   call     call instruction
#   cmov     conditional move / select
#   ret      return
#   trap     ud2 / brk


@dataclass(frozen=True)
class TargetDescriptor:
    """Static size/layout properties of a code generation target."""

    name: str
    fixed_width: bool
    op_bytes: Dict[str, int]
    prologue_bytes: int
    epilogue_bytes: int
    frame_setup_bytes: int  # extra prologue cost when the frame is used
    function_alignment: int
    max_short_imm: int  # immediates beyond this need extra materialization
    num_gp_registers: int
    spill_bytes: int  # bytes per spill/reload pair
    pointer_bytes: int = 8


X86_64 = TargetDescriptor(
    name="x86-64",
    fixed_width=False,
    op_bytes={
        "alu": 3,
        "imul": 4,
        "idiv": 3,
        "lea": 4,
        "load": 4,
        "store": 4,
        "fpalu": 4,
        "fpmul": 4,
        "fpdiv": 4,
        "valu": 5,
        "vfp": 5,
        "vload": 5,
        "vstore": 5,
        "mov": 3,
        "movimm": 5,
        "branch": 2,
        "call": 5,
        "cmov": 4,
        "ret": 1,
        "trap": 2,
    },
    prologue_bytes=4,
    epilogue_bytes=2,
    frame_setup_bytes=7,
    function_alignment=16,
    max_short_imm=127,
    num_gp_registers=14,
    spill_bytes=9,
)

AARCH64 = TargetDescriptor(
    name="aarch64",
    fixed_width=True,
    op_bytes={
        "alu": 4,
        "imul": 4,
        "idiv": 4,
        "lea": 4,
        "load": 4,
        "store": 4,
        "fpalu": 4,
        "fpmul": 4,
        "fpdiv": 4,
        "valu": 4,
        "vfp": 4,
        "vload": 4,
        "vstore": 4,
        "mov": 4,
        "movimm": 4,
        "branch": 4,
        "call": 4,
        "cmov": 4,
        "ret": 4,
        "trap": 4,
    },
    prologue_bytes=8,
    epilogue_bytes=8,
    frame_setup_bytes=8,
    function_alignment=8,
    max_short_imm=4095,
    num_gp_registers=28,
    spill_bytes=8,
)

TARGETS: Dict[str, TargetDescriptor] = {
    "x86-64": X86_64,
    "x86": X86_64,
    "aarch64": AARCH64,
    "arm64": AARCH64,
}


def get_target(name: str) -> TargetDescriptor:
    try:
        return TARGETS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown target {name!r}; available: {sorted(set(TARGETS))}"
        ) from None
