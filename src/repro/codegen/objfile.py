"""Object-file size model.

Computes the byte size of the relocatable object a real backend would
emit: per-function text (lowered machine ops + prologue/epilogue + spill
code + alignment padding), initialized data (zero-initialized globals live
in .bss and cost no file bytes, as with real ELF objects), and symbol-table
overhead. This is the quantity the POSET-RL reward's BinSize terms measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..ir.flat import FlatFunction, byte_row, flat_functions
from ..ir.module import Module
from ..ir.values import GlobalVariable
from ..mca.ports import get_port_model
from .target import TargetDescriptor, get_target

ELF_HEADER_BYTES = 64
SECTION_OVERHEAD_BYTES = 3 * 40  # .text/.data/.symtab section headers
SYMBOL_ENTRY_BYTES = 24


@dataclass
class FunctionSizeReport:
    name: str
    text_bytes: int
    machine_ops: int
    spill_pairs: int


@dataclass
class SizeReport:
    """Breakdown of an object file's size."""

    target: str
    text_bytes: int = 0
    data_bytes: int = 0
    bss_bytes: int = 0  # occupies memory, not file bytes
    symbol_bytes: int = 0
    overhead_bytes: int = ELF_HEADER_BYTES + SECTION_OVERHEAD_BYTES
    functions: List[FunctionSizeReport] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        """File size of the object (bss excluded, as in a real .o)."""
        return (
            self.text_bytes
            + self.data_bytes
            + self.symbol_bytes
            + self.overhead_bytes
        )


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def flat_function_text_size(
    ff: FlatFunction, target: TargetDescriptor
) -> FunctionSizeReport:
    """Text bytes of one function from its flat view.

    Lowered machine ops (one dot product of the machine-op count vector
    with the target's byte-cost row) plus prologue/epilogue, frame setup
    when the function has an alloca, and a register-pressure spill model:
    every live value beyond the register file costs a spill/reload pair
    somewhere. Padded to the target's function alignment."""
    row = byte_row(target)
    body = int(row @ ff.fn_mop_counts)
    op_count = int(ff.fn_mop_counts.sum())

    text = target.prologue_bytes + body + target.epilogue_bytes
    if ff.has_alloca:
        text += target.frame_setup_bytes

    spills = max(0, ff.max_pressure - target.num_gp_registers)
    text += spills * target.spill_bytes

    return FunctionSizeReport(
        name=ff.name,
        text_bytes=_align(text, target.function_alignment),
        machine_ops=op_count,
        spill_pairs=spills,
    )


def _global_data_bytes(gv: GlobalVariable) -> int:
    init = gv.initializer
    size = max(gv.value_type.size, 1)
    if init is None or init.is_zero():
        return 0  # .bss
    return size


def object_size(module: Module, target="x86-64") -> SizeReport:
    """Size of the object file produced from ``module`` for ``target``."""
    if isinstance(target, str):
        target = get_target(target)
    views = flat_functions(module, target, get_port_model(target.name))
    return size_of_views(module, target, views)


def size_of_views(
    module: Module, target: TargetDescriptor, views: List[FlatFunction]
) -> SizeReport:
    """:func:`object_size` from the flat views of ``module``'s defined
    functions (:func:`~repro.ir.flat.flat_functions`)."""
    return _size_from_functions(
        module, target, [flat_function_text_size(ff, target) for ff in views]
    )


def _size_from_functions(
    module: Module,
    target: TargetDescriptor,
    per_fn: List[FunctionSizeReport],
) -> SizeReport:
    """Combine per-function text sizes (one per defined function, in
    module order) with the module's symbol, data and header bytes."""
    report = SizeReport(target=target.name, functions=per_fn)
    for fn in module.functions:
        # An undefined symbol that is referenced costs a symtab entry.
        if fn.is_declaration and fn.has_uses:
            report.symbol_bytes += SYMBOL_ENTRY_BYTES
    for fr in per_fn:
        report.text_bytes += fr.text_bytes
        report.symbol_bytes += SYMBOL_ENTRY_BYTES

    for gv in module.globals:
        data = _global_data_bytes(gv)
        if data:
            report.data_bytes += _align(data, gv.alignment)
        else:
            report.bss_bytes += max(gv.value_type.size, 1)
        report.symbol_bytes += SYMBOL_ENTRY_BYTES

    return report
