"""Code generation cost models: instruction selection and object size."""

from .isel import lower_instruction
from .objfile import (
    FunctionSizeReport,
    SizeReport,
    object_size,
)
from .target import AARCH64, TARGETS, TargetDescriptor, X86_64, get_target

__all__ = [
    "AARCH64",
    "FunctionSizeReport",
    "SizeReport",
    "TARGETS",
    "TargetDescriptor",
    "X86_64",
    "get_target",
    "lower_instruction",
    "object_size",
]
