"""MCA-style static throughput estimation (the LLVM-MCA substitute)."""

from .ports import CORTEX_A72, PORT_MODELS, PortModel, SKYLAKE, get_port_model
from .sched import (
    BlockReport,
    FunctionReport,
    McaSummary,
    estimate_throughput,
)

__all__ = [
    "BlockReport",
    "CORTEX_A72",
    "FunctionReport",
    "McaSummary",
    "PORT_MODELS",
    "PortModel",
    "SKYLAKE",
    "estimate_throughput",
    "get_port_model",
]
