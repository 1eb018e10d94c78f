"""Microarchitectural models for the MCA-style throughput estimator.

Per machine-op class: latency (cycles until the result is usable) and
per-cycle issue throughput (how many such ops the port group sustains).
Numbers are Skylake-ish for x86-64 and Cortex-A72-ish for AArch64 — the
paper evaluates on Xeon (x86) and Cortex-A72 (AArch64).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class PortModel:
    """Issue-width, latency and throughput tables for one core model."""

    name: str
    dispatch_width: int
    latency: Dict[str, float]
    throughput: Dict[str, float]  # ops issuable per cycle per class

    def latency_of(self, op: str) -> float:
        return self.latency.get(op, 1.0)


SKYLAKE = PortModel(
    name="x86-64-skylake",
    dispatch_width=4,
    latency={
        "alu": 1, "imul": 3, "idiv": 26, "lea": 1,
        "load": 5, "store": 1,
        "fpalu": 4, "fpmul": 4, "fpdiv": 14,
        "valu": 1, "vfp": 4, "vload": 6, "vstore": 1,
        "mov": 1, "movimm": 1,
        "branch": 1, "call": 2, "cmov": 1, "ret": 1, "trap": 1,
    },
    throughput={
        "alu": 4, "imul": 1, "idiv": 0.16, "lea": 2,
        "load": 2, "store": 1,
        "fpalu": 2, "fpmul": 2, "fpdiv": 0.25,
        "valu": 3, "vfp": 2, "vload": 2, "vstore": 1,
        "mov": 4, "movimm": 4,
        "branch": 1, "call": 1, "cmov": 2, "ret": 1, "trap": 1,
    },
)

CORTEX_A72 = PortModel(
    name="aarch64-cortex-a72",
    dispatch_width=3,
    latency={
        "alu": 1, "imul": 4, "idiv": 20, "lea": 1,
        "load": 4, "store": 1,
        "fpalu": 4, "fpmul": 4, "fpdiv": 17,
        "valu": 3, "vfp": 4, "vload": 5, "vstore": 1,
        "mov": 1, "movimm": 1,
        "branch": 1, "call": 2, "cmov": 1, "ret": 1, "trap": 1,
    },
    throughput={
        "alu": 2, "imul": 1, "idiv": 0.08, "lea": 2,
        "load": 2, "store": 1,
        "fpalu": 2, "fpmul": 2, "fpdiv": 0.1,
        "valu": 2, "vfp": 2, "vload": 1, "vstore": 1,
        "mov": 3, "movimm": 3,
        "branch": 1, "call": 1, "cmov": 1, "ret": 1, "trap": 1,
    },
)

PORT_MODELS: Dict[str, PortModel] = {
    "x86-64": SKYLAKE,
    "x86": SKYLAKE,
    "aarch64": CORTEX_A72,
    "arm64": CORTEX_A72,
}


def get_port_model(name: str) -> PortModel:
    try:
        return PORT_MODELS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown core model {name!r}; available: {sorted(set(PORT_MODELS))}"
        ) from None
