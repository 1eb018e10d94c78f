"""Command-line tools mirroring the LLVM binaries the paper drives.

* ``python -m repro.tools.opt``    — the `opt` analogue: run pipelines or
  explicit pass lists over textual IR.
* ``python -m repro.tools.sizeit`` — the `llvm-size` analogue: object-size
  breakdown per target.
* ``python -m repro.tools.mca``    — the `llvm-mca` analogue: static
  throughput report.
* ``python -m repro.tools.profile`` — per-stage timing (passes / codegen /
  mca / embedding) for one RL episode, with cache counters.
* ``python -m repro.tools.serve``  — load harness for the batched
  optimization service: throughput, p50/p95/p99 latency, guard counters.
"""

import sys


def read_input(path: str) -> str:
    """Text of the IR input argument: ``-`` reads stdin, else the file."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()
