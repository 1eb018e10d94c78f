"""`llvm-mca`-style static throughput report.

Examples::

    python -m repro.tools.mca input.ll
    python -m repro.tools.mca --target aarch64 --per-block input.ll
    python -m repro.tools.mca -O3 input.ll
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from ..codegen.target import TARGETS
from ..ir.parser import parse_module
from ..mca.sched import estimate_throughput
from ..passes.pipelines import OPT_LEVELS, build_pipeline
from . import read_input


def run(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-mca", description=__doc__)
    parser.add_argument("--target", default="x86-64",
                        choices=sorted(set(TARGETS)))
    parser.add_argument("--per-block", action="store_true")
    for level in OPT_LEVELS:
        parser.add_argument(
            f"-{level}", dest="level", action="store_const", const=level,
            help=f"optimize with {level} before analysis",
        )
    parser.add_argument("input", help="textual IR file (- for stdin)")
    args = parser.parse_args(argv)

    text = read_input(args.input)
    module = parse_module(text)
    if args.level:
        build_pipeline(args.level).run(module)

    summary = estimate_throughput(module, args.target)
    print(f"target:          {summary.target}")
    print(f"total cycles:    {summary.total_cycles:.2f}")
    print(f"total uops:      {summary.total_uops:.2f}")
    print(f"IPC:             {summary.ipc:.2f}")
    print(f"throughput:      {summary.throughput:.2f} (runs / 1e9 cycles)")

    for fr in summary.functions:
        print(f"\nfunction @{fr.name}: "
              f"{fr.cycles_per_invocation:.2f} cycles/invocation, "
              f"{fr.uops_per_invocation:.1f} uops")
        if args.per_block:
            print(f"  {'block':<18} {'freq':>9} {'uops':>5} {'disp':>7} "
                  f"{'res':>7} {'lat':>7} {'cycles':>8}")
            for b in fr.blocks:
                print(f"  {b.name:<18} {b.frequency:>9.2f} {b.uops:>5} "
                      f"{b.dispatch_bound:>7.2f} {b.resource_bound:>7.2f} "
                      f"{b.latency_bound:>7.2f} {b.cycles:>8.2f}")
    return 0


def main() -> int:  # pragma: no cover - console entry
    try:
        return run()
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
