"""`llvm-size`-style object-size report.

Examples::

    python -m repro.tools.sizeit input.ll
    python -m repro.tools.sizeit --target aarch64 --per-function input.ll
    python -m repro.tools.sizeit -Oz input.ll        # size after a pipeline
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from ..codegen.objfile import object_size
from ..codegen.target import TARGETS
from ..ir.parser import parse_module
from ..passes.pipelines import OPT_LEVELS, build_pipeline
from . import read_input


def run(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-size", description=__doc__)
    parser.add_argument("--target", default="x86-64",
                        choices=sorted(set(TARGETS)))
    parser.add_argument("--per-function", action="store_true")
    for level in OPT_LEVELS:
        parser.add_argument(
            f"-{level}", dest="level", action="store_const", const=level,
            help=f"optimize with {level} before measuring",
        )
    parser.add_argument("input", help="textual IR file (- for stdin)")
    args = parser.parse_args(argv)

    text = read_input(args.input)
    module = parse_module(text)
    if args.level:
        build_pipeline(args.level).run(module)

    report = object_size(module, args.target)
    print(f"target: {report.target}")
    print(f"{'text':>10} {'data':>10} {'bss':>10} {'symtab':>10} "
          f"{'overhead':>10} {'total':>10}")
    print(f"{report.text_bytes:>10} {report.data_bytes:>10} "
          f"{report.bss_bytes:>10} {report.symbol_bytes:>10} "
          f"{report.overhead_bytes:>10} {report.total_bytes:>10}")

    if args.per_function:
        print(f"\n{'function':<30} {'text':>8} {'mops':>6} {'spills':>7}")
        for fr in report.functions:
            print(f"{fr.name:<30} {fr.text_bytes:>8} {fr.machine_ops:>6} "
                  f"{fr.spill_pairs:>7}")
    return 0


def main() -> int:  # pragma: no cover - console entry
    try:
        return run()
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
