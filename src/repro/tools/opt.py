"""`opt`-style pass driver over textual IR.

Examples::

    python -m repro.tools.opt -Oz input.ll -o output.ll
    python -m repro.tools.opt --passes "-simplifycfg -sroa -gvn" input.ll
    python -m repro.tools.opt -Oz --stats --verify input.ll
    python -m repro.tools.opt --agent model.npz input.ll -o output.ll
    python -m repro.tools.opt --list-passes
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..ir.verifier import verify_module
from ..passes.base import PassManager, available_passes, parse_pass_list
from ..passes.pipelines import OPT_LEVELS, build_pipeline
from . import read_input


def build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-opt", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    for level in OPT_LEVELS:
        parser.add_argument(
            f"-{level}", dest="level", action="store_const", const=level,
            help=f"run the {level} pipeline",
        )
    parser.add_argument("--passes", type=str, default=None,
                        help='explicit pass list, e.g. "-sroa -gvn -dce"')
    parser.add_argument("--agent", type=str, default=None, metavar="CHECKPOINT",
                        help="apply a trained policy's predicted sequence "
                        "from this .npz checkpoint (serving code path)")
    parser.add_argument("--action-space", choices=("odg", "manual"),
                        default=None,
                        help="with --agent: override the checkpoint's "
                        "recorded action space")
    parser.add_argument("--verify", action="store_true",
                        help="verify the IR after every pass")
    parser.add_argument("--stats", action="store_true",
                        help="report which passes changed the module")
    parser.add_argument("--list-passes", action="store_true",
                        help="print the registered pass names and exit")
    parser.add_argument("-o", "--output", type=str, default=None,
                        help="output file (default: stdout)")
    parser.add_argument("input", nargs="?", help="textual IR file (- for stdin)")
    return parser


def _run_agent(args, text: str) -> int:
    """Optimize with a trained policy through the serving code path.

    The checkpoint goes through the model registry (embedded metadata
    picks the action space), and the request through the full service
    guard: the result is verified, and a pass failure falls back to
    ``-Oz`` with the reason reported on stderr.
    """
    from ..serving import OptimizationService

    with OptimizationService.from_checkpoint(
        args.agent, action_space=args.action_space, include_ir=True,
    ) as service:
        result = service.optimize(text, name=args.input)

    if result.status == "rejected":
        sys.stderr.write(f"error: request rejected: {result.reason}\n")
        return 1
    if result.status == "fallback":
        sys.stderr.write(
            f"; warning: policy sequence failed ({result.reason}); "
            f"served the -Oz fallback\n"
        )

    assert result.optimized_ir is not None
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(result.optimized_ir)
    else:
        sys.stdout.write(result.optimized_ir)

    if args.stats:
        model = service.registry.active
        sys.stderr.write(
            f"; model {model.version} ({model.action_space_kind}), "
            f"status {result.status}\n"
            f"; actions: {' '.join(map(str, result.actions)) or '(none)'}\n"
            f"; passes applied: {len(result.passes)}\n"
            f"; size: {result.base_size} -> {result.optimized_size} bytes "
            f"({result.size_reduction_pct:.1f}% reduction)\n"
        )
    return 0


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_argparser()
    args = parser.parse_args(argv)

    if args.list_passes:
        print("\n".join(available_passes()))
        return 0

    if args.input is None:
        parser.error("an input file is required")
    if args.agent and (args.passes or args.level):
        parser.error("--agent is mutually exclusive with --passes / -O levels")
    text = read_input(args.input)

    if args.agent:
        return _run_agent(args, text)

    module = parse_module(text)

    if args.passes is not None:
        manager = PassManager(parse_pass_list(args.passes), verify=args.verify)
    elif args.level is not None:
        manager = build_pipeline(args.level)
        manager.verify = args.verify
    else:
        manager = PassManager([], verify=args.verify)
    manager.collect_stats = args.stats

    before = module.instruction_count
    manager.run(module)
    verify_module(module)

    output = print_module(module)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)

    if args.stats:
        after = module.instruction_count
        sys.stderr.write(
            f"; instructions: {before} -> {after}\n"
            f"; passes that changed the module: "
            f"{', '.join(manager.changed_passes) or '(none)'}\n"
        )
        if manager.stats is not None and manager.stats.records:
            sys.stderr.write(manager.stats.report() + "\n")
    return 0


def main() -> int:  # pragma: no cover - console entry
    try:
        return run()
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
