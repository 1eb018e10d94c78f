"""The pass layer's work cuts change no output.

Every pass of the ``-Oz`` sequence runs, in order, on two copies of a
program: one with the code in ``src/`` and one with the reference
implementations of ``tests/passes_reference.py`` swapped in (ipsccp
solving every function every round, the scan-every-scope CSE table, the
list-scan ``predecessors_map``, the per-query-SCC ``is_recursive``).
After every pass both copies must print the same text, have the same
fingerprint, and the pass must report the same changed-flag.
"""

import pytest

from repro.ir.fingerprint import module_fingerprint
from repro.ir.printer import print_module
from repro.passes import OZ_PASS_SEQUENCE, create_pass
from repro.testing.generator import FuzzProfile, generate_fuzz_program
from repro.workloads import load_suite
from tests.passes_reference import reference_passes

FUZZ_SEEDS = range(12)


def _programs(source):
    if source == "fuzz":
        return [
            (f"fuzz{seed}", generate_fuzz_program(FuzzProfile(seed=seed)))
            for seed in FUZZ_SEEDS
        ]
    if source == "llvm_test_suite":
        return load_suite(source)[:20]
    return load_suite(source)


def assert_oz_matches_reference(name, module):
    fast = module.clone()
    reference = module.clone()
    for index, pass_name in enumerate(OZ_PASS_SEQUENCE):
        where = f"{name}: pass {index} -{pass_name}"
        fast_changed = bool(create_pass(pass_name).run_on_module(fast))
        with reference_passes():
            reference_changed = bool(
                create_pass(pass_name).run_on_module(reference)
            )
        assert fast_changed == reference_changed, where
        assert print_module(fast) == print_module(reference), where
        assert module_fingerprint(fast) == module_fingerprint(reference), where


@pytest.mark.parametrize(
    "source", ["mibench", "spec2006", "spec2017", "llvm_test_suite", "fuzz"]
)
def test_oz_sequence_matches_reference(source):
    for name, module in _programs(source):
        assert_oz_matches_reference(name, module)


def test_reference_swap_is_undone():
    """The reference implementations are in place only inside the block."""
    from repro.analysis import cfg
    from repro.analysis.callgraph import CallGraph
    from repro.passes.ipo.ipsccp import IPSCCP
    from repro.passes.scalar import early_cse

    before = (
        cfg.predecessors_map, CallGraph.is_recursive,
        IPSCCP.run_on_module, early_cse._ScopedTable,
        early_cse.expression_key,
    )
    with reference_passes():
        inside = (
            cfg.predecessors_map, CallGraph.is_recursive,
            IPSCCP.run_on_module, early_cse._ScopedTable,
            early_cse.expression_key,
        )
        assert all(a is not b for a, b in zip(before, inside))
    after = (
        cfg.predecessors_map, CallGraph.is_recursive,
        IPSCCP.run_on_module, early_cse._ScopedTable,
        early_cse.expression_key,
    )
    assert all(a is b for a, b in zip(before, after))


#: Repeated edges: both arms of a branch and two switch cases to one block.
REPEATED_EDGES = """
define i32 @entry(i32 %n) {
entry:
  %c = icmp eq i32 %n, 0
  br i1 %c, label %join, label %join
join:
  switch i32 %n, label %exit [ i32 1, label %exit
                               i32 2, label %other
                               i32 3, label %exit ]
other:
  br label %exit
exit:
  %p = phi i32 [ 1, %join ], [ 2, %other ]
  ret i32 %p
}
"""


def _validation_and_fuzz_modules():
    from tests.conftest import build_module

    yield build_module(REPEATED_EDGES)
    for source in ("mibench", "spec2006", "spec2017", "fuzz"):
        for _, module in _programs(source):
            yield module


def test_cfg_and_callgraph_primitives_match_reference():
    """``predecessors_map``, ``is_recursive``, ``single_predecessor`` and
    whether a function has a loop (the ``willreturn`` test) answer
    exactly as their references on every function, before and after
    ``-Oz``."""
    from repro.analysis.callgraph import CallGraph
    from repro.analysis.cfg import predecessors_map
    from repro.analysis.loops import LoopInfo
    from repro.passes import build_pipeline
    from tests.analysis_reference import LoopInfo as ReferenceLoopInfo
    from tests.passes_reference import (
        reference_is_recursive,
        reference_predecessors_map,
    )

    for module in _validation_and_fuzz_modules():
        for state in (module, module.clone()):
            if state is not module:
                build_pipeline("Oz").run(state)
            graph = CallGraph(state)
            for fn in state.functions:
                assert graph.is_recursive(fn) == reference_is_recursive(graph, fn)
                assert bool(LoopInfo(fn).loops) == bool(
                    ReferenceLoopInfo(fn).loops
                )
                for block in fn.blocks:
                    preds = block.predecessors()
                    single = preds[0] if len(preds) == 1 else None
                    assert block.single_predecessor is single
                fast = predecessors_map(fn)
                slow = reference_predecessors_map(fn)
                assert fast.keys() == slow.keys()
                for key, preds in slow.items():
                    assert len(fast[key]) == len(preds)
                    assert all(a is b for a, b in zip(fast[key], preds))


def test_scoped_table_matches_reference():
    """Random push / pop / insert / lookup sequences (re-inserting keys
    in inner and in the same scope) read the same from both tables."""
    import random

    from repro.passes.scalar.early_cse import _ScopedTable
    from tests.passes_reference import ReferenceScopedTable

    rng = random.Random(0)
    for _ in range(200):
        fast, slow = _ScopedTable(), ReferenceScopedTable()
        depth = 0
        for step in range(rng.randrange(1, 60)):
            op = rng.random()
            if op < 0.2:
                fast.push()
                slow.push()
                depth += 1
            elif op < 0.35 and depth:
                fast.pop()
                slow.pop()
                depth -= 1
            elif op < 0.7:
                key = rng.randrange(8)
                fast.insert(key, step)
                slow.insert(key, step)
            for key in range(8):
                assert fast.lookup(key) == slow.lookup(key)
