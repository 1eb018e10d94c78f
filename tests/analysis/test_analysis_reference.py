"""The cached CFG analyses against the object-walk oracle.

``DominatorTree(fn)`` and ``LoopInfo(fn)`` are views over the index-CFG
analyses :func:`repro.analysis.cfg.index_cfg` caches per function and
checks against the live CFG on every fetch. The object implementations
they replaced are kept in ``tests/analysis_reference.py`` and built
fresh here. Every ``-Oz`` pass runs, in order, on the validation
programs, 20 ``llvm_test_suite`` programs and fuzz modules; after each
pass (which fetched and refetched the analyses itself), every function's
fetched tree and loops must equal the reference: idoms, tree children
and preorder, frontiers, dominance, postorder, and the loops' headers,
bodies, latches, nesting and the innermost loop of every block.
"""

import gc
import random
import weakref

import pytest

from repro.analysis import DominatorTree, LoopInfo
from repro.analysis.cfg import postorder, remove_unreachable_blocks
from repro.ir import parse_module
from repro.passes import OZ_PASS_SEQUENCE, create_pass
from repro.passes.loops.loop_simplify import _merge_latches
from repro.passes.scalar.simplifycfg import _forward_empty_block
from repro.testing.generator import FuzzProfile, generate_fuzz_program
from repro.workloads import load_suite
from tests import analysis_reference as reference

FUZZ_SEEDS = range(12)
#: Block pairs per function checked with ``dominates_block`` beyond the
#: (idom, block) pairs.
DOMINANCE_SAMPLES = 64


def _programs(source):
    if source == "fuzz":
        return [
            (f"fuzz{seed}", generate_fuzz_program(FuzzProfile(seed=seed)))
            for seed in FUZZ_SEEDS
        ]
    if source == "llvm_test_suite":
        return load_suite(source)[:20]
    return load_suite(source)


def _ids(blocks):
    return [id(b) for b in blocks]


def _loop_shape(loop):
    return (
        id(loop.header),
        _ids(loop.blocks),
        _ids(loop.latches),
        id(loop.parent.header) if loop.parent is not None else None,
        [id(child.header) for child in loop.children],
    )


def assert_matches_reference(fn, where, rng=None):
    dom, ref_dom = DominatorTree(fn), reference.DominatorTree(fn)
    assert _ids(postorder(fn)) == _ids(reference.postorder(fn)), where
    assert list(dom.idom) == list(ref_dom.idom), where
    for key, parent in ref_dom.idom.items():
        assert dom.idom[key] is parent, where
    for block in fn.blocks:
        assert dom.is_reachable(block) == ref_dom.is_reachable(block), where
        assert dom.immediate_dominator(block) is ref_dom.immediate_dominator(
            block
        ), where
        assert _ids(dom.children(block)) == _ids(ref_dom.children(block)), where
    assert _ids(dom.dfs_preorder()) == _ids(ref_dom.dfs_preorder()), where
    frontiers = dom.dominance_frontiers()
    ref_frontiers = ref_dom.dominance_frontiers()
    assert list(frontiers) == list(ref_frontiers), where
    assert frontiers == ref_frontiers, where
    pairs = [(ref_dom.immediate_dominator(b), b) for b in fn.blocks]
    if rng is not None and fn.blocks:
        pairs += [
            (rng.choice(fn.blocks), rng.choice(fn.blocks))
            for _ in range(DOMINANCE_SAMPLES)
        ]
    for a, b in pairs:
        if a is not None:
            assert dom.dominates_block(a, b) == ref_dom.dominates_block(a, b), where

    info, ref_info = LoopInfo(fn), reference.LoopInfo(fn)
    assert [_loop_shape(l) for l in info.loops] == [
        _loop_shape(l) for l in ref_info.loops
    ], where
    for block in fn.blocks:
        loop, ref_loop = info.loop_for(block), ref_info.loop_for(block)
        assert (loop is None) == (ref_loop is None), where
        if loop is not None:
            assert loop.header is ref_loop.header, where
        assert info.depth_of(block) == ref_info.depth_of(block), where
    assert [id(l.header) for l in info.innermost_first()] == [
        id(l.header) for l in ref_info.innermost_first()
    ], where
    assert [id(l.header) for l in info.top_level()] == [
        id(l.header) for l in ref_info.top_level()
    ], where


@pytest.mark.parametrize(
    "source", ["mibench", "spec2006", "spec2017", "llvm_test_suite", "fuzz"]
)
def test_fetched_analyses_match_reference_after_every_oz_pass(source):
    rng = random.Random(0)
    for name, module in _programs(source):
        module = module.clone()
        for index, pass_name in enumerate(OZ_PASS_SEQUENCE):
            create_pass(pass_name).run_on_module(module)
            for fn in module.functions:
                where = f"{name}: @{fn.name} after pass {index} -{pass_name}"
                assert_matches_reference(fn, where, rng)


#: Two outside predecessors and two latches; the header has no phis, so
#: the preheader and merged latch loop-simplify adds are empty
#: forwarders that simplifycfg removes again.
TWO_LATCHES = """
declare void @sink(i32)

define void @f(i32 %n, i32* %p) {
entry:
  %c0 = icmp sgt i32 %n, 5
  br i1 %c0, label %head, label %other
other:
  call void @sink(i32 %n)
  br label %head
head:
  %i = load i32, i32* %p, align 4
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %odd = and i32 %i, 1
  %co = icmp eq i32 %odd, 0
  br i1 %co, label %left, label %right
left:
  %a = add i32 %i, 1
  store i32 %a, i32* %p, align 4
  br label %head
right:
  %b = add i32 %i, 3
  store i32 %b, i32* %p, align 4
  br label %head
exit:
  ret void
}
"""


def _cfg_signature(fn):
    return list(fn.blocks), [b.successors() for b in fn.blocks]


def _assert_back_to(fn, signature):
    blocks, targets = signature
    assert fn.blocks == blocks
    assert [b.successors() for b in fn.blocks] == targets


def test_cfg_round_trip_through_loop_simplify_and_simplifycfg():
    module = parse_module(TWO_LATCHES)
    fn = module.get_function("f")
    original = _cfg_signature(fn)
    assert len(LoopInfo(fn).loops[0].latches) == 2
    assert create_pass("loop-simplify").run_on_function(fn)
    assert len(fn.blocks) == len(original[0]) + 2  # preheader and latch
    assert create_pass("simplifycfg").run_on_function(fn)
    _assert_back_to(fn, original)
    assert_matches_reference(fn, "after the round trip")


def test_merged_latch_leaves_cached_loop_untouched():
    """loop-simplify's latch merge edits its own copy: the shared record
    still describes the original CFG when simplifycfg removes the merged
    latch again and the next fetch hits the cached shape."""
    module = parse_module(TWO_LATCHES)
    fn = module.get_function("f")
    original = _cfg_signature(fn)
    (loop,) = LoopInfo(fn).loops
    cached = fn.cfg_cache
    merged = _merge_latches(fn, loop)
    assert merged is not None and merged is not loop
    (latch,) = merged.latches
    assert latch not in original[0]
    # simplifycfg's own step, without the fetches its pass loop makes.
    assert _forward_empty_block(latch)
    _assert_back_to(fn, original)
    info = LoopInfo(fn)
    assert fn.cfg_cache is cached  # the round trip hit the cached shape
    assert info.loops[0] is loop
    assert_matches_reference(fn, "after the latch merge round trip")


DEAD_BLOCK = """
define i32 @f(i32 %n) {
entry:
  br label %exit
dead:
  %d = add i32 %n, 1
  br label %exit
exit:
  %p = phi i32 [ %n, %entry ], [ %d, %dead ]
  ret i32 %p
}
"""


def test_erased_block_freed_on_next_fetch():
    """The cache holds the block objects of the last fetched shape, and
    only until the next fetch sees another shape."""
    module = parse_module(DEAD_BLOCK)
    fn = module.get_function("f")
    DominatorTree(fn)
    LoopInfo(fn)
    dead = weakref.ref(fn.blocks[1])
    assert remove_unreachable_blocks(fn)
    gc.collect()
    assert dead() is not None  # still held by the cached entry
    DominatorTree(fn)
    gc.collect()
    assert dead() is None
