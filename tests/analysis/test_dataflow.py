"""Liveness, reaching stores, block frequency.

Each property is asserted of the object-walk reference analyses and,
where the flat view carries the quantity, of the production flat build
(:class:`~tests.analysis_reference.FlatAnalyses`).
"""

from repro.analysis import LoopInfo
from repro.ir import Load, Store
from tests.analysis_reference import (
    BlockFrequency,
    FlatAnalyses,
    Liveness,
    ReachingStores,
)
from tests.conftest import LOOP_MODULE, build_module


class TestLiveness:
    def test_loop_carried_values_live_across(self, loop_module):
        fn = loop_module.get_function("entry")
        live = Liveness(fn)
        blocks = {b.name: b for b in fn.blocks}
        inv = blocks["entry"].instructions[0]  # %inv used in body
        # inv is live into header and body.
        assert id(inv) in live.live_in[id(blocks["header"])]
        assert id(inv) in live.live_in[id(blocks["body"])]
        # Not live into exit (unused there).
        assert id(inv) not in live.live_in[id(blocks["exit"])]

    def test_phi_operands_live_out_of_preds(self, loop_module):
        fn = loop_module.get_function("entry")
        live = Liveness(fn)
        blocks = {b.name: b for b in fn.blocks}
        i2 = next(i for i in blocks["latch"].instructions if i.name == "i2")
        assert id(i2) in live.live_out[id(blocks["latch"])]

    def test_live_across_blocks_counts(self, loop_module):
        fn = loop_module.get_function("entry")
        blocks = {b.name: b for b in fn.blocks}
        inv = blocks["entry"].instructions[0]
        for live in (Liveness(fn), FlatAnalyses(fn)):
            assert live.live_across_blocks(inv) >= 2

    def test_max_pressure_positive(self, loop_module):
        fn = loop_module.get_function("entry")
        for live in (Liveness(fn), FlatAnalyses(fn)):
            assert live.max_pressure() >= 2

    def test_straightline_no_cross_block_liveness(self):
        module = build_module(
            """
define i32 @entry(i32 %n) {
entry:
  %a = add i32 %n, 1
  %b = mul i32 %a, 2
  ret i32 %b
}
"""
        )
        fn = module.get_function("entry")
        live = Liveness(fn)
        assert live.live_in[id(fn.entry)] == set()


class TestReachingStores:
    def test_store_reaches_load(self):
        module = build_module(
            """
define i32 @entry(i32 %n) {
entry:
  %p = alloca i32, align 4
  store i32 %n, i32* %p, align 4
  %v = load i32, i32* %p, align 4
  ret i32 %v
}
"""
        )
        fn = module.get_function("entry")
        load = next(i for i in fn.instructions() if isinstance(i, Load))
        for reaching in (ReachingStores(fn), FlatAnalyses(fn)):
            stores = reaching.stores_for(load)
            assert len(stores) == 1

    def test_killed_store_does_not_reach(self):
        module = build_module(
            """
define i32 @entry(i32 %n) {
entry:
  %p = alloca i32, align 4
  store i32 1, i32* %p, align 4
  store i32 %n, i32* %p, align 4
  %v = load i32, i32* %p, align 4
  ret i32 %v
}
"""
        )
        fn = module.get_function("entry")
        load = next(i for i in fn.instructions() if isinstance(i, Load))
        for reaching in (ReachingStores(fn), FlatAnalyses(fn)):
            stores = reaching.stores_for(load)
            assert len(stores) == 1
        assert stores[0].value is fn.args[0]

    def test_both_branch_stores_reach_merge_load(self):
        module = build_module(
            """
define i32 @entry(i32 %n) {
entry:
  %p = alloca i32, align 4
  %c = icmp sgt i32 %n, 0
  br i1 %c, label %a, label %b
a:
  store i32 1, i32* %p, align 4
  br label %m
b:
  store i32 2, i32* %p, align 4
  br label %m
m:
  %v = load i32, i32* %p, align 4
  ret i32 %v
}
"""
        )
        fn = module.get_function("entry")
        load = next(i for i in fn.instructions() if isinstance(i, Load))
        for reaching in (ReachingStores(fn), FlatAnalyses(fn)):
            assert len(reaching.stores_for(load)) == 2


class TestBlockFrequency:
    def test_loop_blocks_hotter(self, loop_module):
        fn = loop_module.get_function("entry")
        blocks = {b.name: b for b in fn.blocks}
        for freq in (BlockFrequency(fn), FlatAnalyses(fn)):
            assert freq.frequency(blocks["body"]) > freq.frequency(blocks["entry"])
            assert freq.frequency(blocks["entry"]) == 1.0

    def test_nesting_multiplies(self):
        module = build_module(
            """
define i32 @entry(i32 %n) {
entry:
  br label %outer
outer:
  %i = phi i32 [ 0, %entry ], [ %i2, %olatch ]
  br label %inner
inner:
  %j = phi i32 [ 0, %outer ], [ %j2, %inner ]
  %j2 = add i32 %j, 1
  %jc = icmp slt i32 %j2, 4
  br i1 %jc, label %inner, label %olatch
olatch:
  %i2 = add i32 %i, 1
  %ic = icmp slt i32 %i2, %n
  br i1 %ic, label %outer, label %exit
exit:
  ret i32 %i2
}
"""
        )
        fn = module.get_function("entry")
        blocks = {b.name: b for b in fn.blocks}
        for freq in (BlockFrequency(fn), FlatAnalyses(fn)):
            assert freq.frequency(blocks["inner"]) > freq.frequency(blocks["outer"])

    def test_branch_weights_skew(self, diamond_module):
        fn = diamond_module.get_function("entry")
        blocks = {b.name: b for b in fn.blocks}
        term = blocks["entry"].terminator
        term.meta["branch_weights"] = [2000, 1]
        for freq in (BlockFrequency(fn), FlatAnalyses(fn)):
            assert freq.frequency(blocks["then"]) > 0.9
            assert freq.frequency(blocks["els"]) < 0.1

    def test_even_split_without_weights(self, diamond_module):
        fn = diamond_module.get_function("entry")
        blocks = {b.name: b for b in fn.blocks}
        for freq in (BlockFrequency(fn), FlatAnalyses(fn)):
            assert abs(freq.frequency(blocks["then"]) - 0.5) < 1e-9
            assert abs(freq.frequency(blocks["merge"]) - 1.0) < 1e-9
