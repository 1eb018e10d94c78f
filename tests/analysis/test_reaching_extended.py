"""Reaching-store edge cases, asserted of the object-walk reference and
of the production flat build's memory-flow edges."""

from repro.ir import Load, Store
from tests.analysis_reference import FlatAnalyses, ReachingStores
from tests.conftest import build_module


def loads_and_stores(module, fn="entry"):
    f = module.get_function(fn)
    loads = [i for i in f.instructions() if isinstance(i, Load)]
    stores = [i for i in f.instructions() if isinstance(i, Store)]
    return f, loads, stores


def test_loop_carried_store_reaches_header_load():
    module = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  %p = alloca i32, align 4
  store i32 0, i32* %p, align 4
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %h ]
  %v = load i32, i32* %p, align 4
  %w = add i32 %v, %i
  store i32 %w, i32* %p, align 4
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, %n
  br i1 %c, label %h, label %out
out:
  %r = load i32, i32* %p, align 4
  ret i32 %r
}
"""
    )
    fn, loads, stores = loads_and_stores(module)
    header_load = loads[0]
    for reaching in (ReachingStores(fn), FlatAnalyses(fn)):
        # Both the init store and the loop store can reach the header load.
        assert len(reaching.stores_for(header_load)) == 2
        # The loop body always runs before exiting (bottom-test), and its
        # store kills the init store: only the loop store reaches the exit.
        exit_reaching = reaching.stores_for(loads[1])
        assert exit_reaching == [stores[1]]


def test_different_objects_do_not_interfere():
    module = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  %p = alloca i32, align 4
  %q = alloca i32, align 4
  store i32 1, i32* %p, align 4
  store i32 2, i32* %q, align 4
  %v = load i32, i32* %p, align 4
  ret i32 %v
}
"""
    )
    fn, loads, stores = loads_and_stores(module)
    for reaching in (ReachingStores(fn), FlatAnalyses(fn)):
        got = reaching.stores_for(loads[0])
        assert len(got) == 1
        assert got[0] is stores[0]


def test_dynamic_gep_stores_may_reach():
    module = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  %a = alloca [4 x i32], align 4
  %m = and i32 %n, 3
  %pd = gep [4 x i32]* %a, i32 0, i32 %m
  store i32 9, i32* %pd, align 4
  %p1 = gep [4 x i32]* %a, i32 0, i32 1
  %v = load i32, i32* %p1, align 4
  ret i32 %v
}
"""
    )
    fn, loads, stores = loads_and_stores(module)
    for reaching in (ReachingStores(fn), FlatAnalyses(fn)):
        assert stores[0] in reaching.stores_for(loads[0])


def test_reaching_stores_listed_in_instruction_order():
    """A load reached by several stores lists them in instruction order,
    never in an order that depends on object addresses."""
    from repro.testing.generator import FuzzProfile, generate_fuzz_program

    several = 0
    for seed in range(10):
        module = generate_fuzz_program(FuzzProfile(seed=seed))
        for fn in module.functions:
            if fn.is_declaration:
                continue
            position = {id(inst): k for k, inst in enumerate(fn.instructions())}
            for reaching in (ReachingStores(fn), FlatAnalyses(fn)):
                for inst in fn.instructions():
                    if isinstance(inst, Load):
                        order = [
                            position[id(s)] for s in reaching.stores_for(inst)
                        ]
                        assert order == sorted(order)
                        several += len(order) >= 2
    assert several
