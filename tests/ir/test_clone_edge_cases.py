"""Cloning edge cases: cross-references, attributes, initializers."""

import gc
import weakref

import pytest

from repro.ir import (
    ConstantInt,
    Function,
    FunctionType,
    GlobalVariable,
    IRBuilder,
    I32,
    Module,
    PointerType,
    run_module,
    verify_module,
)
from repro.ir.clone import clone_blocks_into, clone_function_body
from repro.ir.values import Constant, GlobalValue
from repro.workloads import load_suite
from tests.conftest import build_module


def test_clone_remaps_function_pointer_initializer():
    module = Module()
    target = Function(module, "target", FunctionType(I32, [I32]), "internal", ["x"])
    tb = IRBuilder(target.add_block("entry"))
    tb.ret(tb.add(target.args[0], ConstantInt(I32, 1)))
    module.add_global(
        GlobalVariable(PointerType(target.ftype), "fp", target, True, "internal")
    )
    clone = module.clone()
    cloned_fp = clone.get_global("fp")
    cloned_target = clone.get_function("target")
    # The clone's initializer must reference the clone's function, not the
    # original module's.
    assert cloned_fp.initializer is cloned_target
    assert cloned_fp.initializer is not target


def test_clone_preserves_cross_function_calls():
    module = build_module(
        """
define internal i32 @a(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}
define i32 @entry(i32 %n) {
entry:
  %r = call i32 @a(i32 %n)
  ret i32 %r
}
"""
    )
    clone = module.clone()
    from repro.ir import Call

    call = next(
        i for i in clone.get_function("entry").instructions()
        if isinstance(i, Call)
    )
    assert call.called_function is clone.get_function("a")
    assert run_module(clone, "entry", [4])[0] == 5


def test_clone_blocks_into_maps_backedge_phis():
    module = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %i2, %loop ]
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, %n
  br i1 %c, label %loop, label %out
out:
  ret i32 %i2
}
"""
    )
    fn = module.get_function("entry")
    loop = next(b for b in fn.blocks if b.name == "loop")
    vmap = {}
    (copy,) = clone_blocks_into(fn, [loop], vmap, name_suffix=".c")
    # The cloned phi's back edge must point at the cloned block/increment.
    phi = copy.phis()[0]
    incoming = {b.name: v for v, b in phi.incoming()}
    assert f"loop.c" in {b.name for _, b in phi.incoming()}
    cloned_inc = phi.incoming_for_block(copy)
    assert cloned_inc is vmap[id(loop.instructions[1])]


def test_clone_function_body_maps_arguments():
    module = Module()
    src = Function(module, "src", FunctionType(I32, [I32, I32]), arg_names=["a", "b"])
    b = IRBuilder(src.add_block("entry"))
    b.ret(b.add(src.args[0], src.args[1]))
    dst = Function(module, "dst", FunctionType(I32, [I32, I32]), arg_names=["x", "y"])
    clone_function_body(src, dst)
    verify_module(module)
    assert run_module(module, "dst", [2, 3])[0] == 5
    # The clone reads its own arguments, not the source's.
    add = dst.entry.instructions[0]
    assert add.lhs is dst.args[0] and add.rhs is dst.args[1]


def test_repeated_cloning_is_stable():
    module = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  %r = mul i32 %n, 3
  ret i32 %r
}
"""
    )
    current = module
    for _ in range(5):
        current = current.clone()
        verify_module(current)
    assert run_module(current, "entry", [7])[0] == 21


def test_dropped_clones_are_collected():
    """A clone shares the original's constants. Registering the clone's
    uses on them would keep every dropped clone reachable from the
    original (constant -> use -> instruction -> module) and grow the
    constants' use lists with every clone."""
    module = dict(load_suite("mibench"))["susan"]
    constants = {
        id(op): op
        for fn in module.functions
        for inst in fn.instructions()
        for op in inst.operands
        if isinstance(op, Constant) and not isinstance(op, GlobalValue)
    }
    assert constants
    uses_before = {key: c.num_uses for key, c in constants.items()}
    refs = []
    for _ in range(50):
        clone = module.clone()
        refs.append(weakref.ref(clone))
        del clone
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert {key: c.num_uses for key, c in constants.items()} == uses_before
    # Globals keep their use lists; each clone's symbols are its own.
    clone = module.clone()
    verify_module(clone)
    for fn in module.functions:
        assert clone.get_function(fn.name).num_uses == fn.num_uses
