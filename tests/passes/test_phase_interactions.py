"""Classic phase-ordering interactions — the pass-interplay facts the
whole paper is premised on must actually hold on this substrate."""

from repro.codegen import object_size
from repro.ir import Call, Load, Phi, VectorType, run_module, verify_module
from repro.mca import estimate_throughput
from repro.passes import run_passes
from tests.conftest import build_module


ROTATE_LICM = """
define i32 @entry(i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %latch ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %latch ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %inv = mul i32 %n, 17
  %acc2 = add i32 %acc, %inv
  br label %latch
latch:
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret i32 %acc
}
"""


def test_rotation_enables_better_licm():
    """licm alone vs rotate-then-licm: rotation guards the preheader with
    the loop test, letting speculation-unsafe-ish placement improve."""
    just_licm = build_module(ROTATE_LICM)
    run_passes(just_licm, ["licm", "dce"])
    rotated = build_module(ROTATE_LICM)
    run_passes(
        rotated, ["loop-simplify", "lcssa", "loop-rotate", "licm", "dce"]
    )
    verify_module(rotated)
    for n in (0, 5):
        a, _ = run_module(just_licm.clone(), "entry", [n])
        b, _ = run_module(rotated.clone(), "entry", [n])
        assert a == b


def test_inline_enables_constant_folding():
    """inline → sccp folds what neither does alone."""
    src = """
define internal i32 @select_mode(i32 %flag) {
entry:
  %c = icmp eq i32 %flag, 1
  br i1 %c, label %a, label %b
a:
  ret i32 100
b:
  ret i32 200
}
define i32 @entry(i32 %n) {
entry:
  %m = call i32 @select_mode(i32 1)
  %r = add i32 %m, %n
  ret i32 %r
}
"""
    only_sccp = build_module(src)
    run_passes(only_sccp, ["sccp"])
    assert any(
        isinstance(i, Call)
        for i in only_sccp.get_function("entry").instructions()
    )

    combo = build_module(src)
    run_passes(combo, ["inline", "sccp", "simplifycfg", "dce", "globaldce"])
    entry = combo.get_function("entry")
    assert not any(isinstance(i, Call) for i in entry.instructions())
    assert run_module(combo, "entry", [5])[0] == 105


def test_mem2reg_enables_gvn():
    """Store/load through memory hides redundancy until promotion."""
    src = """
define i32 @entry(i32 %n) {
entry:
  %p = alloca i32, align 4
  store i32 %n, i32* %p, align 4
  %v1 = load i32, i32* %p, align 4
  %a = mul i32 %v1, 3
  %v2 = load i32, i32* %p, align 4
  %b = mul i32 %v2, 3
  %r = sub i32 %a, %b
  ret i32 %r
}
"""
    without = build_module(src)
    run_passes(without, ["gvn", "instsimplify"])
    with_promotion = build_module(src)
    run_passes(with_promotion, ["mem2reg", "gvn", "instsimplify"])
    assert (
        with_promotion.get_function("entry").instruction_count
        <= without.get_function("entry").instruction_count
    )
    assert run_module(with_promotion, "entry", [6])[0] == 0


def test_indvars_enables_loop_deletion():
    src = """
define i32 @entry(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %h ]
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 20
  br i1 %c, label %h, label %exit
exit:
  ret i32 %i2
}
"""
    direct = build_module(src)
    assert not run_passes(direct, ["loop-deletion"])  # i2 escapes

    staged = build_module(src)
    run_passes(staged, ["indvars", "loop-deletion", "simplifycfg"])
    from repro.analysis import LoopInfo

    assert LoopInfo(staged.get_function("entry")).loops == []
    assert run_module(staged, "entry", [0])[0] == 20


def test_distribute_enables_vectorize():
    """Two store streams, one containing a division (which the
    vectorizer refuses): the loop only vectorizes after fission splits
    the streams apart."""
    src = """
define i32 @entry(i32 %n) {
entry:
  %a = alloca [16 x i32], align 16
  %b = alloca [16 x i32], align 16
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %h ]
  %va = mul i32 %i, 2
  %pa = gep [16 x i32]* %a, i32 0, i32 %i
  store i32 %va, i32* %pa, align 4
  %i1 = add i32 %i, 1
  %vb = sdiv i32 %i1, 3
  %pb = gep [16 x i32]* %b, i32 0, i32 %i
  store i32 %vb, i32* %pb, align 4
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 16
  br i1 %c, label %h, label %exit
exit:
  %q = gep [16 x i32]* %a, i32 0, i32 3
  %r = load i32, i32* %q, align 4
  ret i32 %r
}
"""
    direct = build_module(src)
    run_passes(direct, ["loop-vectorize"])
    assert not any(
        isinstance(i.type, VectorType)
        for i in direct.get_function("entry").instructions()
        if not i.type.is_void
    )

    staged = build_module(src)
    before, _ = run_module(staged.clone(), "entry", [1])
    run_passes(staged, ["loop-distribute", "loop-vectorize"])
    verify_module(staged)
    assert any(
        isinstance(i.type, VectorType)
        for i in staged.get_function("entry").instructions()
        if not i.type.is_void
    )
    assert run_module(staged, "entry", [1])[0] == before


def test_unswitch_speed_vs_size_tradeoff():
    """Unswitching should cut cycles and grow bytes — the tension the
    combined reward navigates."""
    src = """
define i32 @entry(i32 %n) {
entry:
  %flag = icmp sgt i32 %n, 10
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %latch ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %latch ]
  br i1 %flag, label %a, label %b
a:
  %x = add i32 %acc, %i
  br label %latch
b:
  %y = add i32 %acc, 7
  br label %latch
latch:
  %acc2 = phi i32 [ %x, %a ], [ %y, %b ]
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 32
  br i1 %c, label %h, label %exit
exit:
  %out = phi i32 [ %acc2, %latch ]
  ret i32 %out
}
"""
    module = build_module(src)
    ops_before = object_size(module, "x86-64").functions[0].machine_ops
    cycles_before = estimate_throughput(module, "x86-64").total_cycles
    assert run_passes(module, ["loop-unswitch", "simplifycfg"])
    verify_module(module)
    ops_after = object_size(module, "x86-64").functions[0].machine_ops
    cycles_after = estimate_throughput(module, "x86-64").total_cycles
    assert ops_after > ops_before  # the body was duplicated
    assert cycles_after < cycles_before  # the in-loop branch is gone
    for n in (5, 20):
        assert run_module(module, "entry", [n])[0] == run_module(
            build_module(src), "entry", [n]
        )[0]


def test_order_changes_outcome():
    """The same two sub-sequences in different orders produce different
    binaries — the premise of phase ordering."""
    from repro.core import PAPER_ODG_SUBSEQUENCES
    from repro.workloads import ProgramProfile, generate_program

    differs = 0
    for seed in range(6):
        module = generate_program(
            ProgramProfile(name=f"ord{seed}", seed=seed, segments=6)
        )
        ab = module.clone()
        run_passes(ab, list(PAPER_ODG_SUBSEQUENCES[7]))   # loop group
        run_passes(ab, list(PAPER_ODG_SUBSEQUENCES[23]))  # inline group
        ba = module.clone()
        run_passes(ba, list(PAPER_ODG_SUBSEQUENCES[23]))
        run_passes(ba, list(PAPER_ODG_SUBSEQUENCES[7]))
        if (
            object_size(ab, "x86-64").total_bytes
            != object_size(ba, "x86-64").total_bytes
        ):
            differs += 1
        # Whatever the order, semantics hold.
        r0, _ = run_module(module, "entry", [4])
        assert run_module(ab, "entry", [4])[0] == r0
        assert run_module(ba, "entry", [4])[0] == r0
    assert differs >= 1
