"""-sccp and -ipsccp."""

from repro.ir import run_module, verify_module
from repro.passes import run_passes
from tests.conftest import assert_semantics_preserved, build_module


def test_propagates_through_branch():
    module = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  %x = add i32 2, 3
  %c = icmp eq i32 %x, 5
  br i1 %c, label %yes, label %no
yes:
  ret i32 100
no:
  ret i32 200
}
"""
    )
    run_passes(module, ["sccp"])
    verify_module(module)
    fn = module.get_function("entry")
    assert not any(b.name == "no" for b in fn.blocks)  # unreachable removed
    assert run_module(module, "entry", [0])[0] == 100


def test_phi_of_constants_on_executable_edges():
    module = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  br i1 true, label %a, label %b
a:
  br label %m
b:
  br label %m
m:
  %p = phi i32 [ 7, %a ], [ 9, %b ]
  %r = mul i32 %p, 2
  ret i32 %r
}
"""
    )
    run_passes(module, ["sccp"])
    assert run_module(module, "entry", [0])[0] == 14
    assert module.get_function("entry").instruction_count <= 3


def test_overdefined_stays(loop_module):
    assert_semantics_preserved(loop_module, lambda m: run_passes(m, ["sccp"]))


def test_sccp_through_select():
    module = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  %c = icmp sgt i32 1, 0
  %s = select i1 %c, i32 11, i32 22
  ret i32 %s
}
"""
    )
    run_passes(module, ["sccp"])
    assert module.get_function("entry").instruction_count == 1
    assert run_module(module, "entry", [0])[0] == 11


def test_switch_folding():
    module = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  %k = add i32 1, 1
  switch i32 %k, label %d [ i32 1, label %a  i32 2, label %b ]
a:
  ret i32 10
b:
  ret i32 20
d:
  ret i32 30
}
"""
    )
    run_passes(module, ["sccp"])
    names = {b.name for b in module.get_function("entry").blocks}
    assert "a" not in names and "d" not in names
    assert run_module(module, "entry", [0])[0] == 20


def test_does_not_fold_division_by_zero():
    module = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  %z = sub i32 5, 5
  %d = sdiv i32 10, %z
  ret i32 %d
}
"""
    )
    run_passes(module, ["sccp"])
    verify_module(module)
    # The trap must remain a trap.
    import pytest
    from repro.ir import InterpError

    with pytest.raises(InterpError):
        run_module(module, "entry", [0])


def test_loads_are_overdefined():
    module = build_module(
        """
@g = global i32 5, align 4
define i32 @entry(i32 %n) {
entry:
  %v = load i32, i32* @g, align 4
  %c = icmp eq i32 %v, 5
  br i1 %c, label %a, label %b
a:
  ret i32 1
b:
  ret i32 2
}
"""
    )
    run_passes(module, ["sccp"])
    verify_module(module)
    # Both sides must survive (g is externally writable).
    assert len(module.get_function("entry").blocks) == 3


class TestIPSCCP:
    def test_propagates_constant_argument(self):
        module = build_module(
            """
define internal i32 @callee(i32 %x) {
entry:
  %r = mul i32 %x, 2
  ret i32 %r
}
define i32 @entry(i32 %n) {
entry:
  %a = call i32 @callee(i32 21)
  %b = call i32 @callee(i32 21)
  %r = add i32 %a, %b
  ret i32 %r
}
"""
        )
        run_passes(module, ["ipsccp"])
        verify_module(module)
        assert run_module(module, "entry", [0])[0] == 84
        # Call results were replaced by the constant 42.
        entry = module.get_function("entry")
        from repro.ir import Call

        calls = [i for i in entry.instructions() if isinstance(i, Call)]
        for call in calls:
            assert not call.has_uses

    def test_mixed_arguments_not_pinned(self):
        module = build_module(
            """
define internal i32 @callee(i32 %x) {
entry:
  %r = mul i32 %x, 2
  ret i32 %r
}
define i32 @entry(i32 %n) {
entry:
  %a = call i32 @callee(i32 3)
  %b = call i32 @callee(i32 %n)
  %r = add i32 %a, %b
  ret i32 %r
}
"""
        )
        assert_semantics_preserved(module, lambda m: run_passes(m, ["ipsccp"]))

    def test_constant_return_propagates(self):
        module = build_module(
            """
define internal i32 @const7(i32 %x) {
entry:
  ret i32 7
}
define i32 @entry(i32 %n) {
entry:
  %a = call i32 @const7(i32 %n)
  %r = add i32 %a, %n
  ret i32 %r
}
"""
        )
        run_passes(module, ["ipsccp", "dce"])
        verify_module(module)
        assert run_module(module, "entry", [5])[0] == 12

    def test_external_function_args_not_pinned(self):
        module = build_module(
            """
define i32 @visible(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}
define i32 @entry(i32 %n) {
entry:
  %a = call i32 @visible(i32 4)
  ret i32 %a
}
"""
        )
        run_passes(module, ["ipsccp"])
        # `visible` is external: other TUs may call it with anything, so its
        # body must stay general.
        assert run_module(module, "visible", [10])[0] == 11

    def test_round_cap_truncates_a_caller_first_chain(self):
        """Rounds visit functions in module order, so in a caller-first
        chain each round moves the callee's constant return up one level
        only. With a chain deeper than ``MAX_ROUNDS`` the cap stops
        propagation part-way, exactly where solving every function every
        round stops it; a solver run to a full fixpoint would fold the
        whole chain."""
        from repro.ir import Call, print_module
        from repro.passes.ipo.ipsccp import IPSCCP
        from tests.passes_reference import reference_passes

        depth = IPSCCP.MAX_ROUNDS + 3
        chain = "".join(
            f"""
define internal i32 @f{i}(i32 %x) {{
entry:
  %r = call i32 @f{i + 1}(i32 %x)
  ret i32 %r
}}
"""
            for i in range(depth - 1)
        )
        module = build_module(
            f"""
define i32 @entry(i32 %n) {{
entry:
  %r = call i32 @f0(i32 %n)
  ret i32 %r
}}
{chain}
define internal i32 @f{depth - 1}(i32 %x) {{
entry:
  ret i32 42
}}
"""
        )
        fast, reference = module.clone(), module.clone()
        run_passes(fast, ["ipsccp"])
        with reference_passes():
            run_passes(reference, ["ipsccp"])
        verify_module(fast)
        assert print_module(fast) == print_module(reference)
        assert run_module(fast, "entry", [0])[0] == 42

        def call_result_used(caller):
            fn = fast.get_function(caller)
            (call,) = [i for i in fn.instructions() if isinstance(i, Call)]
            return call.has_uses

        # Round k learns the constant of f{depth-k}: the calls to those
        # functions fold, the rest stay.
        folded = {f"f{depth - k}" for k in range(1, IPSCCP.MAX_ROUNDS + 1)}
        for i in range(depth - 1):
            caller = f"f{i}"
            callee = f"f{i + 1}"
            assert call_result_used(caller) == (callee not in folded), caller
        assert call_result_used("entry")
