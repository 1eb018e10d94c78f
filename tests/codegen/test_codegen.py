"""Codegen cost models: targets, lowering, object size."""

import pytest

from repro.codegen import (
    AARCH64,
    X86_64,
    get_target,
    lower_instruction,
    object_size,
)
from repro.ir import (
    Branch,
    Call,
    ConstantInt,
    GetElementPtr,
    ICmp,
    Load,
    Phi,
    Store,
    run_module,
)
from repro.passes import optimize, run_passes
from repro.workloads import ProgramProfile, generate_program
from tests.conftest import LOOP_MODULE, build_module
from tests.metrics_reference import function_text_size


class TestTargets:
    def test_lookup(self):
        assert get_target("x86-64") is X86_64
        assert get_target("x86") is X86_64
        assert get_target("aarch64") is AARCH64
        assert get_target("ARM64") is AARCH64
        with pytest.raises(KeyError):
            get_target("riscv")

    def test_aarch64_is_fixed_width(self):
        assert AARCH64.fixed_width
        assert all(b == 4 for b in AARCH64.op_bytes.values())
        assert not X86_64.fixed_width

    def test_all_op_classes_covered_by_both(self):
        assert set(X86_64.op_bytes) == set(AARCH64.op_bytes)


class TestLowering:
    def test_compare_branch_fusion(self, loop_module):
        fn = loop_module.get_function("entry")
        header = next(b for b in fn.blocks if b.name == "header")
        cmp = next(i for i in header.instructions if isinstance(i, ICmp))
        term = header.terminator
        # The compare fuses; the branch is one op, the cmp is one op.
        assert lower_instruction(cmp, X86_64) == ["alu"]
        assert lower_instruction(term, X86_64) == ["branch"]

    def test_gep_folds_into_addressing(self):
        module = build_module(
            """
define i32 @entry(i32 %n) {
entry:
  %a = alloca [8 x i32], align 4
  %p = gep [8 x i32]* %a, i32 0, i32 3
  %v = load i32, i32* %p, align 4
  ret i32 %v
}
"""
        )
        fn = module.get_function("entry")
        gep = next(i for i in fn.instructions() if isinstance(i, GetElementPtr))
        assert lower_instruction(gep, X86_64) == []

    def test_gep_with_value_use_costs_lea(self):
        module = build_module(
            """
define i32 @entry(i32 %n) {
entry:
  %a = alloca [8 x i32], align 4
  %p = gep [8 x i32]* %a, i32 0, i32 3
  %q = ptrtoint i32* %p to i64
  %t = trunc i64 %q to i32
  ret i32 %t
}
"""
        )
        fn = module.get_function("entry")
        gep = next(i for i in fn.instructions() if isinstance(i, GetElementPtr))
        assert lower_instruction(gep, X86_64) == ["lea"]

    def test_phi_costs_moves_per_incoming(self, loop_module):
        fn = loop_module.get_function("entry")
        phi = next(i for i in fn.instructions() if isinstance(i, Phi))
        assert lower_instruction(phi, X86_64) == ["mov", "mov"]

    def test_call_costs_arg_setup(self):
        module = build_module(
            """
declare i32 @ext(i32, i32, i32)
define i32 @entry(i32 %n) {
entry:
  %r = call i32 @ext(i32 %n, i32 %n, i32 %n)
  ret i32 %r
}
"""
        )
        fn = module.get_function("entry")
        call = next(i for i in fn.instructions() if isinstance(i, Call))
        ops = lower_instruction(call, X86_64)
        assert ops.count("mov") == 3
        assert ops.count("call") == 1

    def test_large_immediate_materialization(self):
        module = build_module(
            """
define i32 @entry(i32 %n) {
entry:
  %r = add i32 %n, 1000000
  ret i32 %r
}
"""
        )
        fn = module.get_function("entry")
        add = fn.entry.instructions[0]
        assert "movimm" in lower_instruction(add, X86_64)

    def test_division_companion_op_on_x86(self):
        module = build_module(
            """
define i32 @entry(i32 %n) {
entry:
  %d = or i32 %n, 1
  %r = sdiv i32 100, %d
  ret i32 %r
}
"""
        )
        fn = module.get_function("entry")
        div = next(i for i in fn.instructions() if i.opcode == "sdiv")
        assert lower_instruction(div, X86_64) == ["idiv", "alu"]
        assert lower_instruction(div, AARCH64) == ["idiv"]


class TestObjectSize:
    def test_size_breakdown_components(self, loop_module):
        report = object_size(loop_module, "x86-64")
        assert report.text_bytes > 0
        assert report.total_bytes == (
            report.text_bytes
            + report.data_bytes
            + report.symbol_bytes
            + report.overhead_bytes
        )

    def test_zero_init_global_goes_to_bss(self):
        module = build_module(
            """
@zeros = global [64 x i32] zeroinitializer, align 4
@data = global i32 5, align 4
define i32 @entry(i32 %n) {
entry:
  %a = load i32, i32* @data, align 4
  %p = gep [64 x i32]* @zeros, i32 0, i32 0
  %b = load i32, i32* %p, align 4
  %r = add i32 %a, %b
  ret i32 %r
}
"""
        )
        report = object_size(module, "x86-64")
        assert report.bss_bytes == 256
        assert report.data_bytes == 4

    def test_more_instructions_cost_more_text(self):
        small = build_module("define i32 @entry(i32 %n) {\nentry:\n  ret i32 %n\n}")
        big_body = "\n".join(
            f"  %t{i} = add i32 %n, {i}" for i in range(40)
        )
        big = build_module(
            f"define i32 @entry(i32 %n) {{\nentry:\n{big_body}\n  ret i32 %t39\n}}"
        )
        assert (
            object_size(big, "x86-64").text_bytes
            > object_size(small, "x86-64").text_bytes
        )

    def test_targets_disagree_on_size(self, generated_programs):
        diffs = 0
        for _, module in generated_programs:
            a = object_size(module, "x86-64").total_bytes
            b = object_size(module, "aarch64").total_bytes
            if a != b:
                diffs += 1
        assert diffs > 0

    def test_optimization_reduces_measured_size(self):
        module = generate_program(ProgramProfile(name="sz", seed=5, segments=7))
        before = object_size(module, "x86-64").total_bytes
        optimize(module, "Oz")
        after = object_size(module, "x86-64").total_bytes
        assert after < before

    def test_spill_model_kicks_in_under_pressure(self):
        # 40 simultaneously-live values exceed both register files.
        defs = "\n".join(f"  %v{i} = add i32 %n, {i}" for i in range(40))
        uses = []
        prev = "%v0"
        for i in range(1, 40):
            uses.append(f"  %u{i} = add i32 {prev}, %v{i}")
            prev = f"%u{i}"
        module = build_module(
            f"""
define i32 @entry(i32 %n) {{
entry:
{defs}
  br label %next
next:
{chr(10).join(uses)}
  ret i32 {prev}
}}
"""
        )
        for report in (
            function_text_size(module.get_function("entry"), X86_64),
            object_size(module, X86_64).functions[0],
        ):
            assert report.spill_pairs > 0

    def test_function_alignment_padding(self):
        module = build_module("define i32 @entry(i32 %n) {\nentry:\n  ret i32 %n\n}")
        for report in (
            function_text_size(module.get_function("entry"), X86_64),
            object_size(module, X86_64).functions[0],
        ):
            assert report.text_bytes % X86_64.function_alignment == 0
