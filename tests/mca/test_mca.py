"""MCA-style throughput estimation."""

import pytest

from repro.mca import (
    CORTEX_A72,
    SKYLAKE,
    estimate_throughput,
    get_port_model,
)
from repro.passes import optimize, run_passes
from repro.workloads import ProgramProfile, generate_program
from tests.conftest import LOOP_MODULE, build_module
from tests.metrics_reference import block_reports, pressure_of


class TestPortModels:
    def test_lookup(self):
        assert get_port_model("x86-64") is SKYLAKE
        assert get_port_model("aarch64") is CORTEX_A72
        with pytest.raises(KeyError):
            get_port_model("power9")

    def test_division_is_slow(self):
        assert SKYLAKE.latency_of("idiv") > 10 * SKYLAKE.latency_of("alu")

    def test_pressure_of_contended_port(self):
        assert pressure_of(SKYLAKE, {"store": 4}) == pytest.approx(4.0)
        assert pressure_of(SKYLAKE, {"alu": 4}) == pytest.approx(1.0)


class TestBlockAnalysis:

    def test_dependent_chain_latency_bound(self):
        dep_chain = "\n".join(
            f"  %t{i} = mul i32 %t{i-1}, 3" if i else "  %t0 = mul i32 %n, 3"
            for i in range(8)
        )
        independent = "\n".join(
            f"  %u{i} = mul i32 %n, {i + 2}" for i in range(8)
        )
        combine = "\n".join(
            f"  %c{i} = add i32 %c{i-1}, %u{i}" if i else "  %c0 = add i32 %u0, 0"
            for i in range(8)
        )
        chain = build_module(
            f"define i32 @entry(i32 %n) {{\nentry:\n{dep_chain}\n  ret i32 %t7\n}}"
        )
        par = build_module(
            f"define i32 @entry(i32 %n) {{\nentry:\n{independent}\n{combine}\n  ret i32 %c7\n}}"
        )
        for chain_report, par_report in zip(
            block_reports(chain, "entry"), block_reports(par, "entry")
        ):
            # The dependent chain has a longer critical path per op.
            assert chain_report.latency_bound > par_report.latency_bound / 2

    def test_loop_carried_recurrence(self, loop_module):
        for report in block_reports(loop_module, "header"):
            assert report.cycles >= 0.25

    def test_division_dominates_block(self):
        module = build_module(
            """
define i32 @entry(i32 %n) {
entry:
  %d = or i32 %n, 1
  %q = sdiv i32 100, %d
  ret i32 %q
}
"""
        )
        for report in block_reports(module, "entry"):
            assert report.cycles > 5


class TestModuleEstimate:
    def test_loop_dominates_cycles(self, loop_module):
        summary = estimate_throughput(loop_module, "x86-64")
        fn_report = summary.functions[0]
        by_name = {b.name: b for b in fn_report.blocks}
        assert by_name["body"].frequency > by_name["entry"].frequency

    def test_throughput_inverse_of_cycles(self, loop_module):
        summary = estimate_throughput(loop_module, "x86-64")
        assert summary.throughput == pytest.approx(1e9 / summary.total_cycles)
        assert summary.ipc > 0

    def test_callee_cycles_weighted_by_call_frequency(self):
        module = build_module(
            """
define internal i32 @work(i32 %x) {
entry:
  %a = mul i32 %x, 3
  %b = mul i32 %a, 5
  %c = mul i32 %b, 7
  ret i32 %c
}
define i32 @cold(i32 %n) {
entry:
  %r = call i32 @work(i32 %n)
  ret i32 %r
}
define i32 @hot(i32 %n) {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %i2, %loop ]
  %v = call i32 @work(i32 %i)
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, %n
  br i1 %c, label %loop, label %out
out:
  ret i32 %v
}
"""
        )
        summary = estimate_throughput(module, "x86-64")
        # `hot` calls work ~10x per invocation: total cycles reflect that.
        only_cold = build_module(
            """
define internal i32 @work(i32 %x) {
entry:
  %a = mul i32 %x, 3
  %b = mul i32 %a, 5
  %c = mul i32 %b, 7
  ret i32 %c
}
define i32 @cold(i32 %n) {
entry:
  %r = call i32 @work(i32 %n)
  ret i32 %r
}
"""
        )
        assert summary.total_cycles > estimate_throughput(only_cold, "x86-64").total_cycles

    def test_vectorization_improves_throughput(self):
        src = """
define i32 @entry(i32 %n) {
entry:
  %a = alloca [64 x i32], align 16
  %b = alloca [64 x i32], align 16
  br label %z
z:
  %j = phi i32 [ 0, %entry ], [ %j2, %z ]
  %zp = gep [64 x i32]* %a, i32 0, i32 %j
  store i32 %j, i32* %zp, align 4
  %j2 = add i32 %j, 1
  %zc = icmp slt i32 %j2, 64
  br i1 %zc, label %z, label %pre
pre:
  br label %h
h:
  %i = phi i32 [ 0, %pre ], [ %i2, %h ]
  %sp = gep [64 x i32]* %a, i32 0, i32 %i
  %v = load i32, i32* %sp, align 4
  %w = mul i32 %v, 3
  %dp = gep [64 x i32]* %b, i32 0, i32 %i
  store i32 %w, i32* %dp, align 4
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 64
  br i1 %c, label %h, label %exit
exit:
  %q = gep [64 x i32]* %b, i32 0, i32 5
  %r = load i32, i32* %q, align 4
  ret i32 %r
}
"""
        scalar = build_module(src)
        vector = scalar.clone()
        run_passes(vector, ["loop-vectorize"])
        s = estimate_throughput(scalar, "x86-64")
        v = estimate_throughput(vector, "x86-64")
        assert v.total_cycles < s.total_cycles

    def test_optimization_improves_throughput(self):
        module = generate_program(ProgramProfile(name="tp", seed=11, segments=7))
        before = estimate_throughput(module, "x86-64").total_cycles
        optimize(module, "O3")
        after = estimate_throughput(module, "x86-64").total_cycles
        assert after < before

    def test_targets_rank_differently(self):
        module = generate_program(ProgramProfile(name="tgt", seed=12, segments=6))
        x = estimate_throughput(module, "x86-64")
        a = estimate_throughput(module, "aarch64")
        assert x.total_cycles != a.total_cycles
