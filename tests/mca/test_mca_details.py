"""MCA model details: branch overhead, recurrences, externals."""

import pytest

from repro.mca import estimate_throughput
from repro.mca.sched import COND_BRANCH_OVERHEAD, EXTERNAL_CALL_CYCLES
from tests.conftest import build_module
from tests.metrics_reference import block_reports


def test_conditional_branch_overhead_charged():
    cond = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  %c = icmp sgt i32 %n, 0
  br i1 %c, label %a, label %a
a:
  ret i32 %n
}
"""
    )
    for report in block_reports(cond, "entry"):
        assert report.branch_overhead == COND_BRANCH_OVERHEAD


def test_unconditional_branch_has_no_overhead():
    module = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  br label %a
a:
  ret i32 %n
}
"""
    )
    for report in block_reports(module, "entry"):
        assert report.branch_overhead == 0.0


def test_switch_overhead_scales_with_cases():
    module = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  switch i32 %n, label %d [ i32 0, label %a  i32 1, label %b  i32 2, label %c ]
a:
  ret i32 1
b:
  ret i32 2
c:
  ret i32 3
d:
  ret i32 4
}
"""
    )
    for report in block_reports(module, "entry"):
        assert report.branch_overhead == 3 * COND_BRANCH_OVERHEAD


def test_if_conversion_pays_off_in_model():
    """select-based code beats the branchy diamond (no mispredict cost)."""
    branchy = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %m ]
  %acc = phi i32 [ 0, %entry ], [ %a2, %m ]
  %c = icmp sgt i32 %i, 5
  br i1 %c, label %t, label %f
t:
  %x = add i32 %acc, 2
  br label %m
f:
  %y = add i32 %acc, 1
  br label %m
m:
  %a2 = phi i32 [ %x, %t ], [ %y, %f ]
  %i2 = add i32 %i, 1
  %lc = icmp slt i32 %i2, 16
  br i1 %lc, label %h, label %out
out:
  ret i32 %a2
}
"""
    )
    flat = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %h ]
  %acc = phi i32 [ 0, %entry ], [ %a2, %h ]
  %c = icmp sgt i32 %i, 5
  %step = select i1 %c, i32 2, i32 1
  %a2 = add i32 %acc, %step
  %i2 = add i32 %i, 1
  %lc = icmp slt i32 %i2, 16
  br i1 %lc, label %h, label %out
out:
  ret i32 %a2
}
"""
    )
    from repro.ir import run_module

    assert run_module(branchy, "entry", [0])[0] == run_module(flat, "entry", [0])[0]
    b = estimate_throughput(branchy, "x86-64").total_cycles
    f = estimate_throughput(flat, "x86-64").total_cycles
    assert f < b


def test_external_calls_charged():
    with_ext = build_module(
        """
declare i32 @ext(i32)
define i32 @entry(i32 %n) {
entry:
  %r = call i32 @ext(i32 %n)
  ret i32 %r
}
"""
    )
    summary = estimate_throughput(with_ext, "x86-64")
    assert summary.total_cycles >= EXTERNAL_CALL_CYCLES


def test_loop_carried_recurrence_limits_throughput():
    """A serial dependence chain through the loop phi costs more than
    independent per-iteration work of the same size."""
    serial = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  br label %h
h:
  %acc = phi i32 [ 1, %entry ], [ %a3, %h ]
  %i = phi i32 [ 0, %entry ], [ %i2, %h ]
  %a1 = mul i32 %acc, 3
  %a2 = mul i32 %a1, 5
  %a3 = mul i32 %a2, 7
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 32
  br i1 %c, label %h, label %out
out:
  ret i32 %a3
}
"""
    )
    parallel = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  br label %h
h:
  %acc = phi i32 [ 1, %entry ], [ %a3, %h ]
  %i = phi i32 [ 0, %entry ], [ %i2, %h ]
  %a1 = mul i32 %i, 3
  %a2 = mul i32 %i, 5
  %a3 = add i32 %a1, %a2
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 32
  br i1 %c, label %h, label %out
out:
  ret i32 %a3
}
"""
    )
    s = estimate_throughput(serial, "x86-64").total_cycles
    p = estimate_throughput(parallel, "x86-64").total_cycles
    assert s > p
