"""Block-frequency flow conservation and trip-count awareness, asserted
of the object-walk reference and of the production flat build."""

import pytest

from tests.analysis_reference import BlockFrequency, FlatAnalyses
from tests.conftest import build_module


def test_exit_flow_conserved_through_loop():
    """Code after a loop runs as often as code before it, regardless of
    in-loop branch shapes."""
    module = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %latch ]
  %odd = and i32 %i, 1
  %c0 = icmp ne i32 %odd, 0
  br i1 %c0, label %a, label %b
a:
  br label %latch
b:
  br label %latch
latch:
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, %n
  br i1 %c, label %h, label %after
after:
  %r = add i32 %i2, 1
  ret i32 %r
}
"""
    )
    fn = module.get_function("entry")
    blocks = {b.name: b for b in fn.blocks}
    for freq in (BlockFrequency(fn), FlatAnalyses(fn)):
        assert freq.frequency(blocks["after"]) == pytest.approx(
            freq.frequency(blocks["entry"]), rel=0.01
        )


def test_constant_trip_count_drives_frequency():
    src = """
define i32 @entry(i32 %n) {{
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %h ]
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, {trip}
  br i1 %c, label %h, label %out
out:
  ret i32 %i2
}}
"""
    small = build_module(src.format(trip=4))
    large = build_module(src.format(trip=64))
    h_small = next(b for b in small.get_function("entry").blocks if b.name == "h")
    h_large = next(b for b in large.get_function("entry").blocks if b.name == "h")
    for analysis in (BlockFrequency, FlatAnalyses):
        f_small = analysis(small.get_function("entry"))
        f_large = analysis(large.get_function("entry"))
        assert f_small.frequency(h_small) == pytest.approx(4.0)
        assert f_large.frequency(h_large) == pytest.approx(64.0)


def test_nested_loops_multiply_trip_counts():
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
  %jc = icmp slt i32 %j2, 8
  br i1 %jc, label %inner, label %olatch
olatch:
  %i2 = add i32 %i, 1
  %ic = icmp slt i32 %i2, 5
  br i1 %ic, label %outer, label %exit
exit:
  ret i32 %i2
}
"""
    )
    fn = module.get_function("entry")
    blocks = {b.name: b for b in fn.blocks}
    for freq in (BlockFrequency(fn), FlatAnalyses(fn)):
        assert freq.frequency(blocks["inner"]) == pytest.approx(40.0)
        assert freq.frequency(blocks["olatch"]) == pytest.approx(5.0)
        assert freq.frequency(blocks["exit"]) == pytest.approx(1.0, rel=0.01)
