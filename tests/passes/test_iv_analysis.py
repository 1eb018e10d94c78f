"""Induction-variable and trip-count analysis (passes/loops/iv.py)."""

import random

import pytest

from repro.analysis import LoopInfo
from repro.ir import run_module
from repro.ir.types import I1, I8, I32
from repro.ir.values import ConstantInt
from repro.passes.loops.iv import _compute_trip_count, analyze_loop, find_basic_iv
from tests.conftest import build_module


def _loop(src):
    module = build_module(src)
    fn = module.get_function("entry")
    (loop,) = LoopInfo(fn).loops
    return module, loop


BOTTOM_TEST = """
define i32 @entry(i32 %n) {{
entry:
  br label %h
h:
  %i = phi i32 [ {start}, %entry ], [ %i2, %h ]
  %count = phi i32 [ 0, %entry ], [ %c2, %h ]
  %c2 = add i32 %count, 1
  %i2 = add i32 %i, {step}
  %cmp = icmp {pred} i32 {operand}, {bound}
  br i1 %cmp, label %h, label %exit
exit:
  ret i32 %c2
}}
"""


def make(start=0, step=1, pred="slt", operand="%i2", bound=10):
    return BOTTOM_TEST.format(
        start=start, step=step, pred=pred, operand=operand, bound=bound
    )


class TestFindBasicIV:
    def test_finds_canonical_iv(self):
        _, loop = _loop(make())
        iv = find_basic_iv(loop)
        assert iv is not None
        assert iv.phi.name == "i"
        assert iv.step.value == 1

    def test_finds_negative_step(self):
        _, loop = _loop(make(start=10, step=-1, pred="sgt", bound=0))
        iv = find_basic_iv(loop)
        assert iv is not None and iv.step.value == -1

    def test_no_iv_when_step_not_constant(self):
        _, loop = _loop(
            """
define i32 @entry(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 1, %entry ], [ %i2, %h ]
  %i2 = mul i32 %i, 2
  %c = icmp slt i32 %i2, %n
  br i1 %c, label %h, label %exit
exit:
  ret i32 %i2
}
"""
        )
        assert find_basic_iv(loop) is None


class TestTripCount:
    @pytest.mark.parametrize(
        "kwargs,expected",
        [
            (dict(start=0, step=1, pred="slt", operand="%i2", bound=10), 10),
            (dict(start=0, step=1, pred="ne", operand="%i2", bound=8), 8),
            (dict(start=0, step=2, pred="slt", operand="%i2", bound=10), 5),
            (dict(start=5, step=1, pred="slt", operand="%i2", bound=10), 5),
            (dict(start=0, step=1, pred="sle", operand="%i2", bound=10), 11),
            (dict(start=10, step=-1, pred="sgt", operand="%i2", bound=0), 10),
            # Compare on the phi instead of the increment.
            (dict(start=0, step=1, pred="slt", operand="%i", bound=10), 11),
        ],
    )
    def test_constant_trips_match_execution(self, kwargs, expected):
        module, loop = _loop(make(**kwargs))
        bounds = analyze_loop(loop)
        assert bounds is not None
        assert bounds.trip_count == expected
        # The dynamic body count (%c2 counts executions) must agree.
        executed, _ = run_module(module, "entry", [0])
        assert executed == expected

    def test_runtime_bound_gives_no_constant_trip(self):
        _, loop = _loop(make(bound="%n"))
        bounds = analyze_loop(loop)
        assert bounds is not None
        assert bounds.trip_count is None
        assert bounds.compares_next

    def test_unsigned_predicate(self):
        module, loop = _loop(make(pred="ult", bound=6))
        bounds = analyze_loop(loop)
        assert bounds.trip_count == 6
        assert run_module(module, "entry", [0])[0] == 6

    def test_exit_on_true_orientation(self):
        """Loop continues on false: predicate gets normalized."""
        module, loop = _loop(
            """
define i32 @entry(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %h ]
  %count = phi i32 [ 0, %entry ], [ %c2, %h ]
  %c2 = add i32 %count, 1
  %i2 = add i32 %i, 1
  %cmp = icmp sge i32 %i2, 7
  br i1 %cmp, label %exit, label %h
exit:
  ret i32 %c2
}
"""
        )
        bounds = analyze_loop(loop)
        assert bounds is not None
        assert not bounds.exit_on_false
        assert bounds.trip_count == 7
        assert run_module(module, "entry", [0])[0] == 7

    def test_top_test_loop_has_no_simulated_trip(self):
        """The exiting block is the header, not the latch: the bottom-test
        simulation convention does not apply."""
        _, loop = _loop(
            """
define i32 @entry(i32 %n) {
entry:
  br label %h
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %latch ]
  %cmp = icmp slt i32 %i, 10
  br i1 %cmp, label %latch, label %exit
latch:
  %i2 = add i32 %i, 1
  br label %h
exit:
  ret i32 %i
}
"""
        )
        bounds = analyze_loop(loop)
        assert bounds is not None
        assert bounds.trip_count is None

    def test_works_without_dedicated_preheader(self):
        """A conditional edge into the header (no preheader) must still
        yield trip counts — simplifycfg routinely folds empty preheaders."""
        module = build_module(
            """
define i32 @entry(i32 %n) {
entry:
  %c0 = icmp sgt i32 %n, 0
  br i1 %c0, label %h, label %out
h:
  %i = phi i32 [ 0, %entry ], [ %i2, %h ]
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 12
  br i1 %c, label %h, label %out
out:
  %r = phi i32 [ 0, %entry ], [ %i2, %h ]
  ret i32 %r
}
"""
        )
        fn = module.get_function("entry")
        (loop,) = LoopInfo(fn).loops
        bounds = analyze_loop(loop)
        assert bounds is not None and bounds.trip_count == 12


def _reference_trip_count(start, step, predicate, bound, compares_next):
    """The plain simulation ``_compute_trip_count`` must agree with:
    every value goes through ``IntType.wrap``."""
    s, b = start.value, bound.value
    ty = start.int_type
    mask = ty.max_unsigned
    checks = {
        "slt": lambda x: x < b, "sle": lambda x: x <= b,
        "sgt": lambda x: x > b, "sge": lambda x: x >= b,
        "ne": lambda x: x != b,
        "ult": lambda x: (x & mask) < (b & mask),
        "ule": lambda x: (x & mask) <= (b & mask),
        "ugt": lambda x: (x & mask) > (b & mask),
        "uge": lambda x: (x & mask) >= (b & mask),
    }
    check = checks.get(predicate)
    if check is None:
        return None
    iv = s
    for k in range(1, 1 << 16):
        probe = ty.wrap(iv + step) if compares_next else iv
        if not check(probe):
            return k
        iv = ty.wrap(iv + step)
    return None


def test_trip_count_simulation_matches_wrap_reference():
    """Wrapping, signed and unsigned predicates, both compare operands:
    a seeded sample of 200 cases (a case that never exits runs the full
    65535 steps, so the sample stays small)."""
    rng = random.Random(0)
    values = (0, 1, -1, 3, 7, 100, -100, 127, -128, 255, 1 << 20)
    preds = ("slt", "sle", "sgt", "sge", "ne", "ult", "ule", "ugt",
             "uge", "eq")
    for _ in range(200):
        ty = rng.choice((I1, I8, I8, I32))
        args = (
            ConstantInt(ty, rng.choice(values)),
            rng.choice((1, -1, 3, -7, 64)),
            rng.choice(preds),
            ConstantInt(ty, rng.choice(values)),
            rng.choice((False, True)),
        )
        assert _compute_trip_count(*args) == _reference_trip_count(*args), (
            args
        )
