"""Induction-variable analysis shared by the loop passes.

Recognizes the canonical affine IV ``i = phi(start, i + step)`` and, when
the exit compare is affine in it, computes the loop trip count. indvars,
loop-unroll, loop-deletion, loop-idiom and loop-vectorize all key off
:func:`analyze_loop`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...analysis.loops import Loop
from ...ir.instructions import BinaryOp, Branch, ICmp, Phi
from ...ir.module import BasicBlock
from ...ir.types import IntType
from ...ir.values import ConstantInt, Value


@dataclass
class BasicIV:
    """An affine induction variable ``phi(start, phi + step)``."""

    phi: Phi
    start: Value
    step: ConstantInt
    increment: BinaryOp  # the `add` producing the next value


@dataclass
class LoopBounds:
    """Exit condition ``icmp pred (iv | iv.next), bound`` controlling the
    sole exiting block, plus the trip count when it is computable."""

    iv: BasicIV
    compare: ICmp
    predicate: str
    bound: Value
    compares_next: bool  # True if the compare reads iv.next, not iv
    exit_on_false: bool  # True if the loop continues on `true`
    trip_count: Optional[int]  # constant trip count if known


def find_basic_iv(loop: Loop) -> Optional[BasicIV]:
    """Find an IV among the header phis: i = phi(start from outside,
    add(i, C) from the latch).

    The entry edge requirement is a *unique outside predecessor* — weaker
    than a canonical preheader, so analysis (trip counts, block
    frequencies) stays accurate even after simplifycfg folds empty
    preheaders away. Transformation passes impose their own, stricter
    preheader checks.
    """
    latch = loop.single_latch
    if latch is None:
        return None
    outside = [p for p in loop.header.predecessors() if not loop.contains(p)]
    if len(outside) != 1:
        return None
    entry_pred = outside[0]
    for phi in loop.header.phis():
        if phi.num_incoming != 2 or not isinstance(phi.type, IntType):
            continue
        start = phi.incoming_for_block(entry_pred)
        next_value = phi.incoming_for_block(latch)
        if start is None or next_value is None:
            continue
        if (
            isinstance(next_value, BinaryOp)
            and next_value.opcode == "add"
            and isinstance(next_value.rhs, ConstantInt)
            and next_value.lhs is phi
            and not next_value.rhs.is_zero()
            and loop.contains(next_value.parent)  # type: ignore[arg-type]
        ):
            return BasicIV(phi, start, next_value.rhs, next_value)
    return None


def _compute_trip_count(
    start: Value, step: int, predicate: str, bound: Value, compares_next: bool
) -> Optional[int]:
    """Iterations executed, for constant start/bound. The compare governs
    whether the loop *continues*; iteration k sees iv = start + k*step
    (or iv.next = start + (k+1)*step when ``compares_next``)."""
    if not (isinstance(start, ConstantInt) and isinstance(bound, ConstantInt)):
        return None
    s = start.value
    b = bound.value
    checks = {
        "slt": lambda x: x < b,
        "sle": lambda x: x <= b,
        "sgt": lambda x: x > b,
        "sge": lambda x: x >= b,
        "ne": lambda x: x != b,
        "ult": lambda x: (x & mask) < (b & mask),
        "ule": lambda x: (x & mask) <= (b & mask),
        "ugt": lambda x: (x & mask) > (b & mask),
        "uge": lambda x: (x & mask) >= (b & mask),
    }
    ty = start.int_type
    mask = ty.max_unsigned
    check = checks.get(predicate)
    if check is None:
        return None
    # Simulate up to a bound; loops we care about are modest. Wrapping
    # arithmetic is honoured via ty.wrap. Convention (bottom-test): the
    # body runs, then the check decides whether to take the back edge, so
    # the k-th body execution sees iv = start + (k-1)*step. The returned
    # count is the number of body executions, including the one whose
    # check fails.
    # ty.wrap, inlined: block frequencies run this for every loop.
    full = 1 << ty.bits
    sign_max = ty.max_signed if ty.bits > 1 else mask
    iv = s
    for k in range(1, 1 << 16):
        nxt = (iv + step) & mask
        if nxt > sign_max:
            nxt -= full
        if not check(nxt if compares_next else iv):
            return k
        iv = nxt
    return None


def analyze_loop(loop: Loop) -> Optional[LoopBounds]:
    """Full bounds analysis for single-exiting-block loops."""
    iv = find_basic_iv(loop)
    if iv is None:
        return None
    exiting = loop.exiting_blocks()
    if len(exiting) != 1:
        return None
    block = exiting[0]
    term = block.terminator
    if not isinstance(term, Branch) or not term.is_conditional:
        return None
    cond = term.condition
    if not isinstance(cond, ICmp):
        return None

    if cond.lhs is iv.phi:
        compares_next = False
    elif cond.lhs is iv.increment:
        compares_next = True
    else:
        return None
    bound = cond.rhs

    # Which target leaves the loop?
    true_exits = not loop.contains(term.true_target)
    false_exits = not loop.contains(term.false_target)
    if true_exits == false_exits:
        return None
    exit_on_false = false_exits

    # Normalize: we want the predicate under which the loop CONTINUES.
    predicate = cond.predicate
    if true_exits:
        from ...ir.instructions import INVERTED_PREDICATE

        predicate = INVERTED_PREDICATE[predicate]

    # The bound must be loop-invariant.
    from ...ir.instructions import Instruction

    if isinstance(bound, Instruction) and loop.contains(bound.parent):  # type: ignore[arg-type]
        return None

    # The simulated trip count uses bottom-test semantics (body runs, then
    # the check decides the back edge); it is only meaningful when the
    # exiting block is the latch.
    trip = None
    if block is loop.single_latch:
        trip = _compute_trip_count(
            iv.start, iv.step.value, predicate, bound, compares_next
        )
    return LoopBounds(
        iv=iv,
        compare=cond,
        predicate=predicate,
        bound=bound,
        compares_next=compares_next,
        exit_on_false=exit_on_false,
        trip_count=trip,
    )
