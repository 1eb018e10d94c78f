"""Flat-build analyses against the object analyses they mirror.

``build_flat_function`` computes block frequencies, liveness, reaching
stores and call edges on the integer CFG it gathers in its one walk over
the IR. The object analyses in ``tests/analysis_reference.py`` are the
reference: every field here must equal (``==``/``array_equal``) what
they compute, on fuzz modules for both targets — raw, after ``O1``/``Oz``
and after a seeded random path of ODG actions.
"""

import tracemalloc

import numpy as np
import pytest

from repro.analysis.loops import LoopInfo
from repro.codegen.target import get_target
from repro.core.environment import make_action_space
from repro.ir import parse_module
from repro.ir.flat import build_flat_function
from repro.ir.instructions import Branch, Call, Load
from repro.mca.ports import get_port_model
from repro.passes import build_pipeline
from repro.testing.generator import FuzzProfile, generate_fuzz_program
from tests.analysis_reference import BlockFrequency, Liveness, ReachingStores

FUZZ_SEEDS = range(6)
TARGETS = ("x86-64", "aarch64")
VARIANTS = ("raw", "O1", "Oz", "odg-path")
#: Actions on the random ODG path (one episode's worth).
PATH_LENGTH = 15

CASES = [
    pytest.param(seed, variant, target, id=f"seed{seed}-{variant}-{target}")
    for seed in FUZZ_SEEDS
    for variant in VARIANTS
    for target in TARGETS
]


def _variant(seed, variant):
    module = generate_fuzz_program(FuzzProfile(seed=seed))
    if variant in ("O1", "Oz"):
        build_pipeline(variant).run(module)
    elif variant == "odg-path":
        space = make_action_space("odg")
        rng = np.random.RandomState(seed)
        for action in rng.randint(len(space), size=PATH_LENGTH):
            space.apply(int(action), module)
    return module


@pytest.fixture(scope="module")
def built():
    """``(seed, variant, target) -> [(fn, flat view)]``, each module
    generated once per test module."""
    modules = {}

    def get(seed, variant, target):
        module = modules.get((seed, variant))
        if module is None:
            module = modules[(seed, variant)] = _variant(seed, variant)
        descriptor, model = get_target(target), get_port_model(target)
        return [
            (fn, build_flat_function(fn, descriptor, model))
            for fn in module.functions
            if not fn.is_declaration
        ]

    return get


def _insts(fn):
    return [inst for block in fn.blocks for inst in block.instructions]


def check_block_frequencies(fn, ff):
    freq = BlockFrequency(fn)
    expected = np.array([freq.frequency(b) for b in fn.blocks])
    assert np.array_equal(ff.freqs, expected), fn.name


def check_liveness(fn, ff):
    live = Liveness(fn)
    expected = np.array(
        [live.live_across_blocks(inst) for inst in _insts(fn)], float
    )
    assert np.array_equal(ff.live_across, expected), fn.name
    assert ff.max_pressure == live.max_pressure(), fn.name


def check_flow_edges(fn, ff):
    """Per destination: its SSA-def operands in operand order, then (for
    a load) its reaching stores in the order the object analysis lists
    them. Each round holds one edge per destination, in instruction
    order."""
    insts = _insts(fn)
    index = {id(inst): k for k, inst in enumerate(insts)}
    reaching = ReachingStores(fn)
    expected = []
    for inst in insts:
        srcs = [index[id(op)] for op in inst.operands if id(op) in index]
        if isinstance(inst, Load):
            srcs += [index[id(s)] for s in reaching.stores_for(inst)]
        expected.append(srcs)

    got = [[] for _ in insts]
    offs = ff.round_offsets.tolist()
    for r in range(len(offs) - 1):
        dst = ff.flow_dst[offs[r] : offs[r + 1]]
        assert (np.diff(dst) > 0).all()
        src = ff.flow_src[offs[r] : offs[r + 1]]
        for d, s in zip(dst.tolist(), src.tolist()):
            assert len(got[d]) == r
            got[d].append(s)
    assert got == expected, fn.name


def check_call_edges(fn, ff):
    freq = BlockFrequency(fn)
    expected = []
    for inst in _insts(fn):
        callee = inst.called_function if isinstance(inst, Call) else None
        if callee is not None and not callee.is_intrinsic:
            expected.append((callee.name, freq.frequency(inst.parent)))
    assert ff.call_edges == expected, fn.name


@pytest.mark.parametrize("seed,variant,target", CASES)
class TestAgainstObjectAnalyses:
    def test_block_frequencies(self, built, seed, variant, target):
        for fn, ff in built(seed, variant, target):
            check_block_frequencies(fn, ff)

    def test_liveness(self, built, seed, variant, target):
        for fn, ff in built(seed, variant, target):
            check_liveness(fn, ff)

    def test_flow_edges(self, built, seed, variant, target):
        for fn, ff in built(seed, variant, target):
            check_flow_edges(fn, ff)

    def test_call_edges(self, built, seed, variant, target):
        for fn, ff in built(seed, variant, target):
            check_call_edges(fn, ff)


#: CFG shapes the generated programs do not produce: nested loops with
#: constant trip counts, a two-latch loop, a conditional branch with both
#: targets equal, a switch with a repeated target and an unreachable
#: block.
EDGE_CASES = """
declare void @sink(i32)

define i32 @edges(i32 %n) {
entry:
  %p = alloca i32, align 4
  store i32 0, i32* %p, align 4
  br label %outer
outer:
  %i = phi i32 [ 0, %entry ], [ %i2, %outer_latch ]
  br label %inner
inner:
  %j = phi i32 [ 0, %outer ], [ %j2, %inner ]
  %v = load i32, i32* %p, align 4
  %w = add i32 %v, %j
  store i32 %w, i32* %p, align 4
  %j2 = add i32 %j, 1
  %cj = icmp slt i32 %j2, 7
  br i1 %cj, label %inner, label %outer_latch
outer_latch:
  call void @sink(i32 %i)
  %i2 = add i32 %i, 1
  %ci = icmp slt i32 %i2, 5
  br i1 %ci, label %outer, label %multi
multi:
  %k = phi i32 [ 0, %outer_latch ], [ %k2, %left ], [ %k2, %right ]
  %k2 = add i32 %k, 1
  %ck = icmp slt i32 %k2, %n
  br i1 %ck, label %split, label %dup
split:
  %odd = and i32 %k2, 1
  %co = icmp eq i32 %odd, 0
  br i1 %co, label %left, label %right
left:
  br label %multi
right:
  store i32 %k2, i32* %p, align 4
  br label %multi
dup:
  %cd = icmp sgt i32 %n, 3
  br i1 %cd, label %sw, label %sw
sw:
  switch i32 %n, label %exit [ i32 1, label %exit  i32 2, label %case2 ]
case2:
  call void @sink(i32 %n)
  br label %exit
dead:
  %x = load i32, i32* %p, align 4
  br label %exit
exit:
  %r = load i32, i32* %p, align 4
  ret i32 %r
}
"""


@pytest.mark.parametrize("weights", [None, [2000, 1]], ids=["plain", "weighted"])
def test_cfg_edge_cases(weights):
    module = parse_module(EDGE_CASES)
    fn = module.get_function("edges")
    if weights is not None:
        for block in fn.blocks:
            term = block.terminator
            if isinstance(term, Branch) and term.is_conditional:
                term.meta["branch_weights"] = list(weights)
    loops = LoopInfo(fn).loops
    assert any(loop.parent is not None for loop in loops)
    assert any(len(loop.latches) == 2 for loop in loops)
    for target in TARGETS:
        ff = build_flat_function(fn, get_target(target), get_port_model(target))
        check_block_frequencies(fn, ff)
        check_liveness(fn, ff)
        check_flow_edges(fn, ff)
        check_call_edges(fn, ff)
    inner = next(k for k, b in enumerate(fn.blocks) if b.name == "inner")
    assert ff.freqs[inner] == 35.0  # 7 inner x 5 outer iterations


def test_cases_exercise_every_analysis(built):
    """The comparison above is not vacuous: the cases hold loops with
    derived trip counts, loads with several reaching stores, values live
    across blocks and direct calls."""
    trips = multi_store = live = calls = 0
    for seed in FUZZ_SEEDS:
        for variant in VARIANTS:
            for fn, ff in built(seed, variant, TARGETS[0]):
                trips += len(set(ff.freqs.tolist()) - {0.0, 1.0, 10.0})
                reaching = ReachingStores(fn)
                multi_store += sum(
                    len(reaching.stores_for(inst)) >= 2
                    for inst in _insts(fn)
                    if isinstance(inst, Load)
                )
                live += int((ff.live_across > 0).sum())
                calls += len(ff.call_edges)
    assert trips and multi_store and live and calls


def _chain_function(n_blocks, adds_per_block):
    """One function of ``n_blocks`` blocks in a chain, each adding to the
    previous block's value and to an entry value live throughout."""
    lines = [
        "define i32 @chain(i32 %n) {",
        "entry:",
        "  %base = add i32 %n, 1",
        "  br label %b0",
    ]
    prev = "%base"
    for b in range(n_blocks):
        lines.append(f"b{b}:")
        for k in range(adds_per_block):
            lines.append(f"  %v{b}_{k} = add i32 {prev}, %base")
            prev = f"%v{b}_{k}"
        lines.append(f"  %c{b} = icmp slt i32 {prev}, %n")
        nxt = f"b{b + 1}" if b + 1 < n_blocks else "exit"
        lines.append(f"  br i1 %c{b}, label %{nxt}, label %exit")
    lines += ["exit:", "  ret i32 %base", "}"]
    module = parse_module("\n".join(lines))
    return module, module.get_function("chain")


def test_build_memory_is_not_blocks_times_instructions():
    """Liveness runs on bitsets: building a large function must not
    allocate ``n_blocks x n_inst`` matrices. The bound is two bytes per
    (block, instruction) cell; five boolean matrices take five."""
    _module, fn = _chain_function(n_blocks=1000, adds_per_block=5)
    n_blocks = len(fn.blocks)
    n_inst = sum(len(b.instructions) for b in fn.blocks)
    descriptor, model = get_target("x86-64"), get_port_model("x86-64")
    tracemalloc.start()
    try:
        ff = build_flat_function(fn, descriptor, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n_blocks * n_inst
    # Same answers as the object analysis on this shape too; %base is
    # live into every block but the entry.
    check_liveness(fn, ff)
    assert ff.live_across[0] == n_blocks - 1
