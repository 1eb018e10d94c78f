"""Structural fingerprints: clone-stability, mutation sensitivity,
module-level order-insensitivity, and equality with the token-join
reference in ``tests/fingerprint_reference.py``."""

import pytest

from repro.ir import (
    Function,
    FunctionType,
    I32,
    IRBuilder,
    Module,
    function_fingerprint,
    module_fingerprint,
    parse_module,
)
from repro.ir.instructions import BinaryOp, Load, Store
from repro.passes import build_pipeline, run_passes
from repro.testing.generator import FuzzProfile, generate_fuzz_program
from repro.workloads import ProgramProfile, generate_program, load_suite
from tests.fingerprint_reference import streaming_function_fingerprint


@pytest.fixture(scope="module")
def module():
    return generate_program(ProgramProfile(name="fp", seed=11, segments=6))


def build_simple(name="f", flip=False):
    m = Module("m")
    fn = Function(m, name, FunctionType(I32, [I32]))
    b = IRBuilder(fn.add_block("entry"))
    x = fn.args[0]
    y = b.add(x, IRBuilder.const_int(I32, 2 if flip else 1), name="y")
    z = b.mul(y, x, name="z")
    b.ret(z)
    return m


class TestCloneStability:
    def test_module_clone_has_equal_fingerprint(self, module):
        assert module_fingerprint(module.clone()) == module_fingerprint(module)

    def test_function_clone_has_equal_fingerprint(self, module):
        clone = module.clone()
        for orig, copy in zip(module.functions, clone.functions):
            assert function_fingerprint(orig) == function_fingerprint(copy)

    def test_fingerprint_ignores_local_names(self):
        # Identical structure with different local names must hash
        # identically (passes and parsers name values differently).
        a = build_simple()
        b = a.clone()
        for index, inst in enumerate(b.functions[0].instructions()):
            if not inst.type.is_void:
                inst.name = f"renamed{index}"
        for inst, renamed in zip(
            a.functions[0].instructions(), b.functions[0].instructions()
        ):
            if not inst.type.is_void:
                assert inst.name != renamed.name
        assert module_fingerprint(a) == module_fingerprint(b)

    def test_print_parse_roundtrip_preserves_fingerprint(self, module):
        from repro.ir import print_module

        parsed = parse_module(print_module(module))
        assert module_fingerprint(parsed) == module_fingerprint(module)


class TestMutationSensitivity:
    def test_constant_change(self):
        assert module_fingerprint(build_simple()) != module_fingerprint(
            build_simple(flip=True)
        )

    def test_operand_swap(self, module):
        clone = module.clone()
        fn = clone.defined_functions()[0]
        for inst in fn.instructions():
            if isinstance(inst, BinaryOp) and inst.lhs is not inst.rhs:
                lhs, rhs = inst.lhs, inst.rhs
                inst.set_operand(0, rhs)
                inst.set_operand(1, lhs)
                break
        else:
            pytest.skip("no asymmetric binary op in workload")
        assert module_fingerprint(clone) != module_fingerprint(module)

    def test_instruction_removal(self, module):
        clone = module.clone()
        before = module_fingerprint(clone)
        changed = run_passes(clone, ["dce", "simplifycfg", "instcombine"])
        if not changed:
            pytest.skip("workload already in normal form")
        assert module_fingerprint(clone) != before

    def test_optimization_changes_fingerprint(self, module):
        clone = module.clone()
        before = module_fingerprint(clone)
        build_pipeline("Oz").run(clone)
        assert module_fingerprint(clone) != before

    def test_attribute_change(self, module):
        clone = module.clone()
        fn = clone.defined_functions()[0]
        before = function_fingerprint(fn)
        fn.add_attribute("readnone")
        assert function_fingerprint(fn) != before

    def test_callee_attribute_flows_into_caller(self):
        m = Module("m")
        callee = Function(m, "callee", FunctionType(I32, [I32]))
        bc = IRBuilder(callee.add_block("entry"))
        bc.ret(bc.add(callee.args[0], IRBuilder.const_int(I32, 1)))
        caller = Function(m, "caller", FunctionType(I32, [I32]))
        b = IRBuilder(caller.add_block("entry"))
        b.ret(b.call(callee, [caller.args[0]], name="c"))
        before = function_fingerprint(caller)
        # The callee's effect attributes change the caller's alias/DCE
        # facts, so the caller's fingerprint must change too.
        callee.add_attribute("readnone")
        assert function_fingerprint(caller) != before

    def test_alignment_change(self, module):
        clone = module.clone()
        for fn in clone.defined_functions():
            for inst in fn.instructions():
                if isinstance(inst, (Load, Store)):
                    before = function_fingerprint(fn)
                    inst.alignment *= 2
                    assert function_fingerprint(fn) != before
                    return
        pytest.skip("no load/store in workload")


class TestModuleLevel:
    def test_function_order_insensitive(self, module):
        clone = module.clone()
        before = module_fingerprint(clone)
        clone.functions.reverse()
        assert module_fingerprint(clone) == before

    def test_global_order_insensitive(self, module):
        clone = module.clone()
        if len(clone.globals) < 2:
            pytest.skip("needs at least two globals")
        before = module_fingerprint(clone)
        clone.globals.reverse()
        assert module_fingerprint(clone) == before

    def test_distinct_programs_differ(self):
        a = generate_program(ProgramProfile(name="a", seed=1, segments=4))
        b = generate_program(ProgramProfile(name="b", seed=2, segments=4))
        assert module_fingerprint(a) != module_fingerprint(b)

    def test_fingerprint_is_deterministic_across_calls(self, module):
        assert module_fingerprint(module) == module_fingerprint(module)


def _reference_corpus():
    programs = [
        program for suite_name in ("mibench", "spec2006", "spec2017")
        for program in load_suite(suite_name)
    ]
    assert len(programs) == 28  # the validation programs
    programs += [
        (f"fuzz{seed}", generate_fuzz_program(FuzzProfile(seed=seed)))
        for seed in range(8)
    ]
    return programs


def test_packed_fingerprint_equals_streaming_reference():
    """The packed-row digest equals the token-join reference for every
    function, raw and after -Oz, declarations included."""
    declarations = 0
    for name, module in _reference_corpus():
        oz = module.clone()
        build_pipeline("Oz").run(oz)
        for variant in (module, oz):
            for fn in variant.functions:
                declarations += fn.is_declaration
                assert function_fingerprint(fn) == (
                    streaming_function_fingerprint(fn)
                ), (name, fn.name)
    assert declarations > 0
