"""Property test: printer and parser are exact inverses.

For arbitrary generated programs (workload and fuzz generators, many
seeds), ``parse(print(m))`` must reproduce the module exactly: identical
re-printed text, identical structural fingerprint, identical interpreter
behaviour — including through an optimization pipeline.
"""

import pytest

from repro.ir.fingerprint import module_fingerprint
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from repro.passes.base import run_passes
from repro.testing import FuzzProfile, generate_fuzz_program, observe_module
from repro.workloads import ProgramProfile, generate_program

WORKLOAD_SEEDS = [0, 1, 7, 23]
FUZZ_SEEDS = [0, 3, 11, 42, 99]


def assert_roundtrip(module):
    text = print_module(module)
    reparsed = parse_module(text)
    verify_module(reparsed)
    # Fixed point: printing the reparsed module reproduces the text.
    assert print_module(reparsed) == text
    # Structural identity, not just textual.
    assert module_fingerprint(reparsed) == module_fingerprint(module)


@pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
def test_workload_programs_roundtrip(seed):
    module = generate_program(
        ProgramProfile(name=f"rt{seed}", seed=seed, segments=4)
    )
    assert_roundtrip(module)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_programs_roundtrip(seed):
    assert_roundtrip(generate_fuzz_program(FuzzProfile(seed=seed)))


@pytest.mark.parametrize("seed", FUZZ_SEEDS[:3])
def test_optimized_fuzz_programs_roundtrip(seed):
    """Round-trip still holds for pass-pipeline output (optimizers emit
    constructs the generators never do, e.g. folded constants)."""
    module = generate_fuzz_program(FuzzProfile(seed=seed))
    run_passes(module, ["instcombine", "gvn", "simplifycfg", "dce"])
    verify_module(module)
    assert_roundtrip(module)


@pytest.mark.parametrize("seed", FUZZ_SEEDS[:2])
def test_roundtrip_preserves_behaviour(seed):
    module = generate_fuzz_program(FuzzProfile(seed=seed))
    reparsed = parse_module(print_module(module))
    for args in ((0,), (7,), (-3,)):
        assert observe_module(reparsed, args=args) == \
            observe_module(module, args=args)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_clone_prints_like_its_source(seed):
    """Cloning keeps local names: a clone (and a clone of a clone) prints
    exactly like its source and round-trips through the parser."""
    module = generate_fuzz_program(FuzzProfile(seed=seed))
    run_passes(module, ["instcombine", "gvn", "simplifycfg", "dce"])
    text = print_module(module)
    clone = module.clone()
    assert print_module(clone) == text
    assert print_module(clone.clone()) == text
    assert_roundtrip(clone)
