"""Flat struct-of-arrays IR core: bit-identical equivalence, layout.

The contract under test is exact: every consumer kernel over the flat
view (size, MCA cycles, embeddings), as the metrics engine and the public
measurement functions run them, must produce *bit-identical* results to
the object-walk reference (``tests/metrics_reference.py``), on arbitrary
fuzz-generated modules, before and after pass pipelines mutate them.
Invalidation is per function — mutating one function rebuilds only its
record.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import observability as obs
from repro.codegen.objfile import flat_function_text_size, object_size
from repro.codegen.target import get_target
from repro.core.metrics import FunctionRecord, MetricsEngine
from repro.embeddings.ir2vec import IR2VecEncoder
from repro.ir.fingerprint import module_fingerprint
from repro.ir.flat import FlatFunction, build_flat_function
from repro.mca.ports import get_port_model
from repro.mca.sched import estimate_throughput
from repro.passes import build_pipeline
from repro.testing.generator import FuzzProfile, generate_fuzz_program
from repro.workloads import ProgramProfile, generate_program
from tests.metrics_reference import (
    ReferenceEncoder,
    function_text_size,
    reference_measure,
)

FUZZ_SEEDS = range(8)
TARGETS = ("x86-64", "aarch64")


def _build(fn, target="x86-64"):
    return build_flat_function(fn, get_target(target), get_port_model(target))


def _assert_equivalent(module, target, engine):
    fps = engine.function_fingerprints(module)
    got = engine.measure(module, fps)
    size, mca, embedding = reference_measure(module, target)
    assert got.size_report == size
    assert got.mca == mca
    assert np.array_equal(got.embedding, embedding)
    # The uncached public measurements run the same kernels and combine.
    assert object_size(module, target) == size
    assert estimate_throughput(module, target) == mca
    assert np.array_equal(
        IR2VecEncoder().program_embedding(module), embedding
    )
    assert module_fingerprint(module) == module_fingerprint(module, fps)


class TestEquivalence:
    @pytest.mark.parametrize("target", TARGETS)
    def test_fuzz_modules_bit_identical(self, target):
        engine = MetricsEngine(target)
        for seed in FUZZ_SEEDS:
            module = generate_fuzz_program(FuzzProfile(seed=seed))
            _assert_equivalent(module, target, engine)

    @pytest.mark.parametrize("target", TARGETS)
    def test_after_pass_pipelines(self, target):
        """The same warm engine stays exact as passes mutate the modules."""
        engine = MetricsEngine(target)
        for seed in (0, 3, 5):
            module = generate_fuzz_program(FuzzProfile(seed=seed))
            for pipeline in ("O1", "Oz"):
                clone = module.clone()
                build_pipeline(pipeline).run(clone)
                _assert_equivalent(clone, target, engine)

    def test_generated_program(self):
        module = generate_program(
            ProgramProfile(name="flat-eq", seed=21, segments=12, helpers=4)
        )
        _assert_equivalent(module, "x86-64", MetricsEngine())

    def test_function_embedding_matches_object_path(self):
        """Per-function kernels over the flat view (embedding and text
        size) equal the object walks."""
        encoder = ReferenceEncoder()
        descriptor = get_target("x86-64")
        module = generate_fuzz_program(FuzzProfile(seed=2))
        for fn in module.functions:
            if fn.is_declaration:
                continue
            ff = _build(fn)
            assert np.array_equal(
                encoder.function_embedding(fn),
                encoder.flat_function_embedding(ff),
            )
            assert function_text_size(fn, descriptor) == (
                flat_function_text_size(ff, descriptor)
            )


class TestFlatFunction:
    def test_layout_invariants(self):
        module = generate_fuzz_program(FuzzProfile(seed=1))
        for fn in module.functions:
            if fn.is_declaration:
                continue
            ff = _build(fn)
            assert ff.n_inst == sum(len(b.instructions) for b in fn.blocks)
            assert ff.block_offsets[0] == 0
            assert ff.block_offsets[-1] == ff.n_inst
            assert (np.diff(ff.block_offsets) >= 0).all()
            assert ff.kind_counts.shape == (ff.n_inst, 6)
            assert int(ff.fn_mop_counts.sum()) == int(ff.block_uops.sum())

    def test_view_holds_no_object_ir(self):
        """Every slot is an array, a scalar or plain strings/tuples."""
        module = generate_fuzz_program(FuzzProfile(seed=4))
        fn = next(f for f in module.functions if not f.is_declaration)
        ff = _build(fn)
        allowed = (np.ndarray, int, float, bool, str, np.integer)
        for slot in type(ff).__slots__:
            value = getattr(ff, slot)
            if isinstance(value, list):
                for item in value:
                    items = item if isinstance(item, tuple) else (item,)
                    assert all(isinstance(x, allowed) for x in items), slot
            else:
                assert isinstance(value, allowed), slot

    def test_no_object_ir_retained(self):
        """Cached records must not keep the (cloned) module alive, and no
        flat view outlives the measure that built it."""
        engine = MetricsEngine()
        module = generate_fuzz_program(FuzzProfile(seed=4))
        engine.measure(module)
        refs = [
            weakref.ref(fn) for fn in module.functions if not fn.is_declaration
        ]
        assert refs and len(engine.functions) == len(refs)
        del module
        gc.collect()
        assert all(r() is None for r in refs)
        assert not any(isinstance(o, FlatFunction) for o in gc.get_objects())

    def test_digest_keying_and_reuse(self):
        """Records are keyed by function fingerprint: a clone's identical
        function reuses the very same record without a rebuild."""
        engine = MetricsEngine()
        module = generate_fuzz_program(FuzzProfile(seed=0))
        fn = next(f for f in module.functions if not f.is_declaration)
        fp = engine.function_fingerprints(module)[fn.name]
        engine.measure(module)
        first = engine.functions.peek(fp)
        assert isinstance(first, FunctionRecord)
        builds = engine.flat_builds
        engine.measure(module)
        assert engine.functions.peek(fp) is first
        clone = module.clone()
        assert engine.function_fingerprints(clone)[fn.name] == fp
        engine.measure(clone)
        assert engine.functions.peek(fp) is first
        assert engine.flat_builds == builds


class TestInvalidation:
    def test_mutating_one_function_rebuilds_only_its_rows(self):
        engine = MetricsEngine()
        module = generate_fuzz_program(FuzzProfile(seed=6))
        defined = [f for f in module.functions if not f.is_declaration]
        assert len(defined) > 1
        engine.measure(module)
        assert engine.flat_builds == len(defined)

        target_fn = defined[-1]
        target_fn.blocks[0].instructions[0].meta["flat-test"] = "mutated"
        before = engine.stats()["functions"]
        got = engine.measure(module)
        after = engine.stats()["functions"]

        assert engine.flat_builds == len(defined) + 1
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == len(defined) - 1
        rebuilt = sum(len(b.instructions) for b in target_fn.blocks)
        total = sum(len(b.instructions) for f in defined for b in f.blocks)
        assert engine.flat_row_rebuilds == total + rebuilt

        # Results after the localized rebuild are still exactly the
        # object path's.
        size, mca, embedding = reference_measure(module)
        assert got.size_report == size
        assert got.mca == mca
        assert np.array_equal(got.embedding, embedding)

    def test_unchanged_measure_builds_nothing(self):
        engine = MetricsEngine()
        module = generate_fuzz_program(FuzzProfile(seed=7))
        engine.measure(module)
        builds = engine.flat_builds
        for _ in range(3):
            engine.measure(module)
        assert engine.flat_builds == builds


class TestMetricsEngineIntegration:
    def test_flat_engine_matches_object_engine(self):
        """The engine's flat kernels equal the object walks on every
        field of the measurement."""
        module = generate_fuzz_program(FuzzProfile(seed=3))
        got = MetricsEngine().measure(module.clone())
        size, mca, embedding = reference_measure(module.clone())
        assert got.size == size.total_bytes
        assert got.cycles == mca.total_cycles
        assert got.throughput == mca.throughput
        assert np.array_equal(got.embedding, embedding)
        assert got.size_report == size
        assert got.mca == mca

    def test_stats_expose_flat_core(self):
        module = generate_fuzz_program(FuzzProfile(seed=3))
        engine = MetricsEngine()
        engine.measure(module)
        stats = engine.stats()
        defined = sum(not f.is_declaration for f in module.functions)
        assert stats["flat"]["builds"] == defined
        assert stats["flat"]["row_rebuilds"] > 0

    def test_clear_resets_flat_core(self):
        module = generate_fuzz_program(FuzzProfile(seed=3))
        engine = MetricsEngine()
        engine.measure(module)
        assert engine.stats()["flat"]["builds"] > 0
        engine.clear()
        assert engine.stats()["flat"]["builds"] == 0


class TestObservability:
    @pytest.fixture
    def enabled(self):
        registry, tracer = obs.enable()
        try:
            yield registry, tracer
        finally:
            obs.disable()

    def test_flat_counters_published(self, enabled):
        registry, _ = enabled
        engine = MetricsEngine()
        module = generate_fuzz_program(FuzzProfile(seed=5))
        engine.measure(module)
        defined = sum(not f.is_declaration for f in module.functions)
        assert registry.get_value("repro_ir_flat_builds_total") == defined
        assert (
            registry.get_value("repro_ir_flat_row_rebuilds_total")
            == engine.flat_row_rebuilds
        )
