"""IR2Vec-style embeddings: vocabulary and encoder."""

import numpy as np
import pytest

from repro.embeddings import (
    DIMENSION,
    IR2VecEncoder,
    Vocabulary,
    default_vocabulary,
    program_embedding,
)
from repro.passes import run_passes
from repro.workloads import ProgramProfile, generate_program
from tests.conftest import DIAMOND_MODULE, LOOP_MODULE, build_module
from tests.metrics_reference import function_embedding


class TestVocabulary:
    def test_dimension(self):
        vocab = Vocabulary()
        assert vocab.opcode("add").shape == (DIMENSION,)

    def test_deterministic(self):
        a = Vocabulary().opcode("add")
        b = Vocabulary().opcode("add")
        assert np.array_equal(a, b)

    def test_distinct_entities_nearly_orthogonal(self):
        vocab = default_vocabulary()
        a = vocab.opcode("add")
        b = vocab.opcode("mul")
        cos = float(a @ b)
        assert abs(cos) < 0.3  # high-dim random vectors

    def test_unit_norm(self):
        vocab = default_vocabulary()
        assert np.linalg.norm(vocab.opcode("load")) == pytest.approx(1.0)

    def test_oov_entities_get_vectors(self):
        vocab = Vocabulary()
        vec = vocab.opcode("some-future-opcode")
        assert vec.shape == (DIMENSION,)
        assert np.array_equal(vec, vocab.opcode("some-future-opcode"))


class TestEncoder:
    def test_program_embedding_shape_and_dtype(self, loop_module):
        vec = program_embedding(loop_module)
        assert vec.shape == (300,)  # the paper's dimensionality
        assert vec.dtype == np.float32
        assert np.isfinite(vec).all()

    def test_embedding_deterministic(self, loop_module):
        assert np.array_equal(
            program_embedding(loop_module), program_embedding(loop_module)
        )

    def test_clone_has_same_embedding(self, loop_module):
        assert np.allclose(
            program_embedding(loop_module),
            program_embedding(loop_module.clone()),
        )

    def test_different_programs_differ(self, loop_module, diamond_module):
        a = program_embedding(loop_module)
        b = program_embedding(diamond_module)
        assert not np.allclose(a, b)

    def test_optimization_changes_embedding(self):
        module = generate_program(ProgramProfile(name="e", seed=4, segments=5))
        before = program_embedding(module)
        run_passes(module, ["mem2reg", "instcombine", "simplifycfg", "dce"])
        after = program_embedding(module)
        assert not np.allclose(before, after)

    def test_flow_awareness_distinguishes_data_flow(self):
        """Same multiset of instructions, different use-def wiring."""
        a = build_module(
            """
define i32 @entry(i32 %n) {
entry:
  %x = add i32 %n, 1
  %y = mul i32 %x, 2
  %z = sub i32 %y, 3
  ret i32 %z
}
"""
        )
        b = build_module(
            """
define i32 @entry(i32 %n) {
entry:
  %x = add i32 %n, 1
  %y = mul i32 %n, 2
  %z = sub i32 %x, 3
  ret i32 %z
}
"""
        )
        assert not np.allclose(program_embedding(a), program_embedding(b))

    def test_size_normalization_keeps_magnitudes_bounded(self):
        small = generate_program(ProgramProfile(name="s", seed=1, segments=2))
        large = generate_program(ProgramProfile(name="l", seed=1, segments=14))
        ns = np.linalg.norm(program_embedding(small))
        nl = np.linalg.norm(program_embedding(large))
        assert 0.05 < ns < 50
        assert 0.05 < nl < 50

    def test_function_embedding_of_declaration_is_zero(self):
        module = build_module("declare i32 @ext(i32)\n")
        fn = module.get_function("ext")
        assert np.allclose(function_embedding(fn), 0.0)
        assert np.allclose(program_embedding(module), 0.0)

    def test_custom_vocabulary_dimension(self):
        encoder = IR2VecEncoder(Vocabulary(dimension=64))
        module = build_module(DIAMOND_MODULE)
        assert encoder.program_embedding(module).shape == (64,)
