"""Deeper encoder properties: sum semantics, flow weights, components."""

import numpy as np

from repro.embeddings import (
    W_ARG,
    W_FLOW,
    W_OPCODE,
    W_TYPE,
    program_embedding,
)
from repro.embeddings.vocabulary import default_vocabulary
from tests.conftest import build_module
from tests.metrics_reference import ReferenceEncoder


def test_ir2vec_weights_match_published_values():
    # IR2Vec's published composition weights.
    assert W_OPCODE == 1.0
    assert W_TYPE == 0.5
    assert W_ARG == 0.2


def test_program_embedding_scales_with_size():
    """Sum semantics: duplicating the work grows the embedding norm."""
    small = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  %a = add i32 %n, 1
  ret i32 %a
}
"""
    )
    body = "\n".join(f"  %a{i} = add i32 %n, {i}" for i in range(20))
    big = build_module(
        f"""
define i32 @entry(i32 %n) {{
entry:
{body}
  ret i32 %a19
}}
"""
    )
    assert np.linalg.norm(program_embedding(big)) > np.linalg.norm(
        program_embedding(small)
    )


def test_seed_instruction_composition():
    module = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  %a = add i32 %n, 1
  ret i32 %a
}
"""
    )
    encoder = ReferenceEncoder()
    vocab = default_vocabulary()
    fn = module.get_function("entry")
    add = fn.entry.instructions[0]
    seed = encoder.seed_instruction(add)
    expected = (
        W_OPCODE * vocab.opcode("add")
        + W_TYPE * vocab.type_kind("int32")
        + W_ARG * vocab.operand_kind("argument")
        + W_ARG * vocab.operand_kind("constant")
    )
    assert np.allclose(seed, expected)


def test_flow_component_mixes_reaching_defs():
    """A load's embedding includes the reaching store's embedding."""
    module = build_module(
        """
define i32 @entry(i32 %n) {
entry:
  %p = alloca i32, align 4
  store i32 %n, i32* %p, align 4
  %v = load i32, i32* %p, align 4
  ret i32 %v
}
"""
    )
    encoder = ReferenceEncoder()
    fn = module.get_function("entry")
    flowed = encoder.function_instruction_embeddings(fn)
    insts = fn.entry.instructions
    store = insts[1]
    load = insts[2]
    seed_load = encoder.seed_instruction(load)
    # flowed(load) = seed(load) + W_FLOW * seed(pointer-def) + W_FLOW * seed(store)
    contribution = flowed[id(load)] - seed_load
    seed_store = encoder.seed_instruction(store)
    # Strip the alloca (pointer operand def) part to isolate the store flow.
    seed_alloca = encoder.seed_instruction(insts[0])
    residue = contribution - W_FLOW * seed_alloca - W_FLOW * seed_store
    assert np.allclose(residue, 0.0, atol=1e-9)


def test_opcode_mix_dominates_similarity():
    """Programs with the same opcode histogram embed closer than programs
    with different ones (a sanity property of the representation)."""
    a1 = build_module(
        "define i32 @entry(i32 %n) {\nentry:\n  %x = add i32 %n, 1\n  %y = add i32 %x, 2\n  ret i32 %y\n}"
    )
    a2 = build_module(
        "define i32 @entry(i32 %n) {\nentry:\n  %x = add i32 %n, 9\n  %y = add i32 %x, 4\n  ret i32 %y\n}"
    )
    b = build_module(
        "define i32 @entry(i32 %n) {\nentry:\n  %p = alloca i32, align 4\n  store i32 %n, i32* %p, align 4\n  %x = load i32, i32* %p, align 4\n  ret i32 %x\n}"
    )
    ea1, ea2, eb = map(program_embedding, (a1, a2, b))

    def dist(u, v):
        return float(np.linalg.norm(u - v))

    assert dist(ea1, ea2) < dist(ea1, eb)
