"""Flow-aware IR2Vec-style program embeddings.

Follows the IR2Vec construction: an instruction embedding combines its
opcode, type and operand-kind seed vectors with fixed weights
(``Wo=1, Wt=0.5, Wa=0.2``, the published IR2Vec values); flow awareness
mixes in the embeddings of reaching definitions (use-def chains over SSA
plus store→load reaching information); function embeddings sum their
instructions weighted by liveness span; the program embedding sums its
functions (a sum, as in IR2Vec, so magnitude tracks program size — the
signal the size reward pays for); the DQN consumes these as 300-d states.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..codegen.target import X86_64
from ..ir.flat import (
    OPCODE_TABLE,
    OPERAND_KINDS,
    TYPE_KIND_TABLE,
    FlatFunction,
    flat_functions,
)
from ..ir.module import Module
from ..mca.ports import SKYLAKE
from .vocabulary import Vocabulary, default_vocabulary

#: IR2Vec composition weights.
W_OPCODE = 1.0
W_TYPE = 0.5
W_ARG = 0.2
#: Weight of flow (reaching-definition) context.
W_FLOW = 0.2
#: Extra weight per block a value stays live across (liveness emphasis).
W_LIVE = 0.1


def _weighted_reduce(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``Σ weights[i] * rows[i]`` — the function embedding's reduction,
    shared with the test suite's object-walk reference so both produce
    the same bits from the same inputs."""
    return np.add.reduce(weights[:, None] * rows, axis=0)


class IR2VecEncoder:
    """Produces function and program embeddings."""

    def __init__(self, vocabulary: Optional[Vocabulary] = None):
        self.vocab = vocabulary or default_vocabulary()
        self.dimension = self.vocab.dimension
        # Weight-premultiplied operand-kind seeds (Wa·kind), in
        # canonical OPERAND_KINDS order.
        self._kind_vecs = tuple(
            W_ARG * self.vocab.operand_kind(kind) for kind in OPERAND_KINDS
        )
        self._flat_mats: Optional[
            Tuple[Tuple[int, int], np.ndarray, np.ndarray, np.ndarray]
        ] = None

    def _flat_matrices(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vocab rows stacked for gathering by intern code; re-stacked when
        the (append-only) intern tables grow."""
        version = (len(OPCODE_TABLE), len(TYPE_KIND_TABLE))
        mats = self._flat_mats
        if mats is None or mats[0] != version:
            opm = W_OPCODE * np.stack(
                [self.vocab.opcode(name) for name in OPCODE_TABLE.names]
            ) if len(OPCODE_TABLE) else np.zeros((0, self.dimension))
            tym = W_TYPE * np.stack(
                [self.vocab.type_kind(name) for name in TYPE_KIND_TABLE.names]
            ) if len(TYPE_KIND_TABLE) else np.zeros((0, self.dimension))
            kindm = np.stack(self._kind_vecs)
            mats = (version, opm, tym, kindm)
            self._flat_mats = mats
        return mats[1], mats[2], mats[3]

    def flat_function_embedding(self, ff: FlatFunction) -> np.ndarray:
        """Embedding of one function definition from its flat view.

        Level 0, seeds: ``Wo·opcode + Wt·type + Wa·(operand-kind
        counts)``. Instructions with the same opcode, type kind and
        operand-kind counts have the same seed, so each distinct seed is
        computed once — one gather + scaled adds in canonical
        operand-kind order — and gathered per instruction. Level 1, flow:
        each instruction adds ``W_FLOW * seed`` of the SSA defs it reads
        and, for a load, of the stores that may reach it, round by round
        (destinations are unique within a round, and a destination's
        contributions arrive in operand-then-reaching-store order). Level
        2: the sum of instruction embeddings, each weighted by
        ``1 + W_LIVE * (blocks its value is live into)`` (void results
        weigh 1), through :func:`_weighted_reduce`.
        """
        opm, tym, kindm = self._flat_matrices()
        key = np.empty((ff.n_inst, 2 + len(OPERAND_KINDS)), np.int64)
        key[:, 0] = ff.opcodes
        key[:, 1] = ff.type_kinds
        key[:, 2:] = ff.kind_counts
        _, first, seed_of = np.unique(
            key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel(),
            return_index=True,
            return_inverse=True,
        )
        seeds = opm[ff.opcodes[first]]  # the gather makes the accumulator
        seeds += tym[ff.type_kinds[first]]
        counts = ff.kind_counts[first]
        for k in range(kindm.shape[0]):
            seeds += counts[:, k, None] * kindm[k]

        flowed = seeds[seed_of]
        offs = ff.round_offsets.tolist()
        if len(offs) > 1:
            flow_seeds = W_FLOW * seeds
            src = seed_of[ff.flow_src]
            for r in range(len(offs) - 1):
                s, e = offs[r], offs[r + 1]
                flowed[ff.flow_dst[s:e]] += flow_seeds[src[s:e]]

        weights = 1.0 + W_LIVE * ff.live_across
        weights[ff.is_void] = 1.0
        return _weighted_reduce(flowed, weights)

    def program_embedding(self, module: Module) -> np.ndarray:
        """The RL state vector: 300-d, float32.

        As in IR2Vec, the program embedding is the *sum* of function
        embeddings — magnitude therefore scales with program size, which
        is a first-class feature for the size-oriented agent (a mean would
        erase exactly the signal the reward pays for). A constant scale
        keeps values in a comfortable range for the Q-network. The
        embedding does not depend on the target; the views are built for
        x86-64.
        """
        return _embedding_from_functions(self.dimension, [
            self.flat_function_embedding(ff)
            for ff in flat_functions(module, X86_64, SKYLAKE)
        ])


def _embedding_from_functions(
    dimension: int, per_fn: List[np.ndarray]
) -> np.ndarray:
    """Sum function embeddings (defined functions, module order) into the
    scaled float32 program embedding."""
    total = np.zeros(dimension)
    for vec in per_fn:
        total += vec
    return (total / 100.0).astype(np.float32)


_DEFAULT_ENCODER = IR2VecEncoder()


def program_embedding(module: Module) -> np.ndarray:
    """Encode a module with the default vocabulary."""
    return _DEFAULT_ENCODER.program_embedding(module)
