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

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.liveness import Liveness
from ..analysis.reaching import ReachingStores
from ..ir.flat import (
    OPCODE_TABLE,
    OPERAND_KINDS,
    TYPE_KIND_TABLE,
    FlatFunction,
    operand_kind_code,
    operand_kind_name,
    type_kind_name,
)
from ..ir.instructions import Instruction, Load
from ..ir.module import BasicBlock, Function, Module
from ..ir.types import Type
from ..ir.values import Value
from .vocabulary import DIMENSION, Vocabulary, default_vocabulary

#: IR2Vec composition weights.
W_OPCODE = 1.0
W_TYPE = 0.5
W_ARG = 0.2
#: Weight of flow (reaching-definition) context.
W_FLOW = 0.2
#: Extra weight per block a value stays live across (liveness emphasis).
W_LIVE = 0.1


def _type_kind(ty: Type) -> str:
    return type_kind_name(ty)


def _operand_kind(value: Value) -> str:
    return operand_kind_name(value)


def _weighted_reduce(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``Σ weights[i] * rows[i]`` — the one reduction both the object and
    flat embedding paths share, so a function embedding is the same bits
    no matter which path produced the (identical) inputs."""
    return np.add.reduce(weights[:, None] * rows, axis=0)


class IR2VecEncoder:
    """Produces instruction / function / program embeddings."""

    def __init__(self, vocabulary: Optional[Vocabulary] = None):
        self.vocab = vocabulary or default_vocabulary()
        self.dimension = self.vocab.dimension
        # Weight-premultiplied seed vectors (Wo·opcode, Wt·type, Wa·kind):
        # both the scalar and flat paths consume these products, so the
        # single table multiplication replaces one per accumulation.
        self._opcode_vecs: Dict[str, np.ndarray] = {}
        self._ty_vecs: Dict[str, np.ndarray] = {}
        self._kind_vecs = tuple(
            W_ARG * self.vocab.operand_kind(kind) for kind in OPERAND_KINDS
        )
        self._flat_mats: Optional[
            Tuple[Tuple[int, int], np.ndarray, np.ndarray, np.ndarray]
        ] = None

    # -- level 0: seed (syntactic) embeddings ------------------------------
    def seed_instruction(self, inst: Instruction) -> np.ndarray:
        """Seed = Wo·opcode + Wt·type + Wa·(operand-kind counts).

        Accumulates in place into one preallocated vector, with the vocab
        lookups hoisted into per-encoder tables. Operand contributions add
        in canonical :data:`~repro.ir.flat.OPERAND_KINDS` order (counted,
        not per-operand), the same order the flat gather kernel uses — the
        two paths therefore run the identical float-op sequence.
        """
        opv = self._opcode_vecs.get(inst.opcode)
        if opv is None:
            opv = W_OPCODE * self.vocab.opcode(inst.opcode)
            opv.setflags(write=False)
            self._opcode_vecs[inst.opcode] = opv
        vec = opv.copy()
        kind = _type_kind(inst.type)
        tyv = self._ty_vecs.get(kind)
        if tyv is None:
            tyv = W_TYPE * self.vocab.type_kind(kind)
            tyv.setflags(write=False)
            self._ty_vecs[kind] = tyv
        vec += tyv
        counts = [0.0] * len(OPERAND_KINDS)
        for op in inst.operands:
            counts[operand_kind_code(op)] += 1.0
        for k, kv in enumerate(self._kind_vecs):
            vec += counts[k] * kv
        return vec

    # -- level 1: flow-aware instruction embeddings --------------------------
    def function_instruction_embeddings(
        self, fn: Function
    ) -> Dict[int, np.ndarray]:
        seeds: Dict[int, np.ndarray] = {}
        for inst in fn.instructions():
            seeds[id(inst)] = self.seed_instruction(inst)

        reaching = ReachingStores(fn)
        flowed: Dict[int, np.ndarray] = {}
        for inst in fn.instructions():
            vec = seeds[id(inst)].copy()
            # Use-def flow: embeddings of SSA defs this instruction reads.
            for op in inst.operands:
                if isinstance(op, Instruction) and id(op) in seeds:
                    vec += W_FLOW * seeds[id(op)]
            # Memory flow: stores that may reach a load.
            if isinstance(inst, Load):
                for store in reaching.stores_for(inst):
                    if id(store) in seeds:
                        vec += W_FLOW * seeds[id(store)]
            flowed[id(inst)] = vec
        return flowed

    # -- level 2: function and program embeddings -----------------------------
    def function_embedding(self, fn: Function) -> np.ndarray:
        """Embedding of one function (zeros for a declaration)."""
        if fn.is_declaration:
            return np.zeros(self.dimension)
        return self._compute_function_embedding(fn)

    def _compute_function_embedding(self, fn: Function) -> np.ndarray:
        flowed = self.function_instruction_embeddings(fn)
        liveness = Liveness(fn)
        insts = [inst for block in fn.blocks for inst in block.instructions]
        if not insts:
            return np.zeros(self.dimension)
        rows = np.stack([flowed[id(inst)] for inst in insts])
        weights = np.empty(len(insts))
        for i, inst in enumerate(insts):
            weight = 1.0
            if not inst.type.is_void:
                weight += W_LIVE * liveness.live_across_blocks(inst)
            weights[i] = weight
        return _weighted_reduce(rows, weights)

    # -- flat path ---------------------------------------------------------
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
        """The object embedding as array kernels over a flat view.

        Instructions with the same opcode, type kind and operand-kind
        counts have the same seed, so each distinct seed is computed once
        — one gather + scaled adds in canonical operand-kind order — and
        gathered per instruction. The flow pass adds ``W_FLOW * seed`` to
        each destination round by round (destinations are unique within
        a round, and a destination's contributions arrive in its original
        operand order — the same float-op sequence as the scalar loop);
        the liveness-weighted reduction is the shared
        :func:`_weighted_reduce`. Bit-identical to
        :meth:`_compute_function_embedding` by construction.
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
        keeps values in a comfortable range for the Q-network.
        """
        return _embedding_from_functions(self.dimension, [
            self._compute_function_embedding(fn)
            for fn in module.functions
            if not fn.is_declaration
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


def function_embedding(fn: Function) -> np.ndarray:
    return _DEFAULT_ENCODER.function_embedding(fn)
