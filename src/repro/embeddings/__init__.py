"""IR2Vec-style program embeddings (the RL state representation)."""

from .ir2vec import (
    IR2VecEncoder,
    W_ARG,
    W_FLOW,
    W_LIVE,
    W_OPCODE,
    W_TYPE,
    program_embedding,
)
from .vocabulary import DIMENSION, Vocabulary, default_vocabulary

__all__ = [
    "DIMENSION",
    "IR2VecEncoder",
    "Vocabulary",
    "W_ARG",
    "W_FLOW",
    "W_LIVE",
    "W_OPCODE",
    "W_TYPE",
    "default_vocabulary",
    "program_embedding",
]
