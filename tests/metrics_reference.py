"""Object-walk reference for the metrics engine.

The oracle the engine's record cache, its flat kernels and the transition
cache are compared against: every measurement runs the per-instruction
object walks (``function_text_size``, ``analyze_function`` +
``_function_call_counts``, ``_compute_function_embedding``) and combines
them with the same module-level helpers the engine uses. A replay clones
the module and applies each action with ``ActionSpace.apply`` — no
fingerprint cache, no transition cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.codegen.objfile import (
    SizeReport,
    _size_from_functions,
    function_text_size,
)
from repro.codegen.target import get_target
from repro.core.environment import ActionSpace, make_action_space
from repro.core.rewards import RewardWeights, combined_reward
from repro.embeddings.ir2vec import IR2VecEncoder, _embedding_from_functions
from repro.ir.fingerprint import module_fingerprint
from repro.ir.module import Module
from repro.mca.ports import get_port_model
from repro.mca.sched import (
    McaSummary,
    _function_call_counts,
    _summary_from_functions,
    analyze_function,
)

_ENCODER = IR2VecEncoder()


def reference_measure(
    module: Module, target: str = "x86-64"
) -> Tuple[SizeReport, McaSummary, np.ndarray]:
    """Size report, MCA summary and state embedding via the object walks."""
    descriptor = get_target(target)
    model = get_port_model(target)
    defined = [fn for fn in module.functions if not fn.is_declaration]
    size = _size_from_functions(
        module, descriptor, [function_text_size(fn, descriptor) for fn in defined]
    )
    mca = _summary_from_functions(module, descriptor.name, {
        fn.name: (analyze_function(fn, descriptor, model),
                  _function_call_counts(fn))
        for fn in defined
    })
    embedding = _embedding_from_functions(
        _ENCODER.dimension,
        [_ENCODER._compute_function_embedding(fn) for fn in defined],
    )
    return size, mca, embedding


@dataclass
class ReferenceStep:
    bin_size: int
    throughput: float
    changed: bool
    reward: float
    state: np.ndarray


@dataclass
class ReferenceReplay:
    base_size: int
    base_throughput: float
    base_state: np.ndarray
    steps: List[ReferenceStep]


def reference_replay(
    module: Module,
    actions: Sequence[int],
    action_space: Optional[ActionSpace] = None,
    target: str = "x86-64",
    weights: Optional[RewardWeights] = None,
) -> ReferenceReplay:
    """Apply ``actions`` one by one to a clone of ``module``, measuring
    after every step. ``changed`` is the structural test the environment
    uses (module fingerprint before vs after)."""
    action_space = action_space or make_action_space("odg")
    weights = weights if weights is not None else RewardWeights()
    current = module.clone()
    size, mca, state = reference_measure(current, target)
    base_size, base_tp = size.total_bytes, mca.throughput
    replay = ReferenceReplay(base_size, base_tp, state, [])
    last_size, last_tp = base_size, base_tp
    fingerprint = module_fingerprint(current)
    for action in actions:
        action_space.apply(action, current)
        after = module_fingerprint(current)
        size, mca, state = reference_measure(current, target)
        new_size, new_tp = size.total_bytes, mca.throughput
        reward = combined_reward(
            last_size, new_size, base_size, last_tp, new_tp, base_tp, weights
        )
        replay.steps.append(ReferenceStep(
            new_size, new_tp, after != fingerprint, reward, state
        ))
        last_size, last_tp, fingerprint = new_size, new_tp, after
    return replay
