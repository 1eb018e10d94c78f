"""POSET-RL core: ODG, action spaces, environment, rewards, agent facade."""

from .agent_api import PosetRL, TrainStats, TrainThroughput
from .environment import (
    ActionSpace,
    DEFAULT_EPISODE_LENGTH,
    PhaseOrderingEnv,
    StepInfo,
    make_action_space,
)
from .evaluate import (
    BenchmarkResult,
    SuiteSummary,
    evaluate_benchmark,
    evaluate_suite,
    optimize_with_oz,
)
from .extensions import ParameterizedActionSpace, make_parameterized_action_space
from .metrics import (
    MetricsEngine,
    ModuleMetrics,
    Transition,
    TransitionCache,
)
from .odg import DEFAULT_CRITICAL_DEGREE, OzDependenceGraph
from .presets import paper_config, quick_config, scaled_config
from .search import (
    PolicyResult,
    greedy_reward_policy,
    greedy_size_policy,
    greedy_throughput_policy,
    oz_decomposition_policy,
    random_policy,
    rollout_policy,
)
from .rewards import ALPHA, BETA, RewardWeights, binsize_reward, combined_reward, throughput_reward
from .subsequences import (
    MANUAL_SUBSEQUENCES,
    OZ_PASS_SEQUENCE,
    PAPER_ODG_SUBSEQUENCES,
    flags_to_passes,
)

__all__ = [
    "ALPHA",
    "ActionSpace",
    "BETA",
    "BenchmarkResult",
    "DEFAULT_CRITICAL_DEGREE",
    "DEFAULT_EPISODE_LENGTH",
    "MANUAL_SUBSEQUENCES",
    "MetricsEngine",
    "ModuleMetrics",
    "OZ_PASS_SEQUENCE",
    "OzDependenceGraph",
    "PAPER_ODG_SUBSEQUENCES",
    "ParameterizedActionSpace",
    "PhaseOrderingEnv",
    "PolicyResult",
    "PosetRL",
    "RewardWeights",
    "StepInfo",
    "SuiteSummary",
    "TrainStats",
    "TrainThroughput",
    "Transition",
    "TransitionCache",
    "binsize_reward",
    "combined_reward",
    "evaluate_benchmark",
    "evaluate_suite",
    "flags_to_passes",
    "greedy_reward_policy",
    "greedy_size_policy",
    "greedy_throughput_policy",
    "oz_decomposition_policy",
    "random_policy",
    "rollout_policy",
    "make_action_space",
    "make_parameterized_action_space",
    "optimize_with_oz",
    "paper_config",
    "quick_config",
    "scaled_config",
    "throughput_reward",
]
