"""Optimization-as-a-service: the deployed face of POSET-RL.

The training side of this repo produces a policy; this package serves it.
:class:`OptimizationService` accepts concurrent textual-IR requests,
micro-batches the greedy rollouts of all in-flight sessions into one
Q-network forward per tick, memoizes full reports in a fingerprint-keyed
result cache, and guards every request with timeouts, result
verification and automatic ``-Oz`` fallback. :class:`ModelRegistry`
provides versioned checkpoints with atomic hot reload.

One service is one process; :class:`ShardedGateway` scales out
horizontally — N worker subprocesses, each a full service, behind a
front door owning admission control (bounded in-flight window,
per-tenant token buckets) and fingerprint-affine routing so repeat
traffic keeps hitting warm shard caches. :func:`run_load` (closed-loop)
and :func:`run_open_loop` (Poisson open-loop with bursts and tenant
mixes) are the harnesses behind ``python -m repro.tools.serve``.

See ``docs/SERVING.md`` for the architecture and measured numbers.
"""

from .gateway import (
    GatewayStats,
    ShardSpec,
    ShardedGateway,
    TokenBucket,
    shard_for_fingerprint,
)
from .loadgen import (
    LoadReport,
    OpenLoopReport,
    TenantMix,
    request_pool,
    run_load,
    run_open_loop,
)
from .registry import ModelRegistry, RegisteredModel
from .service import (
    OptimizationService,
    OptimizeRequest,
    OptimizeResult,
    text_key,
)

__all__ = [
    "GatewayStats",
    "LoadReport",
    "ModelRegistry",
    "OpenLoopReport",
    "OptimizationService",
    "OptimizeRequest",
    "OptimizeResult",
    "RegisteredModel",
    "ShardSpec",
    "ShardedGateway",
    "TenantMix",
    "TokenBucket",
    "request_pool",
    "run_load",
    "run_open_loop",
    "shard_for_fingerprint",
    "text_key",
]
