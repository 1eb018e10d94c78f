"""Promotion gate for online-trained candidate models.

A candidate earns promotion only by clearing two independent bars:

1. **Holdout**: greedy rollouts over a fixed holdout suite must score no
   worse than the incumbent on both objectives — mean size reduction and
   mean throughput gain, each within a configurable tolerance (in
   percentage points). The suite never changes between evaluations, so
   scores are directly comparable and fully deterministic.
2. **Fuzz canary**: the candidate's own pass sequences, rolled out on
   seeded fuzz programs, are checked against the reference interpreter
   via :class:`~repro.testing.DifferentialOracle`. Any miscompile,
   verifier error, crash or hang is an immediate rejection — a model
   that triggers the serving guard is worse than one that scores lower.

Both halves share one :class:`~repro.core.metrics.MetricsEngine` per
gate, so the incumbent's rollouts warm the transition cache for every
future candidate evaluated against the same suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.environment import (
    DEFAULT_EPISODE_LENGTH,
    PhaseOrderingEnv,
    greedy_rollout,
    make_action_space,
)
from ..core.metrics import MetricsEngine
from ..ir.module import Module
from ..observability import get_registry
from ..rl.network import QNetwork
from ..testing import DifferentialOracle, FuzzProfile, generate_fuzz_program

DEFAULT_CANARY_SEEDS: Tuple[int, ...] = (1801, 1802, 1803)


def constant_action_network(template: QNetwork, action: int) -> QNetwork:
    """A network whose greedy action is always ``action``.

    All weights are zero except the head bias of the chosen action, so
    every forward yields the same argmax regardless of the state.
    """
    net = QNetwork(
        template.state_dim,
        template.num_actions,
        template.hidden,
        template.learning_rate,
    )
    weights = [np.zeros_like(w) for w in net.get_weights()]
    weights[-1][action] = 1.0
    net.set_weights(weights)
    return net


@dataclass
class HoldoutScore:
    """Mean greedy-rollout score of one network over the holdout suite."""

    size_reduction_pct: float
    throughput_gain_pct: float
    per_module: List[Dict[str, float]] = field(default_factory=list)


@dataclass
class GateVerdict:
    """Outcome of one candidate evaluation."""

    passed: bool
    reasons: List[str] = field(default_factory=list)
    candidate: Optional[HoldoutScore] = None
    incumbent: Optional[HoldoutScore] = None
    canary_checks: int = 0
    canary_failures: int = 0
    details: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "passed": self.passed,
            "reasons": list(self.reasons),
            "canary_checks": self.canary_checks,
            "canary_failures": self.canary_failures,
        }
        if self.candidate is not None:
            out["candidate_size_reduction_pct"] = self.candidate.size_reduction_pct
            out["candidate_throughput_gain_pct"] = (
                self.candidate.throughput_gain_pct
            )
        if self.incumbent is not None:
            out["incumbent_size_reduction_pct"] = self.incumbent.size_reduction_pct
            out["incumbent_throughput_gain_pct"] = (
                self.incumbent.throughput_gain_pct
            )
        out.update(self.details)
        return out


class EvaluationGate:
    """No-worse-than-incumbent holdout check + differential fuzz canary."""

    def __init__(
        self,
        holdout: Sequence[Module],
        *,
        target: str = "x86-64",
        action_space: str = "odg",
        episode_length: int = DEFAULT_EPISODE_LENGTH,
        size_tolerance_pct: float = 0.0,
        throughput_tolerance_pct: float = 0.0,
        canary_seeds: Sequence[int] = DEFAULT_CANARY_SEEDS,
        canary_segments: int = 3,
    ):
        if not holdout:
            raise ValueError("holdout suite must not be empty")
        self.holdout = list(holdout)
        self.target = target
        self.action_space_kind = action_space
        self.space = make_action_space(action_space)
        self.episode_length = episode_length
        self.size_tolerance_pct = size_tolerance_pct
        self.throughput_tolerance_pct = throughput_tolerance_pct
        self.canary_seeds = tuple(canary_seeds)
        self.canary_segments = canary_segments
        # One engine for every rollout the gate ever runs: the incumbent's
        # trajectories warm the transition cache for all later candidates.
        self.engine = MetricsEngine(target=target)
        self._oracle = DifferentialOracle()

    # -- rollouts ------------------------------------------------------------
    def _rollout(
        self, network: QNetwork, module: Module
    ) -> Tuple[List[int], Dict[str, float]]:
        env = PhaseOrderingEnv(
            module,
            action_space=self.space,
            target=self.target,
            episode_length=self.episode_length,
            metrics=self.engine,
        )
        actions = greedy_rollout(
            env,
            lambda s: int(network.predict(np.atleast_2d(s)).argmax(axis=1)[0]),
        )
        score = {
            "size_reduction_pct": 100.0
            * (env.base_size - env.last_size)
            / env.base_size,
            "throughput_gain_pct": 100.0
            * (env.last_throughput - env.base_throughput)
            / env.base_throughput,
        }
        return actions, score

    def holdout_score(self, network: QNetwork) -> HoldoutScore:
        """Mean greedy-rollout score of ``network`` over the holdout suite."""
        per_module: List[Dict[str, float]] = []
        for module in self.holdout:
            _, score = self._rollout(network, module)
            per_module.append(score)
        return HoldoutScore(
            size_reduction_pct=float(
                np.mean([s["size_reduction_pct"] for s in per_module])
            ),
            throughput_gain_pct=float(
                np.mean([s["throughput_gain_pct"] for s in per_module])
            ),
            per_module=per_module,
        )

    # -- fuzz canary ---------------------------------------------------------
    def canary(self, network: QNetwork) -> Tuple[int, int, List[str]]:
        """Differential-check the network's sequences on fuzz programs.

        Returns ``(checks, failures, failure_details)``. The pass list
        checked is exactly what the candidate would emit in serving: the
        concatenated sub-sequences of its greedy rollout on each program.
        """
        checks = 0
        failures = 0
        details: List[str] = []
        for seed in self.canary_seeds:
            profile = FuzzProfile(
                name=f"canary-{seed}", seed=seed, segments=self.canary_segments
            )
            module = generate_fuzz_program(profile)
            actions, _ = self._rollout(network, module)
            passes: List[str] = []
            for action in actions:
                passes.extend(self.space.passes_for(action))
            result = self._oracle.check(module, passes)
            checks += 1
            if result.is_failure:
                failures += 1
                details.append(f"seed {seed}: {result.kind} ({result.detail})")
        return checks, failures, details

    # -- the gate ------------------------------------------------------------
    def evaluate(
        self, candidate: QNetwork, incumbent: QNetwork
    ) -> GateVerdict:
        """Full gate: holdout no-worse-than-incumbent AND clean canary."""
        reasons: List[str] = []
        if candidate.num_actions != len(self.space):
            verdict = GateVerdict(
                passed=False,
                reasons=[
                    f"shape_mismatch: candidate has {candidate.num_actions} "
                    f"actions, gate space {self.action_space_kind!r} has "
                    f"{len(self.space)}"
                ],
            )
            self._publish(verdict)
            return verdict
        cand_score = self.holdout_score(candidate)
        inc_score = self.holdout_score(incumbent)
        if (
            cand_score.size_reduction_pct
            < inc_score.size_reduction_pct - self.size_tolerance_pct
        ):
            reasons.append(
                "holdout_size_regression: "
                f"{cand_score.size_reduction_pct:.3f}% vs incumbent "
                f"{inc_score.size_reduction_pct:.3f}%"
            )
        if (
            cand_score.throughput_gain_pct
            < inc_score.throughput_gain_pct - self.throughput_tolerance_pct
        ):
            reasons.append(
                "holdout_throughput_regression: "
                f"{cand_score.throughput_gain_pct:.3f}% vs incumbent "
                f"{inc_score.throughput_gain_pct:.3f}%"
            )
        checks, canary_failures, canary_details = self.canary(candidate)
        if canary_failures:
            reasons.append(
                f"canary_failure: {canary_failures}/{checks} fuzz programs "
                f"misbehaved ({'; '.join(canary_details)})"
            )
        verdict = GateVerdict(
            passed=not reasons,
            reasons=reasons,
            candidate=cand_score,
            incumbent=inc_score,
            canary_checks=checks,
            canary_failures=canary_failures,
        )
        self._publish(verdict)
        return verdict

    def evaluate_checkpoint(
        self, path: str, incumbent: QNetwork
    ) -> GateVerdict:
        """Gate a candidate straight from its ``.npz`` checkpoint file.

        A checkpoint that fails to load (corrupted, truncated, wrong
        format) is rejected with a ``load_error`` reason rather than
        raising — a broken artifact must never take down the controller.
        """
        try:
            candidate = QNetwork.load(path)
        except Exception as exc:
            verdict = GateVerdict(
                passed=False,
                reasons=[f"load_error: {type(exc).__name__}: {exc}"],
                details={"checkpoint": path},
            )
            self._publish(verdict)
            return verdict
        return self.evaluate(candidate, incumbent)

    def worst_constant_candidate(
        self, template: QNetwork
    ) -> Tuple[QNetwork, int]:
        """The constant-action policy scoring worst on the holdout.

        Deterministic given the holdout suite: used to *inject* a known
        holdout regression and prove the gate rejects it (tests, the
        ``--inject-regression`` CLI path and the CI smoke job).
        ``template`` supplies the network shape (e.g. the incumbent).
        """
        worst: Optional[Tuple[float, int, QNetwork]] = None
        for action in range(len(self.space)):
            net = constant_action_network(template, action)
            score = self.holdout_score(net)
            key = score.size_reduction_pct + score.throughput_gain_pct
            if worst is None or key < worst[0]:
                worst = (key, action, net)
        assert worst is not None
        return worst[2], worst[1]

    def _publish(self, verdict: GateVerdict) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "repro_learning_gate_verdicts_total",
                "promotion gate verdicts",
                labels={"verdict": "pass" if verdict.passed else "fail"},
            ).inc()
