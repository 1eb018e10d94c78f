"""Optional post-optimization semantic check in the serving path.

A policy-chosen pass sequence that miscompiles must not be served. With
``semantic_check=True`` the service runs the differential oracle on the
(original, optimized) pair and falls back to ``-Oz`` on any mismatch;
without it the miscompiled IR goes out the door — both directions are
pinned here using a deliberately broken pass wired into a one-action
policy.
"""

import pytest

from repro.core.environment import ActionSpace, PhaseOrderingEnv
from repro.ir.interp import Interpreter
from repro.ir.parser import parse_module
from repro.passes.base import PASS_REGISTRY
from repro.rl.network import QNetwork
from repro.serving import OptimizationService
from repro.serving import registry as registry_mod
from repro.serving.registry import ModelRegistry

from ..testing.conftest import SwapSubOperandsPass

SUB_TEXT = """\
define i32 @entry(i32 %n) {
entry:
  %d = sub i32 %n, 3
  ret i32 %d
}
"""


@pytest.fixture()
def broken_policy_service(monkeypatch):
    """A service whose only action applies the swap-sub miscompile pass."""
    PASS_REGISTRY[SwapSubOperandsPass.name] = SwapSubOperandsPass
    monkeypatch.setattr(
        registry_mod,
        "make_action_space",
        lambda kind: ActionSpace([[SwapSubOperandsPass.name]]),
    )
    try:
        state_dim = PhaseOrderingEnv(parse_module(SUB_TEXT)).state_dim
        registry = ModelRegistry()
        registry.register(
            QNetwork(state_dim, 1, seed=0),
            action_space="odg",
            episode_length=1,
        )

        def make(**kwargs):
            kwargs.setdefault("batch_window_s", 0.001)
            kwargs.setdefault("include_ir", True)
            return OptimizationService(registry, **kwargs)

        yield make
    finally:
        PASS_REGISTRY.pop(SwapSubOperandsPass.name, None)


class TestSemanticCheck:
    def test_miscompile_triggers_fallback(self, broken_policy_service):
        with broken_policy_service(semantic_check=True) as svc:
            result = svc.optimize(SUB_TEXT, name="guarded")
        assert result.status == "fallback"
        assert result.reason is not None
        assert result.reason.startswith("miscompile")
        # The fallback result is the -Oz pipeline's, which is correct.
        served = parse_module(result.optimized_ir)
        assert Interpreter(served).run("entry", (0,)) == -3

    def test_without_check_miscompiled_ir_is_served(
        self, broken_policy_service
    ):
        """The gap the check closes: unguarded, the wrong IR ships."""
        with broken_policy_service(semantic_check=False) as svc:
            result = svc.optimize(SUB_TEXT, name="unguarded")
        assert result.status == "ok"
        served = parse_module(result.optimized_ir)
        # sub %n, 3 was flipped to sub 3, %n: entry(0) is 3, not -3.
        assert Interpreter(served).run("entry", (0,)) == 3

    def test_clean_policy_result_passes_check(self):
        registry = ModelRegistry()
        state_dim = PhaseOrderingEnv(parse_module(SUB_TEXT)).state_dim
        from repro.core.environment import make_action_space

        registry.register(
            QNetwork(state_dim, len(make_action_space("odg")), seed=0),
            action_space="odg",
            episode_length=2,
        )
        svc = OptimizationService(
            registry, semantic_check=True, include_ir=True,
            batch_window_s=0.001,
        )
        with svc:
            result = svc.optimize(SUB_TEXT, name="clean")
        assert result.status == "ok"
        served = parse_module(result.optimized_ir)
        assert Interpreter(served).run("entry", (7,)) == 4

    def test_verified_results_are_memoized(self, broken_policy_service):
        with broken_policy_service(semantic_check=True) as svc:
            first = svc.optimize(SUB_TEXT, name="a")
            memo_after_first = len(svc._checked)
            second = svc.optimize(SUB_TEXT, name="b")
        # Both fell back; the miscompiled fingerprint is never memoized
        # as verified.
        assert first.status == second.status == "fallback"
        assert memo_after_first == 0

    def test_clean_memo_skips_recheck(self, monkeypatch):
        registry = ModelRegistry()
        state_dim = PhaseOrderingEnv(parse_module(SUB_TEXT)).state_dim
        from repro.core.environment import make_action_space

        registry.register(
            QNetwork(state_dim, len(make_action_space("odg")), seed=0),
            action_space="odg",
            episode_length=2,
        )
        svc = OptimizationService(
            registry, semantic_check=True, include_ir=True,
            batch_window_s=0.001,
        )
        with svc:
            svc.optimize(SUB_TEXT, name="first")
            assert len(svc._checked) == 1
            # A repeat of the same module hits the result cache (or the
            # memo); either way equivalence is not recomputed.
            import repro.testing.oracle as oracle_mod

            def boom(*args, **kwargs):  # pragma: no cover
                raise AssertionError("equivalence recomputed")

            monkeypatch.setattr(oracle_mod, "modules_equivalent", boom)
            repeat = svc.optimize(SUB_TEXT, name="second")
        assert repeat.status == "ok"
