"""Result cache: one ``(fingerprint, model version)`` key per report."""

from repro import PosetRL
from repro.ir.printer import print_module
from repro.serving import OptimizationService
from repro.workloads import ProgramProfile, generate_program


class TestResultCache:
    def test_composite_key_includes_model_version(self):
        text = print_module(
            generate_program(ProgramProfile(name="key", seed=5, segments=1))
        )
        with OptimizationService.from_agent(
            PosetRL(seed=0), batch_window_s=0.001
        ) as svc:
            old = svc.optimize(text)
            svc.registry.register(
                PosetRL(seed=1).agent.online, action_space="odg",
                version="v2",
            )
            svc.registry.activate("v2")
            new = svc.optimize(text)
        cache = svc.result_cache
        assert len(cache) == 2
        assert cache.peek((old.fingerprint, "v1")).model_version == "v1"
        assert cache.peek((new.fingerprint, "v2")).model_version == "v2"
        assert cache.peek((old.fingerprint, "v3")) is None
