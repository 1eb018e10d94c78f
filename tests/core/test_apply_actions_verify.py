"""PosetRL.apply_actions verifies its result and names the bad action;
reusing predict's rollout matches replaying the actions."""

import pytest

from repro import PosetRL
from repro.codegen.objfile import object_size
from repro.ir.fingerprint import module_fingerprint
from repro.ir.verifier import VerificationError, verify_module
from repro.mca.sched import estimate_throughput
from repro.passes.base import run_passes
from repro.testing import FuzzProfile, generate_fuzz_program, modules_equivalent
from repro.workloads import ProgramProfile, generate_program


@pytest.fixture()
def module():
    return generate_program(ProgramProfile(name="av", seed=90, segments=2))


@pytest.fixture()
def agent():
    return PosetRL(seed=0)


def _drop_a_terminator(mod):
    for function in mod.functions:
        for block in function.blocks:
            if block.instructions and block.instructions[-1].is_terminator:
                block.instructions.pop()
                return
    raise AssertionError("no terminator found to drop")


def test_happy_path_returns_verified_module(agent, module):
    result = agent.apply_actions(module, [0, 1, 2])
    verify_module(result)  # does not raise
    assert result is not module  # original untouched
    assert module.instruction_count > 0


def test_broken_action_is_named(agent, module, monkeypatch):
    """If a pass breaks an IR invariant, the error names the offending
    action index and its pass sub-sequence."""
    real_apply = agent.actions.apply

    def sabotaged_apply(action, mod):
        changed = real_apply(action, mod)
        if action == 7:
            _drop_a_terminator(mod)
        return changed

    monkeypatch.setattr(agent.actions, "apply", sabotaged_apply)
    with pytest.raises(ValueError) as excinfo:
        agent.apply_actions(module, [0, 7, 2])
    message = str(excinfo.value)
    assert "action 1" in message
    assert "id 7" in message
    for name in agent.actions.passes_for(7):
        assert name in message
    assert "invalid IR" in message


def test_verify_false_skips_the_check(agent, module, monkeypatch):
    real_apply = agent.actions.apply

    def sabotaged_apply(action, mod):
        changed = real_apply(action, mod)
        _drop_a_terminator(mod)
        return changed

    monkeypatch.setattr(agent.actions, "apply", sabotaged_apply)
    result = agent.apply_actions(module, [0], verify=False)
    assert result is not module


def test_original_module_is_never_mutated(agent, module):
    before = module.instruction_count
    agent.apply_actions(module, list(range(5)))
    assert module.instruction_count == before


# -- reusing predict's rollout ----------------------------------------------
# ``predict`` keeps its rollout's end state; ``apply_actions`` hands it over
# when called on the same (unchanged) input with the same actions. The
# replay below is the oracle that path must match.

FUZZ_SEEDS = [3, 11]
TARGETS = ["x86-64", "aarch64"]


def _fuzz_module(seed):
    return generate_fuzz_program(FuzzProfile(seed=seed))


def _count_pass_runs(agent, monkeypatch):
    """Counts ``ActionSpace.apply`` calls (one per sub-sequence run)."""
    calls = []
    real_apply = agent.actions.apply

    def counting_apply(action, mod):
        calls.append(action)
        return real_apply(action, mod)

    monkeypatch.setattr(agent.actions, "apply", counting_apply)
    return calls


def _same_result(a, b, target):
    assert module_fingerprint(a) == module_fingerprint(b)
    assert object_size(a, target).total_bytes == object_size(b, target).total_bytes
    assert (
        estimate_throughput(a, target).total_cycles
        == estimate_throughput(b, target).total_cycles
    )


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_reused_rollout_matches_replay(seed, target, monkeypatch):
    module = _fuzz_module(seed)
    agent = PosetRL(seed=0, target=target)
    actions = agent.predict(module)
    calls = _count_pass_runs(agent, monkeypatch)
    reused = agent.apply_actions(module, actions)
    assert calls == []  # no sub-sequence re-ran
    replayed = agent.apply_actions(module, actions)
    assert calls == actions  # the second call replays
    assert module_fingerprint(reused) != module_fingerprint(module)
    _same_result(reused, replayed, target)
    assert modules_equivalent(module, reused) is None
    assert reused is not replayed


def test_mutated_input_is_replayed(monkeypatch):
    module = _fuzz_module(3)
    agent = PosetRL(seed=0)
    actions = agent.predict(module)
    before = module_fingerprint(module)
    run_passes(module, ["instcombine", "simplifycfg"])
    assert module_fingerprint(module) != before
    calls = _count_pass_runs(agent, monkeypatch)
    result = agent.apply_actions(module, actions)
    assert calls == actions
    _same_result(result, PosetRL(seed=0).apply_actions(module, actions),
                 "x86-64")


def test_different_actions_are_replayed(monkeypatch):
    module = _fuzz_module(3)
    agent = PosetRL(seed=0)
    actions = agent.predict(module)
    other = [(a + 1) % len(agent.actions) for a in actions]
    calls = _count_pass_runs(agent, monkeypatch)
    result = agent.apply_actions(module, other)
    assert calls == other
    _same_result(result, PosetRL(seed=0).apply_actions(module, other),
                 "x86-64")
    # The mismatch consumed the kept rollout: the original actions now
    # replay too.
    agent.apply_actions(module, actions)
    assert calls == other + actions


def test_reused_module_is_not_aliased_with_the_transition_cache():
    module = _fuzz_module(11)
    agent = PosetRL(seed=0)
    actions = agent.predict(module)
    first = agent.apply_actions(module, actions)
    expected = module_fingerprint(first)
    # Wreck the handed-over module; the cached transitions must not see it.
    for function in first.functions:
        function.blocks.clear()
    again = agent.predict(module)
    assert again == actions
    second = agent.apply_actions(module, again)
    assert module_fingerprint(second) == expected
    verify_module(second)


def test_pass_sabotaged_during_predict_is_named(monkeypatch):
    module = _fuzz_module(3)
    agent = PosetRL(seed=0)
    real_apply = agent.actions.apply

    def sabotaged_apply(action, mod):
        changed = real_apply(action, mod)
        try:
            verify_module(mod)
        except VerificationError:
            return changed  # already broken by an earlier action
        _drop_a_terminator(mod)
        return True

    monkeypatch.setattr(agent.actions, "apply", sabotaged_apply)
    actions = agent.predict(module)
    with pytest.raises(ValueError) as excinfo:
        agent.apply_actions(module, actions)
    message = str(excinfo.value)
    assert f"action 0 (id {actions[0]}" in message
    assert "invalid IR" in message
