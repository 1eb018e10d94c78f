"""One private module per episode.

The transition cache holds metrics only. An env clones the original once
per episode, mutates that clone on every miss, and replays the actions it
took through changed cache hits when it next needs the module; the replay
must reach the env's fingerprint.
"""

import itertools

import numpy as np
import pytest

import repro.core.metrics as metrics_mod
import repro.ir.fingerprint as fingerprint_mod
from repro import PosetRL
from repro.codegen.objfile import object_size
from repro.core import MetricsEngine, PhaseOrderingEnv
from repro.core.environment import ActionSpace
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.ir.types import IntType
from repro.ir.values import GlobalVariable
from repro.mca.sched import estimate_throughput
from repro.passes.base import PASS_REGISTRY, ModulePass, PassManager
from repro.serving import OptimizationService
from repro.testing import modules_equivalent
from repro.workloads import load_suite

CASES = [
    pytest.param(suite, name, target, id=f"{name}-{target}")
    for suite, name in (("mibench", "crc32"), ("spec2006", "429.mcf"))
    for target in ("x86-64", "aarch64")
]


def suite_module(suite, name):
    return dict(load_suite(suite))[name]


def fixed_actions(num_actions, seed=5, length=15):
    rng = np.random.RandomState(seed)
    return [int(rng.randint(num_actions)) for _ in range(length)]


def count_calls(monkeypatch, owner, attr):
    """Wrap ``owner.attr`` (a function or method) to count its calls."""
    calls = []
    real = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


_extra_globals = itertools.count()


def add_global(module):
    """A persistent structural change: an external global no pass drops."""
    module.add_global(
        GlobalVariable(IntType(32), f"extra.{next(_extra_globals)}")
    )


def make_nondeterministic(monkeypatch, pass_name):
    """From now on ``pass_name`` also adds a fresh global each run."""
    cls = PASS_REGISTRY[pass_name]
    real = cls.run_on_module

    def run_on_module(self, module):
        real(self, module)
        add_global(module)
        return True

    monkeypatch.setattr(cls, "run_on_module", run_on_module)


def test_reset_hashes_each_function_once(monkeypatch):
    """Constructing an env and resetting it hashes every function of the
    input exactly once: reset reuses the constructor's fingerprints."""
    module = suite_module("mibench", "crc32")
    hashed = []
    real = fingerprint_mod.function_fingerprint

    def counted(fn):
        hashed.append(fn)
        return real(fn)

    monkeypatch.setattr(fingerprint_mod, "function_fingerprint", counted)
    monkeypatch.setattr(metrics_mod, "function_fingerprint", counted)
    env = PhaseOrderingEnv(module, metrics=MetricsEngine())
    env.reset()
    assert sorted(id(fn) for fn in hashed) == sorted(
        id(fn) for fn in module.functions
    )


@pytest.mark.parametrize("suite, name, target", CASES)
def test_episode_clones_once(monkeypatch, suite, name, target):
    module = suite_module(suite, name)
    env = PhaseOrderingEnv(module, target=target, metrics=MetricsEngine(target))
    clones = count_calls(monkeypatch, Module, "clone")
    infos = env.rollout(fixed_actions(env.num_actions))
    changed_misses = [i for i in infos if i.changed and not i.cache_hit]
    assert len(changed_misses) >= 2
    assert len(clones) == 1 and clones[0][0] is module
    # Reading the end state needs no second copy either.
    assert env.current is env.current
    assert len(clones) == 1


@pytest.mark.parametrize("suite, name, target", CASES)
def test_second_env_replays_only_the_lag(monkeypatch, suite, name, target):
    """A second env on the same engine walks the first env's prefix
    through hits, then misses: it replays exactly the changed hits and
    ends on the module a fresh replay of the same actions produces."""
    module = suite_module(suite, name)
    engine = MetricsEngine(target)
    first = PhaseOrderingEnv(module, target=target, metrics=engine)
    actions = fixed_actions(first.num_actions)
    first.reset()
    base = first.fingerprint
    infos, fingerprints = [], []
    for action in actions:
        infos.append(first.step(action)[3])
        fingerprints.append(first.fingerprint)
    prefix = actions[:10]
    lag = [a for a, info in zip(prefix, infos) if info.changed]
    assert len(lag) >= 2
    # No prefix state returns to the input, so the lag is never cleared.
    assert base not in fingerprints[:10]

    second = PhaseOrderingEnv(module, target=target, metrics=engine)
    second.reset()
    for action in prefix:
        assert second.step(action)[3].cache_hit
    miss = next(
        a for a in range(second.num_actions)
        if engine.transitions.get(second.fingerprint, a) is None
    )
    applied = count_calls(monkeypatch, second.action_space, "apply")
    assert not second.step(miss)[3].cache_hit
    assert [args[0] for args in applied] == lag + [miss]

    got = second.current
    expected = PosetRL(target=target).apply_actions(module, prefix + [miss])
    assert engine.fingerprint(got) == second.fingerprint
    assert engine.fingerprint(expected) == second.fingerprint
    assert (object_size(got, target).total_bytes
            == object_size(expected, target).total_bytes)
    assert (estimate_throughput(got, target).total_cycles
            == estimate_throughput(expected, target).total_cycles)
    assert modules_equivalent(expected, got) is None


def validation_programs():
    return [
        program for suite_name in ("mibench", "spec2006", "spec2017")
        for program in load_suite(suite_name)
    ]


def test_changed_actions_alone_print_the_same_ir():
    """No-op actions leave no trace in the printed IR: a second env that
    takes only the changed actions of a first env's random rollout ends
    on the same text, not just the same fingerprint."""
    suite = validation_programs()
    for seed in (0, 2, 7):
        for name, module in suite:
            first = PhaseOrderingEnv(module, metrics=MetricsEngine())
            first.reset()
            changed = [
                action for action in fixed_actions(first.num_actions, seed)
                if first.step(action)[3].changed
            ]
            second = PhaseOrderingEnv(module, metrics=MetricsEngine())
            second.reset()
            for action in changed:
                second.step(action)
            assert second.fingerprint == first.fingerprint
            assert print_module(second.current) == print_module(
                first.current
            ), (name, seed)


def test_apply_actions_replay_prints_the_rollout_ir():
    """``PosetRL.apply_actions`` without a ``predict`` memo replays every
    action, no-ops included, on a clone; it ends on the same text as
    the env's rollout of the same actions."""
    agent = PosetRL(seed=0)
    suite = validation_programs()
    for seed in (0, 2, 7):
        for name, module in suite:
            env = PhaseOrderingEnv(module, metrics=MetricsEngine())
            actions = fixed_actions(env.num_actions, seed)
            env.rollout(actions)
            replayed = agent.apply_actions(module, actions)
            assert print_module(replayed) == print_module(env.current), (
                name, seed,
            )


class _AddMarker(ModulePass):
    name = "test-add-marker"

    def run_on_module(self, module):
        module.add_global(GlobalVariable(IntType(8), "marker"))
        return True


class _DropMarker(ModulePass):
    name = "test-drop-marker"

    def run_on_module(self, module):
        module.remove_global(module.get_global("marker"))
        return True


def test_hit_cycle_back_to_private_module_replays_nothing(monkeypatch):
    """add → drop → add (hit) → drop (hit): the last hit lands on the
    private module's fingerprint, so reading ``current`` runs no pass."""
    monkeypatch.setitem(PASS_REGISTRY, _AddMarker.name, _AddMarker)
    monkeypatch.setitem(PASS_REGISTRY, _DropMarker.name, _DropMarker)
    module = suite_module("mibench", "crc32")
    env = PhaseOrderingEnv(
        module,
        action_space=ActionSpace([[_AddMarker.name], [_DropMarker.name]]),
        metrics=MetricsEngine(),
    )
    env.reset()
    base = env.fingerprint
    hits = [env.step(a)[3].cache_hit for a in (0, 1, 0, 1)]
    assert hits == [False, False, True, True]
    assert env.fingerprint == base
    runs = count_calls(monkeypatch, PassManager, "run")
    private = env.current
    assert runs == []
    assert private.get_global("marker") is None
    env.step(0)  # a hit: (input, add) is cached
    env.current
    assert len(runs) == 1


@pytest.mark.parametrize("suite, name, target", CASES)
def test_nondeterministic_pass_raises_divergence(
    monkeypatch, suite, name, target
):
    module = suite_module(suite, name)
    engine = MetricsEngine(target)
    first = PhaseOrderingEnv(module, target=target, metrics=engine)
    actions = fixed_actions(first.num_actions)
    infos = first.rollout(actions)
    second = PhaseOrderingEnv(module, target=target, metrics=engine)
    assert all(i.cache_hit for i in second.rollout(actions))
    lagged = [a for a, info in zip(actions, infos) if info.changed]
    assert lagged
    make_nondeterministic(monkeypatch, second.action_space.passes_for(
        lagged[0])[0])
    with pytest.raises(RuntimeError) as excinfo:
        second.current
    message = str(excinfo.value)
    assert second.fingerprint in message
    assert "replaying actions" in message
    assert f"replaying actions {lagged}" in message


def test_service_divergence_is_a_counted_fallback(monkeypatch):
    """A replay that diverges while finalizing a served rollout answers
    with ``-Oz`` and counts the fallback; nothing escapes."""
    text = print_module(suite_module("mibench", "crc32"))
    agent = PosetRL(seed=0)
    service = OptimizationService.from_agent(
        agent, batch_window_s=0.001, result_cache_size=None
    )
    with service:
        first = service.optimize(text)
        assert first.status == "ok"
        # Every served pass now also adds a global: the second rollout
        # walks the first one's transitions and its replay diverges.
        for pass_name in set(first.passes):
            make_nondeterministic(monkeypatch, pass_name)
        second = service.optimize(text)
    assert second.status == "fallback"
    assert second.reason.startswith("finalize_error: replaying actions")
    assert service.counters["fallbacks"] == 1
    assert service.error_counts["finalize_error"] == 1
