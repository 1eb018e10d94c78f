"""The public measurement functions equal the object-walk reference.

``object_size``, ``estimate_throughput``, ``program_embedding``,
``core.evaluate.measure`` and ``optimize_with_oz`` run the flat kernels
(the one production implementation). Each must return exactly (``==``,
``array_equal``) what :func:`tests.metrics_reference.reference_measure`
computes by walking the object IR: on the 28 validation programs and on
fuzz modules, for both targets, raw and after ``-Oz``. The greedy
lookahead baseline, which scores trials through the env's metrics
engine, must choose the actions a reference-scoring chooser chooses.
"""

import numpy as np
import pytest

from repro.codegen import object_size
from repro.core.evaluate import measure, optimize_with_oz
from repro.core.rewards import RewardWeights, combined_reward
from repro.core.search import greedy_reward_policy, rollout_policy
from repro.embeddings import IR2VecEncoder, Vocabulary, program_embedding
from repro.mca import estimate_throughput
from repro.passes import build_pipeline
from repro.testing.generator import FuzzProfile, generate_fuzz_program
from repro.workloads import load_suite
from tests.metrics_reference import ReferenceEncoder, reference_measure

SOURCES = ("mibench", "spec2006", "spec2017", "fuzz")
TARGETS = ("x86-64", "aarch64")
FUZZ_SEEDS = range(8)


def _programs(source):
    if source == "fuzz":
        return [
            (f"fuzz{seed}", generate_fuzz_program(FuzzProfile(seed=seed)))
            for seed in FUZZ_SEEDS
        ]
    return load_suite(source)


def assert_public_equals_reference(module, target):
    size, mca, embedding = reference_measure(module, target)
    assert object_size(module, target) == size
    assert estimate_throughput(module, target) == mca
    assert np.array_equal(program_embedding(module), embedding)
    assert measure(module, target) == {
        "size": size.total_bytes,
        "cycles": mca.total_cycles,
    }
    return size, mca


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("source", SOURCES)
def test_public_measurements_equal_reference(source, target):
    programs = _programs(source)
    if source != "fuzz":
        assert len(programs) in (8, 10)  # 8 + 10 + 10 validation programs
    for name, module in programs:
        assert_public_equals_reference(module, target)
        oz = module.clone()
        build_pipeline("Oz").run(oz)
        size, mca = assert_public_equals_reference(oz, target)
        assert optimize_with_oz(module, target) == {
            "size": size.total_bytes,
            "cycles": mca.total_cycles,
        }, name


def test_custom_vocabulary_embedding_equals_reference():
    vocab = Vocabulary(dimension=64)
    encoder, reference = IR2VecEncoder(vocab), ReferenceEncoder(vocab)
    for _, module in _programs("fuzz"):
        expected = np.zeros(64)
        for fn in module.functions:
            expected += reference.function_embedding(fn)
        got = encoder.program_embedding(module)
        assert got.shape == (64,)
        assert np.array_equal(got, (expected / 100.0).astype(np.float32))


def _reference_reward_chooser(weights):
    """The greedy lookahead with every trial scored by the object walks."""

    def choose(env):
        best_action, best_score = 0, None
        for action in range(env.num_actions):
            trial = env.current.clone()
            env.action_space.apply(action, trial)
            size, mca, _ = reference_measure(trial, env.target)
            score = combined_reward(
                env.last_size, size.total_bytes, env.base_size,
                env.last_throughput, mca.throughput, env.base_throughput,
                weights,
            )
            if best_score is None or score > best_score:
                best_action, best_score = action, score
        return best_action

    return choose


@pytest.mark.parametrize("target", TARGETS)
def test_greedy_reward_policy_matches_reference_chooser(target):
    weights = RewardWeights()
    modules = dict(load_suite("mibench"))
    for name in ("crc32", "bitcount"):
        module = modules[name]
        got = greedy_reward_policy(module, target=target, steps=6)
        expected = rollout_policy(
            module, _reference_reward_chooser(weights), target=target,
            steps=6, weights=weights,
        )
        assert got.actions == expected.actions, name
        assert got.final_size == expected.final_size, name
