"""VectorPhaseOrderingEnv: lockstep semantics and lazy auto-reset."""

import numpy as np
import pytest

from repro.core import MetricsEngine, PhaseOrderingEnv, make_action_space
from repro.core.vector_env import EpisodeRecord, VectorPhaseOrderingEnv
from repro.workloads import ProgramProfile, generate_program

EPISODE_LENGTH = 4


@pytest.fixture(scope="module")
def corpus():
    return [
        (
            f"prog{i}",
            generate_program(ProgramProfile(name=f"prog{i}", seed=i, segments=2)),
        )
        for i in range(3)
    ]


def _make_vector(corpus, n_envs, seed=0):
    engine = MetricsEngine()
    space = make_action_space("odg")

    def factory(module):
        return PhaseOrderingEnv(
            module,
            space,
            episode_length=EPISODE_LENGTH,
            metrics=engine,
        )

    return VectorPhaseOrderingEnv(
        corpus, n_envs, factory, rng=np.random.RandomState(seed)
    )


class TestLockstep:
    def test_reset_shapes(self, corpus):
        venv = _make_vector(corpus, 3)
        states = venv.reset()
        assert states.shape[0] == 3
        assert states.shape == venv.observations.shape
        assert venv.state_dim == states.shape[1]

    def test_step_shapes_and_infos(self, corpus):
        venv = _make_vector(corpus, 3)
        venv.reset()
        next_states, rewards, dones, infos = venv.step([1, 2, 3])
        assert next_states.shape == (3, venv.state_dim)
        assert rewards.shape == (3,) and dones.shape == (3,)
        assert len(infos) == 3
        assert [info.action for info in infos] == [1, 2, 3]
        assert not dones.any()

    def test_wrong_action_count_raises(self, corpus):
        venv = _make_vector(corpus, 2)
        venv.reset()
        with pytest.raises(ValueError):
            venv.step([0])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            _make_vector([], 2)

    def test_nonpositive_n_envs_rejected(self, corpus):
        with pytest.raises(ValueError):
            _make_vector(corpus, 0)

    def test_matches_single_env_rollouts(self, corpus):
        """Each slot's trajectory equals a standalone env rollout on the
        module the shared RNG sampled for it."""
        n = 2
        venv = _make_vector(corpus, n, seed=5)
        sample_rng = np.random.RandomState(5)
        venv.reset()
        expected_names = [
            corpus[int(sample_rng.randint(len(corpus)))][0] for _ in range(n)
        ]
        actions_per_step = [[1, 4], [7, 2], [3, 3], [5, 9]]
        slot_rewards = np.zeros(n)
        for step_actions in actions_per_step:
            _, rewards, dones, _ = venv.step(step_actions)
            slot_rewards += rewards
        assert dones.all()
        completed = venv.pop_completed()
        assert [rec.module for rec in completed] == expected_names

        by_name = dict(corpus)
        for slot, rec in enumerate(completed):
            env = PhaseOrderingEnv(
                by_name[rec.module],
                make_action_space("odg"),
                episode_length=EPISODE_LENGTH,
            )
            slot_actions = [acts[slot] for acts in actions_per_step]
            infos = env.rollout(slot_actions)
            assert rec.actions == [info.action for info in infos]
            assert rec.final_size == env.last_size
            env2 = PhaseOrderingEnv(
                by_name[rec.module],
                make_action_space("odg"),
                episode_length=EPISODE_LENGTH,
            )
            env2.reset()
            expected_total = 0.0
            for a in slot_actions:
                _, r, _, _ = env2.step(a)
                expected_total += r
            assert rec.total_reward == pytest.approx(expected_total, abs=1e-12)


class TestAutoReset:
    def test_lazy_reset_draws_on_observation(self, corpus):
        """The next module is sampled when observations are requested,
        not at the moment the episode finishes."""
        venv = _make_vector(corpus, 1, seed=2)
        venv.reset()

        def rng_state():
            # key array + stream position: the position is what a single
            # randint draw advances.
            state = venv._rng.get_state()
            return state[1].copy(), state[2]

        after_reset = rng_state()
        for _ in range(EPISODE_LENGTH):
            _, _, dones, _ = venv.step([0])
        assert dones.all()
        # done happened, but no draw yet
        current = rng_state()
        assert np.array_equal(current[0], after_reset[0])
        assert current[1] == after_reset[1]
        venv.observations
        assert rng_state()[1] != after_reset[1]

    def test_continuous_episodes(self, corpus):
        venv = _make_vector(corpus, 2, seed=3)
        venv.reset()
        episodes = 0
        for _ in range(3 * EPISODE_LENGTH):
            venv.observations
            _, _, dones, _ = venv.step([0, 1])
            episodes += len(venv.pop_completed())
        assert episodes == 6  # 2 slots x 3 episodes each

    def test_episode_record_fields(self, corpus):
        venv = _make_vector(corpus, 1, seed=1)
        venv.reset()
        for _ in range(EPISODE_LENGTH):
            venv.observations
            venv.step([2])
        (rec,) = venv.pop_completed()
        assert isinstance(rec, EpisodeRecord)
        assert rec.module in {name for name, _ in corpus}
        assert rec.actions == [2] * EPISODE_LENGTH
        assert rec.final_size > 0
        assert venv.pop_completed() == []  # drained
