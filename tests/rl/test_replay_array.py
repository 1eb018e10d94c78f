"""Array-backed replay memory vs the original list-of-objects design.

The reference implementation below is the seed repo's list-backed ring
buffer, kept verbatim so the tests can assert that the numpy rewrite
reproduces it exactly: same sampling RNG stream (hence bit-identical
batches for a fixed seed), same wraparound semantics, same dtypes.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.rl import ReplayMemory, Transition


@dataclass
class _RefTransition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool


class _ListReplayMemory:
    """The pre-vectorization implementation, used as the oracle."""

    def __init__(self, capacity=10_000, seed=0):
        self.capacity = capacity
        self._items = [None] * capacity
        self._write = 0
        self._size = 0
        self._rng = np.random.RandomState(seed)

    def __len__(self):
        return self._size

    def push(self, state, action, reward, next_state, done):
        self._items[self._write] = _RefTransition(
            np.asarray(state, dtype=np.float32),
            int(action),
            float(reward),
            np.asarray(next_state, dtype=np.float32),
            bool(done),
        )
        self._write = (self._write + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size):
        indices = self._rng.randint(0, self._size, size=batch_size)
        batch = [self._items[i] for i in indices]
        return (
            np.stack([t.state for t in batch]),
            np.array([t.action for t in batch], dtype=np.int64),
            np.array([t.reward for t in batch], dtype=np.float64),
            np.stack([t.next_state for t in batch]),
            np.array([t.done for t in batch], dtype=bool),
        )


def _random_transitions(n, dim=6, seed=0):
    rng = np.random.RandomState(seed)
    for i in range(n):
        yield (
            rng.standard_normal(dim),
            int(rng.randint(0, 5)),
            float(rng.standard_normal()),
            rng.standard_normal(dim),
            bool(rng.randint(0, 2)),
        )


class TestArrayReplayMatchesReference:
    @pytest.mark.parametrize("pushes", [10, 32, 50])
    def test_sampling_bit_identical(self, pushes):
        """Same seed, same pushes → byte-identical sample batches,
        including after the ring has wrapped (capacity 32)."""
        new = ReplayMemory(capacity=32, seed=9)
        ref = _ListReplayMemory(capacity=32, seed=9)
        for t in _random_transitions(pushes, seed=3):
            new.push(*t)
            ref.push(*t)
        assert len(new) == len(ref)
        for _ in range(5):
            got = new.sample(8)
            want = ref.sample(8)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w)

    def test_wraparound_keeps_last_capacity(self):
        mem = ReplayMemory(capacity=4)
        for i in range(10):
            mem.push(np.full(2, i), i % 2, float(i), np.ones(2), False)
        assert len(mem) == 4
        survivors = sorted(mem[i].reward for i in range(4))
        assert survivors == [6.0, 7.0, 8.0, 9.0]

    def test_sampling_distribution_uniform(self):
        """Every stored slot is sampled at the uniform rate (χ² check on
        a large draw, same tolerance the old implementation satisfied)."""
        mem = ReplayMemory(capacity=16, seed=123)
        for i in range(16):
            mem.push(np.full(1, i), 0, float(i), np.zeros(1), False)
        rounds, batch = 1000, 16
        counts = np.zeros(16, dtype=np.int64)
        for _ in range(rounds):
            _, _, rewards, _, _ = mem.sample(batch)
            counts += np.bincount(rewards.astype(int), minlength=16)
        draws = rounds * batch
        expected = draws / 16
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 15 dof: P(chi2 > 37.7) ≈ 0.001
        assert chi2 < 37.7, counts


class TestPushBatch:
    def test_equivalent_to_sequential_pushes(self):
        batch_mem = ReplayMemory(capacity=32, seed=1)
        seq_mem = ReplayMemory(capacity=32, seed=1)
        data = list(_random_transitions(20, seed=7))
        for t in data:
            seq_mem.push(*t)
        states, actions, rewards, next_states, dones = map(
            np.array, zip(*data)
        )
        batch_mem.push_batch(states, actions, rewards, next_states, dones)
        assert len(batch_mem) == len(seq_mem)
        got = batch_mem.sample(16)
        want = seq_mem.sample(16)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_wraparound_split_write(self):
        """A batch crossing the ring boundary lands like n pushes."""
        batch_mem = ReplayMemory(capacity=8, seed=2)
        seq_mem = ReplayMemory(capacity=8, seed=2)
        first = list(_random_transitions(6, seed=11))
        second = list(_random_transitions(5, seed=12))
        for t in first:
            batch_mem.push(*t)
            seq_mem.push(*t)
        for t in second:
            seq_mem.push(*t)
        states, actions, rewards, next_states, dones = map(
            np.array, zip(*second)
        )
        batch_mem.push_batch(states, actions, rewards, next_states, dones)
        for i in range(len(seq_mem)):
            assert np.array_equal(batch_mem[i].state, seq_mem[i].state)
            assert batch_mem[i].reward == seq_mem[i].reward

    def test_oversized_batch_keeps_tail(self):
        mem = ReplayMemory(capacity=4)
        n = 11
        states = np.arange(n, dtype=np.float64).reshape(n, 1)
        mem.push_batch(
            states,
            np.zeros(n, dtype=np.int64),
            np.arange(n, dtype=np.float64),
            states,
            np.zeros(n, dtype=bool),
        )
        assert len(mem) == 4
        assert sorted(mem[i].reward for i in range(4)) == [7.0, 8.0, 9.0, 10.0]

    def test_empty_batch_is_noop(self):
        mem = ReplayMemory(capacity=4)
        mem.push_batch(
            np.zeros((0, 3)), np.zeros(0), np.zeros(0), np.zeros((0, 3)),
            np.zeros(0, dtype=bool),
        )
        assert len(mem) == 0


class TestCompatibilityView:
    def test_getitem_returns_transition(self):
        mem = ReplayMemory(capacity=8)
        mem.push(np.arange(3), 2, 1.5, np.arange(3) + 1, True)
        t = mem[0]
        assert isinstance(t, Transition)
        assert t.action == 2 and t.reward == 1.5 and t.done is True
        assert np.array_equal(t.state, np.arange(3, dtype=np.float32))
        assert np.array_equal(t.next_state, np.arange(1, 4, dtype=np.float32))

    def test_getitem_oldest_first_after_wrap(self):
        mem = ReplayMemory(capacity=3)
        for i in range(5):
            mem.push(np.zeros(1), 0, float(i), np.zeros(1), False)
        assert [mem[i].reward for i in range(3)] == [2.0, 3.0, 4.0]

    def test_getitem_out_of_range(self):
        mem = ReplayMemory(capacity=3)
        mem.push(np.zeros(1), 0, 0.0, np.zeros(1), False)
        with pytest.raises(IndexError):
            mem[1]
        with pytest.raises(IndexError):
            mem[-1]

    def test_state_dim_property(self):
        mem = ReplayMemory(capacity=3)
        assert mem.state_dim is None
        mem.push(np.zeros(7), 0, 0.0, np.zeros(7), False)
        assert mem.state_dim == 7


class TestErrorPathsPreserveRngStream:
    """A failed ``sample`` must not consume RNG state: retrying after the
    buffer fills has to draw the same indices a fresh never-failed memory
    would — otherwise a restarted learner that probes an underfull ring
    desyncs from the serial trajectory."""

    def _assert_same_stream(self, a: ReplayMemory, b: ReplayMemory) -> None:
        sa, sb = a._rng.get_state(), b._rng.get_state()
        assert np.array_equal(sa[1], sb[1]) and sa[2] == sb[2]

    def test_underfull_sample_does_not_touch_rng(self):
        probed = ReplayMemory(capacity=8, seed=5)
        clean = ReplayMemory(capacity=8, seed=5)
        probed.push(np.zeros(3), 0, 0.0, np.zeros(3), False)
        clean.push(np.zeros(3), 0, 0.0, np.zeros(3), False)
        for _ in range(4):
            with pytest.raises(ValueError):
                probed.sample(4)
        self._assert_same_stream(probed, clean)
        for t in _random_transitions(5, dim=3, seed=1):
            probed.push(*t)
            clean.push(*t)
        for g, w in zip(probed.sample(4), clean.sample(4)):
            assert np.array_equal(g, w)

    def test_empty_sample_does_not_touch_rng(self):
        probed = ReplayMemory(capacity=8, seed=5)
        clean = ReplayMemory(capacity=8, seed=5)
        with pytest.raises(ValueError):
            probed.sample(1)
        self._assert_same_stream(probed, clean)

    def test_nonpositive_batch_rejected_before_rng(self):
        probed = ReplayMemory(capacity=8, seed=5)
        clean = ReplayMemory(capacity=8, seed=5)
        for t in _random_transitions(8, dim=3, seed=2):
            probed.push(*t)
            clean.push(*t)
        for bad in (0, -3):
            with pytest.raises(ValueError):
                probed.sample(bad)
        self._assert_same_stream(probed, clean)


class TestSaveLoad:
    def _filled(self, n, capacity=16, seed=3):
        mem = ReplayMemory(capacity=capacity, seed=seed)
        rng = np.random.RandomState(seed)
        for i in range(n):
            mem.push(
                rng.standard_normal(5), i % 4, float(i),
                rng.standard_normal(5), i % 3 == 0,
            )
        return mem

    def test_roundtrip_preserves_contents(self, tmp_path):
        mem = self._filled(10)
        path = str(tmp_path / "replay.npz")
        mem.save(path)
        restored = ReplayMemory.load(path)
        assert len(restored) == 10
        assert restored.capacity == mem.capacity
        assert restored.state_dim == 5
        for i in range(10):
            assert np.array_equal(restored[i].state, mem[i].state)
            assert restored[i].action == mem[i].action
            assert restored[i].reward == mem[i].reward
            assert restored[i].done == mem[i].done

    def test_roundtrip_preserves_wraparound(self, tmp_path):
        mem = self._filled(23, capacity=8)  # wrapped nearly three times
        path = str(tmp_path / "replay.npz")
        mem.save(path)
        restored = ReplayMemory.load(path)
        assert len(restored) == 8
        assert [restored[i].reward for i in range(8)] == [
            mem[i].reward for i in range(8)
        ]
        # Writes continue at the same ring position.
        restored.push(np.zeros(5), 0, 99.0, np.zeros(5), False)
        mem.push(np.zeros(5), 0, 99.0, np.zeros(5), False)
        assert [restored[i].reward for i in range(8)] == [
            mem[i].reward for i in range(8)
        ]

    def test_resume_determinism_of_sampling(self, tmp_path):
        """A restored memory continues the exact sampling RNG stream."""
        mem = self._filled(12)
        mem.sample(4)  # advance the stream before snapshotting
        path = str(tmp_path / "replay.npz")
        mem.save(path)
        restored = ReplayMemory.load(path)
        for _ in range(3):
            expected = mem.sample(4)
            got = restored.sample(4)
            for a, b in zip(expected, got):
                assert np.array_equal(a, b)

    def test_empty_memory_roundtrip(self, tmp_path):
        mem = ReplayMemory(capacity=6, seed=1)
        path = str(tmp_path / "empty.npz")
        mem.save(path)
        restored = ReplayMemory.load(path)
        assert len(restored) == 0
        assert restored.state_dim is None
        restored.push(np.zeros(3), 0, 1.0, np.zeros(3), True)
        assert len(restored) == 1

    def test_save_overwrites_atomically(self, tmp_path):
        mem = self._filled(4)
        path = str(tmp_path / "replay.npz")
        mem.save(path)
        mem.push(np.zeros(5), 1, 42.0, np.zeros(5), False)
        mem.save(path)
        restored = ReplayMemory.load(path)
        assert len(restored) == 5
        assert restored[4].reward == 42.0
        # No tmp droppings left behind.
        leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name]
        assert leftovers == []
