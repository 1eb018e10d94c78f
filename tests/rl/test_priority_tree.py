"""Property tests for the sum-tree prioritized replay index.

The sum tree is the determinism-critical piece of prioritized replay:
sampling must match a brute-force categorical draw over the
leaf masses exactly (not just statistically), ancestor sums must stay
consistent through ring wraparound overwrites, zero TD errors must not
make slots unsampleable, and a snapshot/restore must continue the exact
sampling RNG stream.
"""

import numpy as np
import pytest

from repro.rl import PrioritizedReplayMemory, SumTree


def _brute_force_find(leaves: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Oracle: searchsorted over the explicit cumulative mass."""
    cum = np.cumsum(leaves)
    idx = np.searchsorted(cum, masses, side="right")
    return np.minimum(idx, len(leaves) - 1)


def _fill(mem: PrioritizedReplayMemory, n: int, dim: int = 4, seed: int = 0):
    rng = np.random.RandomState(seed)
    for i in range(n):
        mem.push(
            rng.standard_normal(dim), int(rng.randint(3)),
            float(rng.standard_normal()), rng.standard_normal(dim),
            bool(rng.randint(2)),
        )


class TestSumTreeMatchesBruteForce:
    @pytest.mark.parametrize("capacity", [1, 2, 5, 16, 37, 100])
    def test_prefix_descent_equals_searchsorted(self, capacity):
        """Tree descent and the O(n) cumsum oracle pick the same leaf
        for a dense sweep of query masses, under random priorities."""
        rng = np.random.RandomState(capacity)
        tree = SumTree(capacity)
        leaves = rng.random_sample(capacity) + 1e-6
        tree.set(np.arange(capacity), leaves)
        assert tree.total == pytest.approx(leaves.sum())
        masses = np.linspace(0.0, tree.total, 257, endpoint=False)
        got = tree.find_prefix(masses)
        want = _brute_force_find(leaves, masses)
        assert np.array_equal(got, want)

    def test_categorical_draw_distribution(self):
        """Sampling by uniform masses through the tree reproduces the
        categorical distribution over the leaves (χ² on a large draw)."""
        capacity = 8
        tree = SumTree(capacity)
        leaves = np.array([1.0, 2.0, 4.0, 8.0, 1.0, 2.0, 4.0, 8.0])
        tree.set(np.arange(capacity), leaves)
        rng = np.random.RandomState(7)
        draws = 30_000
        idx = tree.find_prefix(rng.random_sample(draws) * tree.total)
        counts = np.bincount(idx, minlength=capacity)
        expected = draws * leaves / leaves.sum()
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 7 dof: P(chi2 > 24.3) ≈ 0.001
        assert chi2 < 24.3, counts

    def test_duplicate_indices_keep_last_value(self):
        tree = SumTree(4)
        tree.set([0, 1, 1, 2], [1.0, 5.0, 2.0, 3.0])
        assert np.array_equal(tree.values, [1.0, 2.0, 3.0, 0.0])
        assert tree.total == pytest.approx(6.0)

    def test_out_of_range_leaf_rejected(self):
        tree = SumTree(4)
        with pytest.raises(IndexError):
            tree.set([4], [1.0])
        with pytest.raises(IndexError):
            tree.set([-1], [1.0])


class TestWraparoundSumConsistency:
    def test_node_sums_after_ring_overwrites(self):
        """Pushing far past capacity overwrites leaves in ring order; the
        root total and every leaf must match a from-scratch rebuild."""
        capacity = 6
        mem = PrioritizedReplayMemory(capacity, seed=1, alpha=0.7)
        _fill(mem, 23, seed=5)  # wraps nearly four times
        # Scatter TD-error updates between overwrites too.
        mem.update_priorities([0, 3, 5], [0.25, 4.0, 0.5])
        _fill(mem, 4, seed=6)
        fresh = SumTree(capacity)
        fresh.set(np.arange(capacity), mem.tree.values)
        assert mem.tree.total == pytest.approx(fresh.total, rel=1e-12)
        internal = mem.tree._tree[1:mem.tree._leaf_base]
        rebuilt = fresh._tree[1:fresh._leaf_base]
        assert np.allclose(internal, rebuilt, rtol=1e-12, atol=0.0)

    def test_overwritten_slot_resets_to_max_priority(self):
        mem = PrioritizedReplayMemory(4, seed=2)
        _fill(mem, 4, seed=0)
        mem.update_priorities([0], [9.0])  # raises the running max
        high = mem.tree.value([0])[0]
        _fill(mem, 4, seed=1)  # full lap: every slot rewritten
        assert np.allclose(mem.tree.values, high)

    def test_oversized_batch_sets_every_leaf(self):
        mem = PrioritizedReplayMemory(4, seed=3)
        n = 11
        states = np.zeros((n, 2))
        mem.push_batch(
            states, np.zeros(n, dtype=np.int64), np.arange(n, dtype=float),
            states, np.zeros(n, dtype=bool),
        )
        assert len(mem) == 4
        assert np.all(mem.tree.values > 0)
        assert mem.tree.total == pytest.approx(mem.tree.values.sum())


class TestPriorityClamping:
    def test_zero_td_error_stays_sampleable(self):
        mem = PrioritizedReplayMemory(8, seed=4, min_priority=1e-3, alpha=0.5)
        _fill(mem, 8, seed=2)
        mem.update_priorities(np.arange(8), np.zeros(8))
        floor = mem.min_priority ** mem.alpha
        assert np.allclose(mem.tree.values, floor)
        assert mem.tree.total > 0
        batch, indices, weights = mem.sample_prioritized(4)
        assert len(indices) == 4
        # Uniform mass → every IS weight normalizes to 1.
        assert np.allclose(weights, 1.0)

    def test_sub_floor_priorities_clamped_up(self):
        mem = PrioritizedReplayMemory(4, seed=4, min_priority=1e-2, alpha=1.0)
        _fill(mem, 4, seed=3)
        mem.update_priorities(np.arange(4), [1e-9, 0.0, 5e-3, 0.5])
        values = mem.tree.values
        assert values[0] == pytest.approx(1e-2)
        assert values[1] == pytest.approx(1e-2)
        assert values[2] == pytest.approx(1e-2)
        assert values[3] == pytest.approx(0.5)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            PrioritizedReplayMemory(4, alpha=1.5)
        with pytest.raises(ValueError):
            PrioritizedReplayMemory(4, min_priority=0.0)
        with pytest.raises(ValueError):
            SumTree(0)

    def test_guards_run_before_rng(self):
        """A failed prioritized sample must not consume the RNG stream
        (mirrors the uniform-path contract)."""
        probed = PrioritizedReplayMemory(8, seed=6)
        clean = PrioritizedReplayMemory(8, seed=6)
        _fill(probed, 3, seed=1)
        _fill(clean, 3, seed=1)
        with pytest.raises(ValueError):
            probed.sample_prioritized(4)
        with pytest.raises(ValueError):
            probed.sample_prioritized(0)
        _, pi, _ = probed.sample_prioritized(2)
        _, ci, _ = clean.sample_prioritized(2)
        assert np.array_equal(pi, ci)


class TestSaveLoadRoundTrip:
    def test_priorities_and_rng_stream_survive(self, tmp_path):
        mem = PrioritizedReplayMemory(16, seed=9, alpha=0.8, beta=0.5)
        _fill(mem, 12, seed=4)
        _, indices, _ = mem.sample_prioritized(4)
        mem.update_priorities(indices, np.linspace(0.1, 2.0, 4))
        path = str(tmp_path / "prioritized.npz")
        mem.save(path)
        restored = PrioritizedReplayMemory.load(path)
        assert isinstance(restored, PrioritizedReplayMemory)
        assert restored.alpha == mem.alpha
        assert restored.beta == mem.beta
        assert restored.min_priority == mem.min_priority
        assert restored._max_priority == mem._max_priority
        assert np.array_equal(restored.tree.values, mem.tree.values)
        assert restored.tree.total == pytest.approx(mem.tree.total)
        # The restored memory continues the exact sampling stream.
        for _ in range(3):
            wb, wi, ww = mem.sample_prioritized(4)
            gb, gi, gw = restored.sample_prioritized(4)
            assert np.array_equal(wi, gi)
            assert np.array_equal(ww, gw)
            for a, b in zip(wb, gb):
                assert np.array_equal(a, b)

    def test_plain_snapshot_reenters_at_max_priority(self, tmp_path):
        from repro.rl import ReplayMemory

        plain = ReplayMemory(8, seed=3)
        rng = np.random.RandomState(0)
        for i in range(5):
            plain.push(rng.standard_normal(3), 0, float(i),
                       rng.standard_normal(3), False)
        path = str(tmp_path / "plain.npz")
        plain.save(path)
        restored = PrioritizedReplayMemory.load(path)
        assert len(restored) == 5
        expected = restored._clamped_mass([restored._max_priority])[0]
        assert np.allclose(restored.tree.values[:5], expected)
        assert np.allclose(restored.tree.values[5:], 0.0)
