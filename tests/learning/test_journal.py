"""Experience journal: segments, rotation, reader, serving tap."""

import numpy as np
import pytest

from repro.learning import ExperienceJournal, ExperienceTap, JournalReader


def _traj(n=5, state_dim=6, seed=0):
    rng = np.random.RandomState(seed)
    states = rng.standard_normal((n, state_dim)).astype(np.float32)
    next_states = rng.standard_normal((n, state_dim)).astype(np.float32)
    actions = rng.randint(0, 34, size=n)
    rewards = rng.standard_normal(n)
    dones = np.zeros(n, dtype=bool)
    dones[-1] = True
    return states, actions, rewards, next_states, dones


class TestJournal:
    def test_append_flush_roundtrip(self, tmp_path):
        journal = ExperienceJournal(str(tmp_path), segment_size=100)
        traj = _traj()
        journal.append(*traj)
        assert journal.segments() == []  # buffered, below segment_size
        path = journal.flush()
        assert path is not None and journal.segments() == [path]
        with np.load(path) as data:
            assert np.array_equal(data["states"], traj[0])
            assert np.array_equal(data["actions"], traj[1])
            assert np.array_equal(data["rewards"], traj[2])
            assert np.array_equal(data["next_states"], traj[3])
            assert np.array_equal(data["dones"], traj[4])

    def test_auto_flush_at_segment_size(self, tmp_path):
        journal = ExperienceJournal(str(tmp_path), segment_size=8)
        journal.append(*_traj(n=5, seed=1))
        assert journal.segments() == []
        journal.append(*_traj(n=5, seed=2))  # 10 >= 8 -> flush
        assert len(journal.segments()) == 1
        assert journal.counters["segments_written"] == 1
        assert journal.counters["transitions"] == 10
        assert journal.counters["trajectories"] == 2

    def test_rotation_bounds_disk(self, tmp_path):
        journal = ExperienceJournal(
            str(tmp_path), segment_size=2, max_segments=3
        )
        for i in range(6):
            journal.append(*_traj(n=2, seed=i))
        assert len(journal.segments()) == 3
        assert journal.counters["segments_written"] == 6
        assert journal.counters["segments_dropped"] == 3
        # The survivors are the newest three.
        serials = [p.split("seg-")[1] for p in journal.segments()]
        assert serials == ["00000003.npz", "00000004.npz", "00000005.npz"]

    def test_serial_resumes_after_restart(self, tmp_path):
        first = ExperienceJournal(str(tmp_path), segment_size=1)
        first.append(*_traj(n=1))
        second = ExperienceJournal(str(tmp_path), segment_size=1)
        second.append(*_traj(n=1))
        names = [p.rsplit("/", 1)[-1] for p in second.segments()]
        assert names == ["seg-00000000.npz", "seg-00000001.npz"]

    def test_empty_append_is_noop(self, tmp_path):
        journal = ExperienceJournal(str(tmp_path))
        journal.append(
            np.zeros((0, 4)), np.zeros(0), np.zeros(0),
            np.zeros((0, 4)), np.zeros(0, dtype=bool),
        )
        assert journal.flush() is None
        assert journal.counters["trajectories"] == 0

    def test_mismatched_lengths_rejected(self, tmp_path):
        journal = ExperienceJournal(str(tmp_path))
        states, actions, rewards, next_states, dones = _traj(n=4)
        with pytest.raises(ValueError, match="matching lengths"):
            journal.append(states, actions[:3], rewards, next_states, dones)


class TestReader:
    def test_reads_only_new_segments(self, tmp_path):
        journal = ExperienceJournal(str(tmp_path), segment_size=1)
        reader = JournalReader([str(tmp_path)])
        journal.append(*_traj(n=3, seed=1))
        assert len(reader.read_new()) == 1
        assert reader.read_new() == []
        journal.append(*_traj(n=3, seed=2))
        batches = reader.read_new()
        assert len(batches) == 1
        assert len(batches[0][1]) == 3  # actions

    def test_corrupt_segment_skipped(self, tmp_path):
        journal = ExperienceJournal(str(tmp_path), segment_size=1)
        journal.append(*_traj(n=2, seed=1))
        bad = tmp_path / "seg-00000099.npz"
        bad.write_bytes(b"torn write")
        reader = JournalReader([str(tmp_path)])
        batches = reader.read_new()
        assert len(batches) == 1  # the good one; the torn one is skipped

    def test_truncated_middle_segment_keeps_the_intact_ones(self, tmp_path):
        journal = ExperienceJournal(str(tmp_path), segment_size=1)
        for n, seed in ((2, 1), (3, 2), (4, 3)):
            journal.append(*_traj(n=n, seed=seed))
        first, middle, last = journal.segments()
        with open(middle, "rb") as f:
            data = f.read()
        with open(middle, "wb") as f:
            f.write(data[: len(data) // 2])
        reader = JournalReader([str(tmp_path)])
        batches = reader.read_new()
        assert [len(batch[1]) for batch in batches] == [2, 4]
        assert reader.skipped == 1
        assert reader.read_new() == []  # the torn segment is not retried

    def test_multiple_directories(self, tmp_path):
        a, b = tmp_path / "shard0", tmp_path / "shard1"
        ExperienceJournal(str(a), segment_size=1).append(*_traj(n=2, seed=1))
        ExperienceJournal(str(b), segment_size=1).append(*_traj(n=3, seed=2))
        reader = JournalReader([str(a), str(b)])
        batches = reader.read_new()
        assert sorted(len(x[1]) for x in batches) == [2, 3]


class TestTap:
    def test_record_derives_next_states_and_dones(self, tmp_path):
        journal = ExperienceJournal(str(tmp_path), segment_size=1)
        tap = ExperienceTap(journal)
        rng = np.random.RandomState(0)
        states = [rng.standard_normal(4).astype(np.float32) for _ in range(4)]
        assert tap.record(states, [1, 2, 3], [0.1, 0.2, 0.3])
        (s, a, r, ns, d) = JournalReader([str(tmp_path)]).read_new()[0]
        assert np.array_equal(s, np.asarray(states[:-1], dtype=np.float32))
        assert np.array_equal(ns, np.asarray(states[1:], dtype=np.float32))
        assert list(a) == [1, 2, 3]
        assert list(d) == [False, False, True]
        assert tap.counters["trajectories"] == 1
        assert tap.counters["transitions"] == 3

    def test_malformed_trajectory_counted_not_raised(self, tmp_path):
        tap = ExperienceTap(ExperienceJournal(str(tmp_path)))
        # states must be len(actions) + 1 rows
        assert not tap.record([np.zeros(4)] * 3, [1, 2, 3], [0.0, 0.0, 0.0])
        assert tap.counters["errors"] == 1
        assert tap.counters["trajectories"] == 0

    def test_empty_trajectory_rejected(self, tmp_path):
        tap = ExperienceTap(ExperienceJournal(str(tmp_path)))
        assert not tap.record([np.zeros(4)], [], [])
        assert tap.counters["errors"] == 1
