"""Bounded on-disk experience journal.

Serving workers append completed trajectories; the background trainer
reads them back into the array-backed
:class:`~repro.rl.replay.ReplayMemory`. The two sides share nothing but
the directory, so they can live in different processes (each gateway
shard writes its own subdirectory) and either side can restart without
coordinating with the other.

Layout: ``seg-00000042.npz`` segment files, each holding the stacked
transition arrays of up to ``segment_size`` transitions. Segments are
written atomically (tmp file + ``os.replace``) so a reader never sees a
partial ``.npz``, and rotation deletes the oldest files beyond
``max_segments`` — the journal is a bounded ring on disk, exactly like
the replay memory is in RAM.
"""

from __future__ import annotations

import glob
import os
import threading
import zipfile
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..observability import get_registry

SEGMENT_PREFIX = "seg-"
SEGMENT_PATTERN = SEGMENT_PREFIX + "*.npz"

#: (states, actions, rewards, next_states, dones) — push_batch order.
TransitionArrays = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _segment_path(directory: str, serial: int) -> str:
    return os.path.join(directory, f"{SEGMENT_PREFIX}{serial:08d}.npz")


def _segment_serial(path: str) -> int:
    name = os.path.basename(path)
    return int(name[len(SEGMENT_PREFIX):-len(".npz")])


class ExperienceJournal:
    """Thread-safe trajectory writer with bounded on-disk rotation."""

    def __init__(
        self,
        directory: str,
        *,
        segment_size: int = 256,
        max_segments: int = 64,
    ):
        if segment_size <= 0:
            raise ValueError("segment_size must be positive")
        if max_segments <= 0:
            raise ValueError("max_segments must be positive")
        self.directory = directory
        self.segment_size = segment_size
        self.max_segments = max_segments
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._buffer: List[TransitionArrays] = []
        self._buffered = 0
        # Restart-safe: continue numbering after whatever already exists.
        existing = sorted(glob.glob(os.path.join(directory, SEGMENT_PATTERN)))
        self._serial = (_segment_serial(existing[-1]) + 1) if existing else 0
        self.counters: Dict[str, int] = {
            "trajectories": 0,
            "transitions": 0,
            "segments_written": 0,
            "segments_dropped": 0,
        }

    def append(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        dones: np.ndarray,
    ) -> None:
        """Buffer one trajectory's transitions (rows of the given arrays)."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float32))
        next_states = np.atleast_2d(np.asarray(next_states, dtype=np.float32))
        actions = np.asarray(actions, dtype=np.int64).ravel()
        rewards = np.asarray(rewards, dtype=np.float64).ravel()
        dones = np.asarray(dones, dtype=bool).ravel()
        n = len(actions)
        if n == 0:
            return
        if not (len(states) == len(next_states) == len(rewards) == len(dones) == n):
            raise ValueError("trajectory arrays must have matching lengths")
        flush_now = False
        with self._lock:
            self._buffer.append((states, actions, rewards, next_states, dones))
            self._buffered += n
            self.counters["trajectories"] += 1
            self.counters["transitions"] += n
            flush_now = self._buffered >= self.segment_size
        if flush_now:
            self.flush()

    def flush(self) -> Optional[str]:
        """Write buffered transitions as one segment; returns its path."""
        with self._lock:
            if not self._buffer:
                return None
            chunks, self._buffer, self._buffered = self._buffer, [], 0
            serial = self._serial
            self._serial += 1
        states = np.concatenate([c[0] for c in chunks])
        actions = np.concatenate([c[1] for c in chunks])
        rewards = np.concatenate([c[2] for c in chunks])
        next_states = np.concatenate([c[3] for c in chunks])
        dones = np.concatenate([c[4] for c in chunks])
        path = _segment_path(self.directory, serial)
        tmp = f"{path}.tmp-{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                np.savez(
                    fh,
                    states=states,
                    actions=actions,
                    rewards=rewards,
                    next_states=next_states,
                    dones=dones,
                )
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        dropped = self._rotate()
        with self._lock:
            self.counters["segments_written"] += 1
            self.counters["segments_dropped"] += dropped
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "repro_learning_journal_segments_total",
                "experience journal segments written",
            ).inc()
            if dropped:
                registry.counter(
                    "repro_learning_journal_dropped_total",
                    "journal segments dropped by rotation",
                ).inc(dropped)
        return path

    def _rotate(self) -> int:
        paths = sorted(glob.glob(os.path.join(self.directory, SEGMENT_PATTERN)))
        excess = len(paths) - self.max_segments
        for path in paths[:max(0, excess)]:
            try:
                os.unlink(path)
            except OSError:
                pass
        return max(0, excess)

    def segments(self) -> List[str]:
        return sorted(glob.glob(os.path.join(self.directory, SEGMENT_PATTERN)))


class JournalReader:
    """Incremental reader over one or more journal directories.

    Tracks which segment files it has already consumed, so repeated
    :meth:`read_new` calls return only fresh experience. Files removed by
    rotation between calls, and torn or truncated files, are skipped and
    counted in :attr:`skipped` — the reader never blocks the writer and
    vice versa.
    """

    def __init__(self, directories: Iterable[str]):
        self.directories = list(directories)
        self._seen: set = set()
        #: Segments that could not be read (rotated away or torn).
        self.skipped = 0

    def read_new(self) -> List[TransitionArrays]:
        """Transition arrays from segments not yet consumed, oldest first."""
        batches: List[TransitionArrays] = []
        for directory in self.directories:
            paths = sorted(glob.glob(os.path.join(directory, SEGMENT_PATTERN)))
            for path in paths:
                if path in self._seen:
                    continue
                self._seen.add(path)
                try:
                    # Own the handle: a failed np.load(path) leaks it.
                    with open(path, "rb") as f, np.load(
                        f, allow_pickle=False
                    ) as data:
                        batches.append(
                            (
                                data["states"].copy(),
                                data["actions"].copy(),
                                data["rewards"].copy(),
                                data["next_states"].copy(),
                                data["dones"].copy(),
                            )
                        )
                except (OSError, KeyError, ValueError, EOFError,
                        zipfile.BadZipFile):
                    # Rotated away or torn mid-read — skip, never crash
                    # the trainer over one segment.
                    self.skipped += 1
        return batches
