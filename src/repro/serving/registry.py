"""Versioned model registry for the optimization service.

A :class:`ModelRegistry` holds named :class:`RegisteredModel` versions —
a :class:`~repro.rl.network.QNetwork` plus the metadata the serving layer
needs to drive it correctly (action-space name, state dimension, training
provenance) — and designates exactly one *active* version at a time.

Activation is an atomic swap under a lock: requests admitted before the
swap keep the model they were pinned to, requests admitted after see the
new version, and nothing in flight is dropped (the scheduler groups its
batched forwards by pinned model, so both generations can coexist within
one batch tick during a hot reload).

Checkpoints written by :meth:`repro.core.agent_api.PosetRL.save` embed
their own metadata (see :meth:`QNetwork.load_metadata`), so
:meth:`ModelRegistry.register_checkpoint` can configure a serving model
from the ``.npz`` file alone.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from ..core.environment import ActionSpace, DEFAULT_EPISODE_LENGTH, make_action_space
from ..rl.network import QNetwork


@dataclass
class RegisteredModel:
    """One immutable, servable model version."""

    version: str
    network: QNetwork
    action_space_kind: str
    action_space: ActionSpace
    episode_length: int = DEFAULT_EPISODE_LENGTH
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def state_dim(self) -> int:
        return self.network.state_dim

    @property
    def num_actions(self) -> int:
        return self.network.num_actions

    def act(self, states: np.ndarray) -> np.ndarray:
        """Greedy actions for a ``(n, state_dim)`` batch — one forward
        (``predict`` casts the batch once to the network's dtype)."""
        return self.network.predict(np.atleast_2d(states)).argmax(axis=1)

    def describe(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "action_space": self.action_space_kind,
            "state_dim": self.state_dim,
            "num_actions": self.num_actions,
            "episode_length": self.episode_length,
            **{f"meta.{k}": v for k, v in sorted(self.metadata.items())},
        }


class ModelRegistry:
    """Thread-safe map of model versions with one active serving model."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._models: Dict[str, RegisteredModel] = {}
        self._active: Optional[RegisteredModel] = None
        self._counter = itertools.count(1)
        self._pinned: set = set()

    # -- registration -------------------------------------------------------
    def register(
        self,
        network: QNetwork,
        *,
        action_space: str = "odg",
        version: Optional[str] = None,
        episode_length: int = DEFAULT_EPISODE_LENGTH,
        metadata: Optional[Dict[str, Any]] = None,
        activate: Optional[bool] = None,
    ) -> str:
        """Add a model version; returns its version id.

        ``activate=None`` (the default) activates the model only when no
        version is active yet — registering a candidate next to a serving
        model is a no-op for traffic until :meth:`activate` is called.
        """
        space = make_action_space(action_space)
        if len(space) != network.num_actions:
            raise ValueError(
                f"network has {network.num_actions} actions but action "
                f"space {action_space!r} has {len(space)}"
            )
        with self._lock:
            if version is None:
                version = f"v{next(self._counter)}"
            if version in self._models:
                raise ValueError(f"model version {version!r} already registered")
            model = RegisteredModel(
                version=version,
                network=network,
                action_space_kind=action_space,
                action_space=space,
                episode_length=episode_length,
                metadata=dict(metadata or {}),
            )
            self._models[version] = model
            if activate or (activate is None and self._active is None):
                self._active = model
            return version

    def register_checkpoint(
        self,
        path: str,
        *,
        action_space: Optional[str] = None,
        version: Optional[str] = None,
        episode_length: Optional[int] = None,
        activate: Optional[bool] = None,
    ) -> str:
        """Load an ``.npz`` checkpoint and register it.

        Action space and episode length default to the metadata embedded
        by :meth:`PosetRL.save`; explicit arguments override it. Legacy
        checkpoints without metadata require an explicit ``action_space``
        (or accept the ``"odg"`` default when their action count matches).
        """
        network = QNetwork.load(path)
        metadata = QNetwork.load_metadata(path)
        metadata.setdefault("checkpoint", path)
        if action_space is None:
            action_space = str(metadata.get("action_space", "odg"))
        if episode_length is None:
            episode_length = int(
                metadata.get("episode_length", DEFAULT_EPISODE_LENGTH)
            )
        return self.register(
            network,
            action_space=action_space,
            version=version,
            episode_length=episode_length,
            metadata=metadata,
            activate=activate,
        )

    # -- activation / lookup ------------------------------------------------
    def activate(self, version: str) -> RegisteredModel:
        """Atomically make ``version`` the serving model (hot reload)."""
        with self._lock:
            model = self._models.get(version)
            if model is None:
                raise KeyError(f"unknown model version {version!r}")
            self._active = model
            return model

    @property
    def active(self) -> RegisteredModel:
        with self._lock:
            if self._active is None:
                raise LookupError("model registry has no active model")
            return self._active

    @property
    def has_active(self) -> bool:
        with self._lock:
            return self._active is not None

    def get(self, version: str) -> RegisteredModel:
        with self._lock:
            model = self._models.get(version)
        if model is None:
            raise KeyError(f"unknown model version {version!r}")
        return model

    def versions(self) -> List[str]:
        with self._lock:
            return list(self._models)

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    # -- retention ----------------------------------------------------------
    def pin(self, version: str) -> None:
        """Protect ``version`` from :meth:`prune` (e.g. a base checkpoint)."""
        with self._lock:
            if version not in self._models:
                raise KeyError(f"unknown model version {version!r}")
            self._pinned.add(version)

    def unpin(self, version: str) -> None:
        with self._lock:
            self._pinned.discard(version)

    def pinned(self) -> List[str]:
        with self._lock:
            return sorted(self._pinned)

    def prune(self, keep_last: int = 2, *, keep: Iterable[str] = ()) -> List[str]:
        """Drop old versions, returning the ones removed.

        Retained unconditionally: pinned versions, the active (incumbent)
        version, anything named in ``keep`` (e.g. the rollback target),
        and the ``keep_last`` most recently registered versions. A
        long-running trainer that registers a candidate per cycle calls
        this to keep the registry bounded.
        """
        if keep_last < 0:
            raise ValueError("keep_last must be >= 0")
        with self._lock:
            order = list(self._models)  # insertion order == registration order
            protected = set(self._pinned)
            protected.update(keep)
            if self._active is not None:
                protected.add(self._active.version)
            if keep_last:
                protected.update(order[-keep_last:])
            removed = [v for v in order if v not in protected]
            for version in removed:
                del self._models[version]
            return removed
