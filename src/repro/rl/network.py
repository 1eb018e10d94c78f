"""A small fully-connected Q-network in pure numpy.

Architecture: configurable hidden layers with ReLU, linear output head
(one Q-value per action). Training uses Adam and Huber loss on the
selected action's Q-value — the standard DQN regression setup. Weights
can be copied wholesale (online → target network synchronization) and
serialized to ``.npz`` for checkpointing.

Float32 is the one compute dtype: weights, biases and Adam moments are
float32, and every entry point casts its inputs once to the weights'
dtype (the state embeddings and replay memory are float32 already, so
for them the cast is free). Checkpoints written in float64 are cast on
load.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np


class DenseLayer:
    """One float32 affine layer with optional ReLU."""

    def __init__(self, rng: np.random.RandomState, fan_in: int, fan_out: int,
                 relu: bool):
        scale = np.sqrt(2.0 / fan_in)
        self.weight = (rng.standard_normal((fan_in, fan_out)) * scale).astype(
            np.float32
        )
        self.bias = np.zeros(fan_out, dtype=np.float32)
        self.relu = relu
        # Adam state, plus one work buffer per parameter so a step
        # allocates nothing.
        self.m_w = np.zeros_like(self.weight)
        self.v_w = np.zeros_like(self.weight)
        self.m_b = np.zeros_like(self.bias)
        self.v_b = np.zeros_like(self.bias)
        self.work_w = np.zeros_like(self.weight)
        self.work_b = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        pre = x @ self.weight
        pre += self.bias
        out = np.maximum(pre, 0.0) if self.relu else pre
        return pre, out

    def backward(
        self, x: np.ndarray, pre: np.ndarray, grad_out: np.ndarray,
        input_grad: bool = True,
    ) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
        """``(grad_x, grad_w, grad_b)``; ``grad_x`` is ``None`` without
        ``input_grad`` — nothing reads the first layer's input gradient."""
        if self.relu:
            grad_out = grad_out * (pre > 0.0)
        grad_w = x.T @ grad_out
        grad_b = grad_out.sum(axis=0)
        grad_x = grad_out @ self.weight.T if input_grad else None
        return grad_x, grad_w, grad_b


def adam_step(
    layer: DenseLayer, grad_w: np.ndarray, grad_b: np.ndarray, t: int,
    learning_rate: float,
    beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
) -> None:
    """One in-place Adam update of a layer's weight/bias from their gradients.

    Shared by :class:`QNetwork` and the PPO policy/value network — the
    optimizer state lives on the layer, the timestep on the caller. The
    bias corrections fold into two scalars, and every array operation
    writes into the moments, the parameter or the layer's work buffer.
    """
    step = learning_rate / (1 - beta1**t)
    v_scale = 1.0 / (1 - beta2**t)
    for grad, m, v, param, buf in (
        (grad_w, layer.m_w, layer.v_w, layer.weight, layer.work_w),
        (grad_b, layer.m_b, layer.v_b, layer.bias, layer.work_b),
    ):
        m *= beta1
        np.multiply(grad, 1 - beta1, out=buf)
        m += buf
        v *= beta2
        np.multiply(grad, grad, out=buf)
        buf *= 1 - beta2
        v += buf
        # param -= step * m / (sqrt(v * v_scale) + eps)
        np.multiply(v, v_scale, out=buf)
        np.sqrt(buf, out=buf)
        buf += eps
        np.divide(m, buf, out=buf)
        buf *= step
        param -= buf


class QNetwork:
    """MLP mapping state vectors to per-action Q-values."""

    def __init__(
        self,
        state_dim: int,
        num_actions: int,
        hidden: Sequence[int] = (128, 64),
        learning_rate: float = 1e-4,
        seed: int = 0,
    ):
        self.state_dim = state_dim
        self.num_actions = num_actions
        self.learning_rate = learning_rate
        rng = np.random.RandomState(seed)
        dims = [state_dim, *hidden, num_actions]
        self.layers: List[DenseLayer] = [
            DenseLayer(rng, dims[i], dims[i + 1], relu=(i + 1 < len(dims) - 1))
            for i in range(len(dims) - 1)
        ]
        self._adam_t = 0

    @property
    def dtype(self) -> np.dtype:
        """The compute dtype: inputs are cast to it once, on entry."""
        return self.layers[0].weight.dtype

    # -- inference ----------------------------------------------------------
    def predict(self, states: np.ndarray) -> np.ndarray:
        """Q-values (in :attr:`dtype`) for a batch (or single) state.

        The one cast to :attr:`dtype` is a no-op for the float32 states
        the environment and the replay memory hand over every step.
        """
        x = np.asarray(states, dtype=self.dtype)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[np.newaxis, :]
        for layer in self.layers:
            _, x = layer.forward(x)
        return x[0] if squeeze else x

    # -- training -------------------------------------------------------------
    def train_batch(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        targets: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]],
        huber_delta: float = 1.0,
        sample_weights: Optional[np.ndarray] = None,
        return_td_errors: bool = False,
        next_states: Optional[np.ndarray] = None,
    ) -> Any:
        """One Adam step fitting Q(s, a) toward ``targets``; returns loss.

        ``sample_weights`` scales each row's loss and gradient — the
        importance-sampling correction of prioritized replay. With
        ``return_td_errors`` the per-row signed TD errors (pre-clip,
        pre-weight) come back alongside the loss so the caller can feed
        new priorities to the buffer.

        With ``next_states`` (Double DQN), ``targets`` is a function from
        this network's Q-values of ``next_states`` to the targets. Those
        rows ride in one stacked forward with ``states``, so the online
        network runs one GEMM chain per update; backward reads only the
        ``states`` half of the activations.
        """
        x = np.atleast_2d(np.asarray(states, dtype=self.dtype))
        batch = x.shape[0]
        if next_states is not None:
            x = np.concatenate(
                (x, np.atleast_2d(np.asarray(next_states, dtype=self.dtype)))
            )
        activations: List[np.ndarray] = [x]
        pres: List[np.ndarray] = []
        h = x
        for layer in self.layers:
            pre, h = layer.forward(h)
            pres.append(pre)
            activations.append(h)
        if next_states is not None:
            targets = targets(h[batch:])
            activations = [a[:batch] for a in activations]
            pres = [p[:batch] for p in pres]
        q = activations[-1]
        targets = np.asarray(targets, dtype=self.dtype)

        rows = np.arange(batch)
        error = q[rows, actions] - targets
        # Huber loss and its gradient (the clipped error).
        grad_picked = np.clip(error, -huber_delta, huber_delta)
        abs_error = np.abs(error)
        huber = np.where(
            abs_error <= huber_delta,
            0.5 * error**2,
            huber_delta * (abs_error - 0.5 * huber_delta),
        )
        if sample_weights is not None:
            row_weights = np.asarray(sample_weights, dtype=self.dtype).ravel()
            grad_picked *= row_weights
            huber *= row_weights
        grad_picked /= batch
        loss = float(np.mean(huber))

        grad_q = np.zeros_like(q)
        grad_q[rows, actions] = grad_picked

        self._adam_t += 1
        grad = grad_q
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            grad, grad_w, grad_b = layer.backward(
                activations[i], pres[i], grad, input_grad=i > 0
            )
            self._adam_step(layer, grad_w, grad_b)
        if return_td_errors:
            return loss, error
        return loss

    def _adam_step(
        self, layer: DenseLayer, grad_w: np.ndarray, grad_b: np.ndarray,
        beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
    ) -> None:
        adam_step(
            layer, grad_w, grad_b, self._adam_t, self.learning_rate,
            beta1=beta1, beta2=beta2, eps=eps,
        )

    # -- weight management ------------------------------------------------------
    def get_weights(self) -> List[np.ndarray]:
        out: List[np.ndarray] = []
        for layer in self.layers:
            out.append(layer.weight.copy())
            out.append(layer.bias.copy())
        return out

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        assert len(weights) == 2 * len(self.layers)
        for i, layer in enumerate(self.layers):
            layer.weight[...] = weights[2 * i]
            layer.bias[...] = weights[2 * i + 1]

    def copy_from(self, other: "QNetwork") -> None:
        self.set_weights(other.get_weights())

    @property
    def hidden(self) -> Tuple[int, ...]:
        """Hidden-layer widths (every layer output except the head's)."""
        return tuple(layer.weight.shape[1] for layer in self.layers[:-1])

    def save(self, path: str, metadata: Optional[Dict[str, Any]] = None) -> None:
        arrays = {f"p{i}": w for i, w in enumerate(self.get_weights())}
        # ``meta`` carries the architecture: without the hidden widths a
        # checkpoint from a non-default network silently mis-shaped (or
        # crashed) on load.
        arrays["meta"] = np.array(
            [self.state_dim, self.num_actions, self.learning_rate]
        )
        arrays["hidden"] = np.array(self.hidden, dtype=np.int64)
        if metadata:
            # Free-form provenance (action-space name, training stats, …)
            # consumed by the serving model registry. JSON keeps the
            # checkpoint a single self-describing file.
            arrays["metadata_json"] = np.array(json.dumps(metadata))
        np.savez(path, **arrays)

    @staticmethod
    def load_metadata(path: str) -> Dict[str, Any]:
        """Provenance metadata embedded in a checkpoint (``{}`` if none)."""
        data = np.load(path)
        if "metadata_json" in data.files:
            return json.loads(data["metadata_json"].item())
        return {}

    @classmethod
    def load(cls, path: str, hidden: Optional[Sequence[int]] = None) -> "QNetwork":
        """Restore a checkpoint.

        The architecture is read from the file itself: the ``hidden``
        array when present, otherwise (legacy checkpoints) inferred from
        the stored weight-matrix shapes. An explicit ``hidden`` argument
        is validated against the file rather than trusted.
        """
        data = np.load(path)
        meta = data["meta"]
        if "hidden" in data.files:
            stored: Tuple[int, ...] = tuple(int(h) for h in data["hidden"])
        else:
            param_keys = [k for k in data.files if k.startswith("p")]
            n_layers = len(param_keys) // 2
            stored = tuple(
                int(data[f"p{2 * i}"].shape[1]) for i in range(n_layers - 1)
            )
        if hidden is not None and tuple(hidden) != stored:
            raise ValueError(
                f"checkpoint {path!r} has hidden layers {stored}, "
                f"not {tuple(hidden)}"
            )
        net = cls(int(meta[0]), int(meta[1]), stored, float(meta[2]))
        weights = [data[f"p{i}"] for i in range(2 * len(net.layers))]
        net.set_weights(weights)
        return net
