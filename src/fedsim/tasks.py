"""Desk-scale classification tasks with closed-form gradients.

Two model families are available: plain softmax regression and a
one-hidden-layer MLP. Data comes from a seeded Gaussian mixture, one
cluster per class, so experiments are reproducible end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ParamSet, Structure, layer_spans, split_rows

TASK_KINDS = ("softmax_regression", "mlp1")
ACTIVATIONS = ("relu", "tanh")

# Class means are standard normal draws scaled by this factor, which keeps
# clusters separated by a few spread units at the default spread of 1.
_MEAN_SCALE = 3.0


@dataclass(frozen=True)
class TaskModel:
    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0
    activation: str = "relu"

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.input_dim < 1 or self.num_classes < 2:
            raise ValueError(
                f"need input_dim >= 1 and num_classes >= 2, got "
                f"{self.input_dim} and {self.num_classes}"
            )
        if self.kind == "mlp1":
            if self.hidden_dim < 1:
                raise ValueError("mlp1 needs hidden_dim >= 1")
            if self.activation not in ACTIVATIONS:
                raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class Dataset:
    """Feature matrix (n, d) with integer labels (n,)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __len__(self) -> int:
        return len(self.labels)


def gen_synthetic(
    num_classes: int,
    per_class: int,
    input_dim: int,
    cluster_spread: float,
    seed: int,
    sample_tag: int = 0,
) -> Dataset:
    """Gaussian-mixture classification data, one isotropic cluster per class.

    The class means depend only on ``seed``; the examples additionally depend
    on ``sample_tag``, so a held-out set drawn from the same mixture is
    ``gen_synthetic(..., seed, sample_tag=1)``. Examples are laid out
    class-major (all of class 0 first).
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if cluster_spread < 0:
        raise ValueError("cluster_spread must be non-negative")
    mean_rng = np.random.default_rng([seed, 0])
    means = _MEAN_SCALE * mean_rng.standard_normal((num_classes, input_dim))
    sample_rng = np.random.default_rng([seed, 1 + sample_tag])
    noise = sample_rng.standard_normal((num_classes, per_class, input_dim))
    # In place: the same bits as means + spread * noise, since IEEE addition
    # commutes, without two full-size temporaries.
    noise *= cluster_spread
    noise += means[:, None, :]
    features = noise.reshape(num_classes * per_class, input_dim)
    labels = np.repeat(np.arange(num_classes), per_class)
    return Dataset(features, labels, num_classes)


def model_structure(model: TaskModel) -> Structure:
    """Each layer's (name, shape), in ParamSet order."""
    d, c = model.input_dim, model.num_classes
    if model.kind == "softmax_regression":
        return (("W", (d, c)), ("b", (c,)))
    h = model.hidden_dim
    return (("W1", (d, h)), ("b1", (h,)), ("W2", (h, c)), ("b2", (c,)))


def init_params(model: TaskModel, rng: np.random.Generator) -> ParamSet:
    """Uniform(-r, r) weight init with r = 1/sqrt(fan_in); zero biases.

    The weight matrices draw from ``rng`` in layer order.
    """
    structure = model_structure(model)
    arrays = []
    for _, shape in structure:
        r = 1.0 / math.sqrt(shape[0])
        arrays.append(
            rng.uniform(-r, r, size=shape) if len(shape) == 2
            else np.zeros(shape)
        )
    return ParamSet([name for name, _ in structure], arrays)


def _forward(model: TaskModel, layers: list[np.ndarray], X: np.ndarray):
    """Stacked forward pass of G models over G batches.

    ``layers`` are per-layer views of (G, P) parameter rows and ``X`` is
    (G, n, d). Returns (logits, hidden activation), each (G, n, ·) and
    fresh; the hidden activation is None for softmax regression.
    """
    if model.kind == "softmax_regression":
        w, b = layers
        logits = X @ w
        logits += b[:, None, :]
        return logits, None
    w1, b1, w2, b2 = layers
    h = X @ w1
    h += b1[:, None, :]
    if model.activation == "relu":
        np.maximum(h, 0.0, out=h)
    else:
        np.tanh(h, out=h)
    logits = h @ w2
    logits += b2[:, None, :]
    return logits, h


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis, computed in place in
    ``logits``."""
    logits -= logits.max(axis=-1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    return logits


def _mean_nll(logp: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of ``labels`` under one batch's (n, c)
    log-probabilities."""
    n = len(labels)
    return float(-logp[np.arange(n), labels].mean())


def stacked_grad(
    model: TaskModel,
    layers: list[np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
    grads: list[np.ndarray],
) -> np.ndarray:
    """Exact mean cross-entropy gradients of G models on G batches.

    ``layers`` holds the G models' weights and ``grads`` receives their
    gradients, each as per-layer ``(G, *shape)`` views of (G, P) flat rows
    in the model's layout (:func:`~fedsim.params.split_rows`); the caller
    splits its buffers once and slices the views per row range. ``X[g]``
    (n, d) and ``y[g]`` (n,) are model g's batch. Every product is a
    stacked ``np.matmul`` whose per-row operands have the shapes and strides
    a lone model's would, so BLAS gets the same call per row and each row is
    bit for bit the gradient of that model alone (the goldens and the pool
    property tests check this). The forward pass and the log-softmax run in
    place in fresh buffers. Returns the (G, n, c) log-probabilities. The
    gradients are not scanned: a caller that keeps them checks them, as
    :class:`~fedsim.optimizers.TrainingPool` does every step.
    """
    G, n = y.shape
    if n == 0:
        raise ValueError("empty batch")
    logits, hidden = _forward(model, layers, X)
    logp = _log_softmax(logits)
    dlogits = np.exp(logp)  # fresh and contiguous: the reshape is a view
    c = dlogits.shape[-1]
    dlogits.reshape(-1)[np.arange(0, G * n * c, c) + y.ravel()] -= 1.0
    dlogits /= n
    XT = X.transpose(0, 2, 1)
    if model.kind == "softmax_regression":
        np.matmul(XT, dlogits, out=grads[0])
        np.add.reduce(dlogits, axis=1, out=grads[1])
    else:
        np.matmul(hidden.transpose(0, 2, 1), dlogits, out=grads[2])
        np.add.reduce(dlogits, axis=1, out=grads[3])
        dz1 = dlogits @ layers[2].transpose(0, 2, 1)
        # The activation's derivative, taken from its output.
        if model.activation == "relu":
            dz1 *= hidden > 0.0
        else:
            dz1 *= 1.0 - hidden ** 2
        np.matmul(XT, dz1, out=grads[0])
        np.add.reduce(dz1, axis=1, out=grads[1])
    return logp


def evaluate(model: TaskModel, w: ParamSet, data: Dataset) -> tuple[float, float]:
    """(accuracy, mean loss) on the full dataset.

    Prediction is argmax over logits; ties resolve to the lowest class id.
    """
    layers = split_rows(layer_spans(model_structure(model)), w.flat[None])
    logits = _forward(model, layers, data.features[None])[0][0]
    pred = np.argmax(logits, axis=1)
    accuracy = float(np.mean(pred == data.labels))
    return accuracy, _mean_nll(_log_softmax(logits), data.labels)
