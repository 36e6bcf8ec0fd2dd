"""Desk-scale classification tasks with closed-form gradients.

Two model families are available: plain softmax regression and a
one-hidden-layer MLP. Data comes from a seeded Gaussian mixture, one
cluster per class, so experiments are reproducible end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import ParamSet

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
    seed: int = 0
    class_means: np.ndarray | None = field(default=None, repr=False)

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
    features = (means[:, None, :] + cluster_spread * noise).reshape(
        num_classes * per_class, input_dim
    )
    labels = np.repeat(np.arange(num_classes), per_class)
    return Dataset(features, labels, num_classes, seed=seed, class_means=means)


def init_params(model: TaskModel, rng: np.random.Generator) -> ParamSet:
    """Uniform(-r, r) weight init with r = 1/sqrt(fan_in); zero biases."""
    d, c = model.input_dim, model.num_classes
    if model.kind == "softmax_regression":
        r = 1.0 / math.sqrt(d)
        return ParamSet(
            ("W", "b"), (rng.uniform(-r, r, size=(d, c)), np.zeros(c))
        )
    h = model.hidden_dim
    r1 = 1.0 / math.sqrt(d)
    r2 = 1.0 / math.sqrt(h)
    return ParamSet(
        ("W1", "b1", "W2", "b2"),
        (
            rng.uniform(-r1, r1, size=(d, h)),
            np.zeros(h),
            rng.uniform(-r2, r2, size=(h, c)),
            np.zeros(c),
        ),
    )


def zero_params(model: TaskModel) -> ParamSet:
    """All-zero parameters for the given model shape."""
    d, c = model.input_dim, model.num_classes
    if model.kind == "softmax_regression":
        return ParamSet(("W", "b"), (np.zeros((d, c)), np.zeros(c)))
    h = model.hidden_dim
    return ParamSet(
        ("W1", "b1", "W2", "b2"),
        (np.zeros((d, h)), np.zeros(h), np.zeros((h, c)), np.zeros(c)),
    )


def _forward(model: TaskModel, w: ParamSet, X: np.ndarray):
    """Returns (logits, hidden pre-activation, hidden activation)."""
    if model.kind == "softmax_regression":
        return X @ w.layer("W") + w.layer("b"), None, None
    z1 = X @ w.layer("W1") + w.layer("b1")
    if model.activation == "relu":
        h = np.maximum(z1, 0.0)
    else:
        h = np.tanh(z1)
    return h @ w.layer("W2") + w.layer("b2"), z1, h


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """(mean softmax cross-entropy, log-probabilities) of a batch."""
    n = len(labels)
    if n == 0:
        raise ValueError("empty batch")
    logp = _log_softmax(logits)
    return float(-logp[np.arange(n), labels].mean()), logp


def loss_and_grad(
    model: TaskModel, w: ParamSet, features: np.ndarray, labels: np.ndarray
) -> tuple[float, ParamSet]:
    """Mean softmax cross-entropy over the batch and its exact gradient."""
    X = features
    logits, z1, hidden = _forward(model, w, X)
    loss, logp = _cross_entropy(logits, labels)

    n = len(labels)
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    if model.kind == "softmax_regression":
        return loss, _pack(w, [X.T @ dlogits, dlogits.sum(axis=0)])
    gW2 = hidden.T @ dlogits
    gb2 = dlogits.sum(axis=0)
    dh = dlogits @ w.layer("W2").T
    if model.activation == "relu":
        dz1 = dh * (z1 > 0.0)
    else:
        dz1 = dh * (1.0 - np.tanh(z1) ** 2)
    return loss, _pack(w, [X.T @ dz1, dz1.sum(axis=0), gW2, gb2])


def _pack(w: ParamSet, layers: list[np.ndarray]) -> ParamSet:
    """Fresh layers laid out like ``w``, as one ParamSet."""
    return ParamSet._wrap(
        w.structure(), np.concatenate([a.ravel() for a in layers])
    )


def evaluate(model: TaskModel, w: ParamSet, data: Dataset) -> tuple[float, float]:
    """(accuracy, mean loss) on the full dataset.

    Prediction is argmax over logits; ties resolve to the lowest class id.
    """
    logits, _, _ = _forward(model, w, data.features)
    pred = np.argmax(logits, axis=1)
    accuracy = float(np.mean(pred == data.labels))
    loss, _ = _cross_entropy(logits, data.labels)
    return accuracy, loss
