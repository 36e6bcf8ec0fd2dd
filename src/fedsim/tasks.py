"""Desk-scale classification tasks with closed-form gradients.

Two model families are available: plain softmax regression and a
one-hidden-layer MLP. Data comes from a seeded Gaussian mixture, one
cluster per class, so experiments are reproducible end to end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .params import NonFiniteError, ParamSet, all_finite

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


@functools.lru_cache(maxsize=64)
def _layout(model: TaskModel) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(start, stop, shape) of each layer inside a flat parameter row, in
    ParamSet order (W, b or W1, b1, W2, b2)."""
    d, c = model.input_dim, model.num_classes
    if model.kind == "softmax_regression":
        shapes = [(d, c), (c,)]
    else:
        h = model.hidden_dim
        shapes = [(d, h), (h,), (h, c), (c,)]
    spans, lo = [], 0
    for shape in shapes:
        hi = lo + math.prod(shape)
        spans.append((lo, hi, shape))
        lo = hi
    return tuple(spans)


def zero_params(model: TaskModel) -> ParamSet:
    """All-zero parameters for the given model shape."""
    names = ("W", "b") if model.kind == "softmax_regression" else (
        "W1", "b1", "W2", "b2"
    )
    return ParamSet(names, [np.zeros(shape) for _, _, shape in _layout(model)])


def _split(model: TaskModel, rows: np.ndarray) -> list[np.ndarray]:
    """Per-layer ``(G, *shape)`` views of stacked flat parameter rows."""
    layout = _layout(model)
    G, P = rows.shape
    if P != layout[-1][1]:
        raise ValueError(
            f"{model.kind} has {layout[-1][1]} parameters, rows hold {P}"
        )
    return [rows[:, lo:hi].reshape(G, *shape) for lo, hi, shape in layout]


def _forward(model: TaskModel, layers: list[np.ndarray], X: np.ndarray):
    """Stacked forward pass of G models over G batches.

    ``layers`` are :func:`_split` views of (G, P) parameter rows and ``X``
    is (G, n, d). Returns (logits, hidden pre-activation, hidden
    activation), each (G, n, ·).
    """
    if model.kind == "softmax_regression":
        w, b = layers
        return X @ w + b[:, None, :], None, None
    w1, b1, w2, b2 = layers
    z1 = X @ w1 + b1[:, None, :]
    if model.activation == "relu":
        h = np.maximum(z1, 0.0)
    else:
        h = np.tanh(z1)
    return h @ w2 + b2[:, None, :], z1, h


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _mean_nll(logp: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of ``labels`` under one batch's (n, c)
    log-probabilities."""
    n = len(labels)
    return float(-logp[np.arange(n), labels].mean())


def stacked_grad(
    model: TaskModel,
    W: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Exact mean cross-entropy gradients of G models on G batches.

    Row g of ``W`` (G, P) holds one model's flat parameters, ``X[g]`` (n, d)
    and ``y[g]`` (n,) its batch; row g of ``out`` (G, P) receives its
    gradient, laid out like ``W``. Every product is a stacked
    ``np.matmul`` whose per-row operands have the shapes and strides a lone
    model's would, so BLAS gets the same call per row and each row is bit
    for bit the gradient of that model alone (the goldens and the cohort
    property tests check this). Returns the (G, n, c) log-probabilities; raises
    :class:`~fedsim.params.NonFiniteError` when a gradient entry is NaN/Inf.
    """
    G, n = y.shape
    if n == 0:
        raise ValueError("empty batch")
    layers = _split(model, W)
    logits, z1, hidden = _forward(model, layers, X)
    logp = _log_softmax(logits)
    dlogits = np.exp(logp)  # fresh and contiguous: the reshape is a view
    dlogits.reshape(G * n, -1)[np.arange(G * n), y.ravel()] -= 1.0
    dlogits /= n
    grads = _split(model, out)
    XT = X.transpose(0, 2, 1)
    if model.kind == "softmax_regression":
        np.matmul(XT, dlogits, out=grads[0])
        np.add.reduce(dlogits, axis=1, out=grads[1])
    else:
        np.matmul(hidden.transpose(0, 2, 1), dlogits, out=grads[2])
        np.add.reduce(dlogits, axis=1, out=grads[3])
        dh = dlogits @ layers[2].transpose(0, 2, 1)
        if model.activation == "relu":
            dz1 = dh * (z1 > 0.0)
        else:
            dz1 = dh * (1.0 - np.tanh(z1) ** 2)
        np.matmul(XT, dz1, out=grads[0])
        np.add.reduce(dz1, axis=1, out=grads[1])
    if not all_finite(out):
        raise NonFiniteError("gradient has NaN/Inf entries")
    return logp


def loss_and_grad(
    model: TaskModel, w: ParamSet, features: np.ndarray, labels: np.ndarray
) -> tuple[float, ParamSet]:
    """Mean softmax cross-entropy over the batch and its exact gradient.

    The G = 1 case of :func:`stacked_grad`.
    """
    out = np.empty((1, w.num_entries))
    logp = stacked_grad(model, w.flat[None], features[None], labels[None], out)
    return _mean_nll(logp[0], labels), ParamSet._wrap(w.structure(), out[0])


def evaluate(model: TaskModel, w: ParamSet, data: Dataset) -> tuple[float, float]:
    """(accuracy, mean loss) on the full dataset.

    Prediction is argmax over logits; ties resolve to the lowest class id.
    """
    layers = _split(model, w.flat[None])
    logits = _forward(model, layers, data.features[None])[0][0]
    pred = np.argmax(logits, axis=1)
    accuracy = float(np.mean(pred == data.labels))
    return accuracy, _mean_nll(_log_softmax(logits), data.labels)
