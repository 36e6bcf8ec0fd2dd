"""Desk-scale classification tasks with closed-form gradients.

Two model families are available: plain softmax regression and a
one-hidden-layer MLP. Each is a chain of (weight, bias) pairs, laid out
by :func:`model_structure`, with the activation between pairs: softmax
regression is one pair and the MLP two. The forward pass and the gradient
kernel walk the pairs, so no code past the layout tells the kinds apart.
Data comes from a seeded Gaussian mixture, one cluster per class, so
experiments are reproducible end to end.
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
    """Each layer's (name, shape), in ParamSet order: the model's (weight,
    bias) pairs, input side first."""
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

    ``layers`` are per-layer views of (G, P) parameter rows, the (weight,
    bias) pairs :func:`model_structure` lays out, and ``X`` is (G, n, d).
    Each pair maps its input to ``input @ weight + bias``, and the
    activation runs in place between pairs. Returns the logits and the
    list of each pair's input (``X``, then each hidden activation), all
    (G, n, ·) and all fresh but ``X``.
    """
    inputs, a = [], X
    for i in range(0, len(layers), 2):
        if i:  # a hidden layer's output
            if model.activation == "relu":
                np.maximum(a, 0.0, out=a)
            else:
                np.tanh(a, out=a)
        inputs.append(a)
        a = a @ layers[i]
        a += layers[i + 1][:, None, :]
    return a, inputs


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis, computed in place in
    ``logits``."""
    # The ufunc reductions ``.max`` and ``.sum`` call, minus their wrapper.
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    logits -= np.log(np.add.reduce(np.exp(logits), axis=-1, keepdims=True))
    return logits


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
    (n, d) and ``y[g]`` (n,) are model g's batch. The backward pass walks
    the (weight, bias) pairs last first: a pair's weight gradient is its
    input against the gradient of its output, its bias gradient that
    gradient summed over the batch, and the gradient goes on to the pair
    below through the weight and the activation's derivative, taken from
    the activation's output. Every product is a stacked ``np.matmul``
    whose per-row operands have the shapes and strides a lone model's
    would, so BLAS gets the same call per row and each row is bit for bit
    the gradient of that model alone (``tests/oracles.loss_and_grad`` is
    that one-model reference, and a property test holds every row to it).
    The forward pass and the log-softmax run in place in fresh buffers.
    Returns the (G, n, c) log-probabilities. The gradients are not
    scanned: a NaN or Inf entry reaches the weights it updates, and
    :class:`~fedsim.optimizers.TrainingPool` checks those as they leave.
    """
    G, n = y.shape
    if n == 0:
        raise ValueError("empty batch")
    logits, inputs = _forward(model, layers, X)
    logp = _log_softmax(logits)
    d = np.exp(logp)  # fresh and contiguous: the reshape is a view
    c = d.shape[-1]
    d.reshape(-1)[np.arange(0, G * n * c, c) + y.ravel()] -= 1.0
    d /= n
    for i in range(len(layers) - 2, -1, -2):  # the pairs, last first
        a = inputs.pop()
        np.matmul(a.transpose(0, 2, 1), d, out=grads[i])
        np.add.reduce(d, axis=1, out=grads[i + 1])
        if i:
            d = d @ layers[i].transpose(0, 2, 1)
            if model.activation == "relu":
                d *= a > 0.0
            else:
                d *= 1.0 - a ** 2
    return logp


def evaluate(model: TaskModel, w: ParamSet, data: Dataset) -> tuple[float, float]:
    """(accuracy, mean loss) on the full dataset.

    Prediction is argmax over logits; ties resolve to the lowest class id.
    """
    layers = split_rows(layer_spans(model_structure(model)), w.flat[None])
    logits = _forward(model, layers, data.features[None])[0][0]
    pred = np.argmax(logits, axis=1)
    accuracy = float(np.mean(pred == data.labels))
    logp = _log_softmax(logits)
    return accuracy, float(-logp[np.arange(len(data)), data.labels].mean())
