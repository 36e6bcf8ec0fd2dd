"""Reference forms the test suite checks fedsim against, and shared helpers.

Nothing here runs under ``fedsim run``. Each reference is the plain,
out-of-place definition of what the fast code does in place: the
``ParamSet`` arithmetic, the synthetic mixture's class means, one
learner's gradient, the three local update rules (FedProx's proximal step
per Li et al., arXiv 1812.06127) and the epoch-shuffled batch stream.
``train_alone`` folds them into one learner's assignment, the form pool
training and ``run_policy`` must match bit for bit. The rest are helpers
several test files share: ``run_client_opt`` (one pool trains a list of
learners), file-tree digests, layer lookup by name, flat-vector views,
central differences and loading a script of ``tools/``.
"""

import hashlib
import importlib.util
import json
import os
from pathlib import Path

import numpy as np

from fedsim.engine import _TRAIN_STREAM
from fedsim.optimizers import TrainingPool, _check_batching
from fedsim.params import (
    ParamSet, _check_same_structure, layer_spans,
)
from fedsim.tasks import _MEAN_SCALE, model_structure


# ParamSet arithmetic, one vector operation each.

def zeros_like(proto):
    """All-zero ParamSet with the same layer names and shapes as ``proto``."""
    return ParamSet._wrap(proto.structure(), np.zeros_like(proto.flat))


def axpy(alpha, x, y):
    """Elementwise ``alpha * x + y``."""
    _check_same_structure(x, y)
    return ParamSet._wrap(x.structure(), alpha * x.flat + y.flat)


def scale(alpha, x):
    """Elementwise ``alpha * x``."""
    return ParamSet._wrap(x.structure(), alpha * x.flat)


def max_abs_diff(x, y):
    """Largest elementwise absolute difference between two ParamSets."""
    _check_same_structure(x, y)
    if x.flat.size == 0:
        return 0.0
    return float(np.max(np.abs(x.flat - y.flat)))


def equal(x, y):
    """True when every entry compares equal (no tolerance)."""
    _check_same_structure(x, y)
    return np.array_equal(x.flat, y.flat)


# The one ``format_version`` of ``final_model.json`` this reader accepts.
SERIALIZATION_VERSION = 1


def from_obj(obj):
    """The model in ``obj``, the JSON form of ``final_model.json``: a
    layer-name header plus each layer's flat data."""
    version = obj.get("format_version")
    if version != SERIALIZATION_VERSION:
        raise ValueError(
            f"unsupported parameter format version {version!r}, "
            f"expected {SERIALIZATION_VERSION}"
        )
    names = []
    arrays = []
    for layer in obj["layers"]:
        names.append(layer["name"])
        arrays.append(
            np.asarray(layer["data"], dtype=np.float64).reshape(layer["shape"])
        )
    return ParamSet(names, arrays)


def load(path):
    """The model stored at ``path`` as ``fedsim.runner.export_metrics``
    writes ``final_model.json``."""
    with open(path, "r", encoding="utf-8") as fh:
        return from_obj(json.load(fh))


# The synthetic mixture.

def class_means(num_classes, input_dim, seed):
    """The cluster means ``gen_synthetic(num_classes, _, input_dim, _,
    seed)`` draws its examples around, one row per class."""
    rng = np.random.default_rng([seed, 0])
    return _MEAN_SCALE * rng.standard_normal((num_classes, input_dim))


# One model's loss and gradient.

def zero_params(model):
    """All-zero parameters for the given model shape."""
    structure = model_structure(model)
    return ParamSet._wrap(structure, np.zeros(layer_spans(structure)[-1][1]))


def loss_and_grad(model, w, features, labels):
    """Mean softmax cross-entropy over the batch and its exact gradient.

    One model, written per kind with no stacking: the reference every row
    of ``fedsim.tasks.stacked_grad`` must equal bit for bit.
    """
    n = len(labels)
    if model.kind == "softmax_regression":
        W, b = w.arrays
        x = features
        logits = x @ W + b
    else:
        W1, b1, W2, b2 = w.arrays
        x = features @ W1 + b1
        x = np.maximum(x, 0.0) if model.activation == "relu" else np.tanh(x)
        logits = x @ W2 + b2
    logp = logits - logits.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(n), labels].mean())
    d = np.exp(logp)
    d[np.arange(n), labels] -= 1.0
    d /= n
    grads = [x.T @ d, d.sum(axis=0)]
    if model.kind == "mlp1":
        dz = d @ W2.T
        dz *= (x > 0.0) if model.activation == "relu" else 1.0 - x ** 2
        grads = [features.T @ dz, dz.sum(axis=0)] + grads
    return loss, ParamSet(w.names, grads)


# The local update rules and the batch order.

def step_vanilla(w, grad, cfg):
    return axpy(-cfg.eta, grad, w)


def step_momentum(w, u, grad, cfg):
    """One momentum step; returns (new weights, new buffer)."""
    u_next = axpy(1.0, grad, scale(cfg.gamma, u))
    return axpy(-cfg.eta, u_next, w), u_next


def step_fedprox(w, anchor, grad, cfg):
    drift = axpy(-1.0, anchor, w)
    return axpy(-cfg.eta * cfg.mu, drift, axpy(-cfg.eta, grad, w))


def epoch_batches(num_examples, batch_size, rng):
    """Yield minibatch index arrays, reshuffling at every epoch boundary.

    Each epoch emits ceil(num_examples / batch_size) batches; the last one
    may be short. The stream is infinite, so a fractional final epoch simply
    consumes a prefix of the freshly shuffled order.
    """
    _check_batching(num_examples, batch_size)
    while True:
        order = rng.permutation(num_examples)
        for lo in range(0, num_examples, batch_size):
            yield order[lo : lo + batch_size]


def reference_opt(start, budget, stream, cfg, grad):
    """``budget`` steps from ``start``, folding the ``step_*`` rules over
    ``grad(w, batch)`` on the batches ``stream`` yields; the proximal
    anchor is ``start`` and the momentum buffer starts at zero."""
    w, u = start, zeros_like(start)
    for _ in range(budget):
        g = grad(w, next(stream))
        if cfg.kind == "vanilla":
            w = step_vanilla(w, g, cfg)
        elif cfg.kind == "momentum":
            w, u = step_momentum(w, u, g, cfg)
        else:
            w = step_fedprox(w, start, g, cfg)
    return w


def train_alone(task, data, p, start, budget, cfg, seed, assignment,
                rho=0.0):
    """Learner ``p``'s ``assignment``-th assignment, ``budget`` steps from
    ``start`` on its shard of ``data``, each gradient pulled toward
    ``start`` by ``rho`` when ``rho > 0``."""
    rng = np.random.default_rng(
        [seed, _TRAIN_STREAM, p.learner_id, assignment]
    )

    def grad(w, batch):
        rows = p.indices[batch]
        _, g = loss_and_grad(task, w, data.features[rows], data.labels[rows])
        return axpy(rho, axpy(-1.0, start, w), g) if rho > 0.0 else g

    stream = epoch_batches(p.data_size, p.batch_size, rng)
    return reference_opt(start, budget, stream, cfg, grad)


# Shared helpers.

def run_client_opt(starts, budgets, batch_streams, cfg, grad_fn,
                   prox_rho=0.0, capacity=None):
    """Train learner k ``budgets[k]`` steps from ``starts[k]`` on
    ``batch_streams[k]``: join every learner into one ``TrainingPool`` of
    ``capacity`` rows (all of them by default), then step it until it
    empties. Returns the weights in input order; raises the first error a
    learner's training hit, in input order."""
    pool = TrainingPool(starts[0].structure(), capacity or len(starts), cfg,
                        grad_fn, prox_rho)
    for k, (start, budget, stream) in enumerate(
            zip(starts, budgets, batch_streams)):
        pool.join(k, start, budget, stream)
    results = {}
    while len(pool):
        results.update(pool.step())
    trained = [results[k] for k in range(len(starts))]
    for result in trained:
        if isinstance(result, Exception):
            raise result
    return trained


def digest_tree(root, skip=()):
    """{path under ``root``, '/'-separated: sha256} of every file below
    ``root`` whose name is not in ``skip``."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if name in skip:
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def layer(params, name):
    """The array of ``params``' layer ``name``."""
    return params.arrays[params.names.index(name)]


def unflat(proto, vec):
    """The flat vector ``vec`` as a ParamSet laid out like ``proto``."""
    return ParamSet(proto.names, [vec[lo:hi].reshape(shape) for lo, hi, shape
                                  in layer_spans(proto.structure())])


def central_diff(f, theta, h=1e-6):
    """Numeric gradient of the scalar function ``f`` at the vector
    ``theta``, entry by entry."""
    out = np.empty_like(theta)
    for i in range(theta.size):
        bump = theta.copy()
        bump[i] += h
        hi = f(bump)
        bump[i] -= 2 * h
        lo = f(bump)
        out[i] = (hi - lo) / (2 * h)
    return out


def rel_err(num, ana):
    """Largest entrywise gap, relative to the larger magnitude or 1."""
    denom = np.maximum(1.0, np.maximum(np.abs(num), np.abs(ana)))
    return float(np.max(np.abs(num - ana) / denom))


def load_tool(name):
    """The module ``tools/<name>.py``, loaded from its file: the tools are
    scripts, not a package."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
