"""Client-side minibatch SGD solvers.

Three update rules are supported:

* ``vanilla``:   w' = w - eta * g
* ``momentum``:  u' = gamma * u + g;  w' = w - eta * u'
* ``fedprox``:   w' = w - eta * g - eta * mu * (w - anchor)

where ``anchor`` is the community model the learner received at fetch time.
The momentum buffer starts at zero for every assignment, i.e. it is reset
whenever a learner fetches a fresh community model. Momentum has this one
form: the learning rate is constant, so the velocity form
(v' = gamma * v - eta * g; w' = w + v', with v = -eta * u) is the same
trajectory up to rounding. :func:`run_client_opt` applies the rules in
place to a whole cohort of learners at once; the reference form of each
rule, one learner and one out-of-place step at a time, is ``step_*`` in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .params import (
    NonFiniteError,
    ParamSet,
    _check_same_structure,
    all_finite,
    layer_spans,
    split_rows,
)

OPTIMIZER_KINDS = ("vanilla", "momentum", "fedprox")


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters for a local solver.

    ``gamma`` only applies to ``momentum`` and ``mu`` only to ``fedprox``;
    both are ignored by the other kinds.
    """

    kind: str
    eta: float
    gamma: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.mu < 0:
            raise ValueError(f"mu must be non-negative, got {self.mu}")


def assignment_batches(
    indices: np.ndarray, batch_size: int, rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """Yield the batches of an epoch-shuffled stream over the shard, mapped
    through ``indices``.

    Each epoch is a fresh permutation of the shard, cut into
    ceil(n / batch_size) batches, the last one possibly short; the stream
    is infinite, so a final fractional epoch uses a prefix of its
    permutation. ``epoch_batches`` in ``tests/oracles.py`` defines this
    order; this draws the same permutations from ``rng`` in the same order,
    each when its epoch's first batch is asked for, and maps each through
    ``indices`` in one fancy index, so a step costs no index and an
    assignment holds one epoch's rows, whatever its budget.
    """
    n = len(indices)
    _check_batching(n, batch_size)
    while True:
        rows = indices[rng.permutation(n)]
        for lo in range(0, n, batch_size):
            yield rows[lo : lo + batch_size]


def _check_batching(num_examples: int, batch_size: int) -> None:
    if num_examples <= 0:
        raise ValueError("cannot draw batches from an empty local dataset")
    if batch_size <= 0:
        raise ValueError(f"batch size must be positive, got {batch_size}")


# grad_fn(W, rows, out): W and out are per-layer (m, *shape) views
# (split_rows) of m learners' live weights and of their gradient rows, and
# rows (m, n) holds one batch of example indices per learner; writes the m
# minibatch gradients into out.
GradFn = Callable[[list, np.ndarray, list], None]


def run_client_opt(
    starts: Sequence[ParamSet],
    budgets: Sequence[int],
    batch_streams: Sequence[Iterable[np.ndarray]],
    cfg: OptimizerConfig,
    grad_fn: GradFn,
    prox_rho: float = 0.0,
) -> list[ParamSet]:
    """Train K learners together; learner k runs ``budgets[k]`` local steps
    from ``starts[k]`` on the batches ``batch_streams[k]`` yields.

    Each learner's proximal anchor (fedprox) is its start and its momentum
    buffer starts at zero. With ``prox_rho > 0`` every gradient gets the
    pull ``prox_rho * (w - start)`` toward the start before the update.
    Returns the final weights in input order. The starts must share one
    layer structure (:class:`~fedsim.params.StructureError` otherwise).

    Weights, momentum buffers and anchors are (K, P) buffers, one row
    per learner, sorted by budget, largest first, so the learners still
    training are always a prefix. The weight and gradient buffers are split
    into per-layer views once, and each ``grad_fn`` call gets those views
    sliced to its row range (unsliced when it covers every row). Each step,
    the learners whose batches have the same length share one ``grad_fn``
    call; the weight views it gets are read-only and valid during the call.
    Learners of one length that are not adjacent rows go through gathered
    temporaries, split per call. The gradients of every step are scanned
    before the update, and a NaN/Inf entry raises
    :class:`~fedsim.params.NonFiniteError`. The first step reads the starts
    (a lone learner's in place, a cohort's stacked) and writes the new
    weights out of place, so the starts serve as the proximal anchors; later
    steps update in place over the prefix. Every update runs in the
    operation order of the ``step_*`` references in ``tests/oracles.py``,
    element by element, so every row is bit for bit what training that
    learner alone gives. A row whose budget is one step was never shown to
    ``grad_fn`` and is returned without a copy. The returned weights are
    checked too (a non-finite entry never turns finite again).
    """
    if min(budgets) < 1:
        raise ValueError(f"batch budget must be >= 1, got {min(budgets)}")
    order = sorted(range(len(starts)), key=lambda k: -budgets[k])
    first = starts[order[0]]
    for start in starts:
        _check_same_structure(first, start)
    structure = first.structure()
    spans = layer_spans(structure)
    if len(order) == 1:
        W = first.flat[None]  # a read-only view
    else:
        W = np.stack([starts[k].flat for k in order])
        W.setflags(write=False)
    # Anchors and momentum buffers exist only when an update reads them.
    # The starts serve as anchors: the first update writes out of place.
    # Momentum buffers start at zero and take u *= gamma even on the first
    # step, since 0.0 + (-0.0) is +0.0.
    A = W if cfg.kind == "fedprox" or prox_rho > 0.0 else None
    U = np.zeros(W.shape) if cfg.kind == "momentum" else None
    G = np.empty(W.shape)  # gradients; each update scales them in place
    weights, grads = split_rows(spans, W), split_rows(spans, G)
    eta = cfg.eta
    streams = [iter(batch_streams[k]) for k in order]
    row_budgets = [budgets[k] for k in order]
    m = len(order)
    for step in range(row_budgets[0]):
        while row_budgets[m - 1] <= step:
            m -= 1
        by_length: dict[int, list[int]] = {}
        batches = [next(s) for s in streams[:m]]
        for i, batch in enumerate(batches):
            by_length.setdefault(len(batch), []).append(i)
        for idx in by_length.values():
            lo, hi = idx[0], idx[-1] + 1
            if len(idx) == 1:
                rows = batches[lo][None]
            else:
                rows = np.array([batches[i] for i in idx])
            if len(idx) == len(W):  # every row: the views need no slice
                grad_fn(weights, rows, grads)
            elif hi - lo == len(idx):
                grad_fn([w[lo:hi] for w in weights], rows,
                        [g[lo:hi] for g in grads])
            else:  # other lengths sit between these rows: gather, scatter
                g = np.empty((len(idx), W.shape[1]))
                grad_fn(split_rows(spans, W[idx]), rows, split_rows(spans, g))
                G[idx] = g
        w, g = W[:m], G[:m]
        if not all_finite(g):
            raise NonFiniteError("gradient has NaN/Inf entries")
        if step == 0:
            W = np.empty(W.shape)
            live = W.view()
            live.setflags(write=False)
            weights = split_rows(spans, live)
        new = W[:m]
        if prox_rho > 0.0:
            g += prox_rho * (w - A[:m])
        if cfg.kind == "vanilla":
            g *= eta
            np.subtract(w, g, out=new)
        elif cfg.kind == "momentum":
            u = U[:m]
            u *= cfg.gamma
            u += g
            np.multiply(eta, u, out=g)
            np.subtract(w, g, out=new)
        else:
            drift = w - A[:m]
            g *= eta
            np.subtract(w, g, out=new)
            drift *= eta * cfg.mu
            new -= drift
    trained = [None] * len(order)
    for row, k in enumerate(order):
        flat = W[row] if row_budgets[row] == 1 else W[row].copy()
        trained[k] = ParamSet._wrap(structure, flat)
    return trained
