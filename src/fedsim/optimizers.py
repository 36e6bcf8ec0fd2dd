"""Client-side minibatch SGD solvers.

Three update rules are supported:

* ``vanilla``:   w' = w - eta * g
* ``momentum``:  u' = gamma * u + g;  w' = w - eta * u'
* ``fedprox``:   w' = w - eta * g - eta * mu * (w - anchor)

where ``anchor`` is the community model the learner received at fetch time.
The momentum buffer starts at zero for every assignment, i.e. it is reset
whenever a learner fetches a fresh community model. The ``step_*``
functions are the reference form of each rule; :func:`run_client_opt`
applies them in place to a whole cohort of learners at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .params import ParamSet, axpy, scale

OPTIMIZER_KINDS = ("vanilla", "momentum", "fedprox")


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters for a local solver.

    ``gamma`` only applies to ``momentum`` and ``mu`` only to ``fedprox``;
    both are ignored by the other kinds. ``eta_in_velocity`` selects an
    alternative momentum form that folds the learning rate into the buffer
    (u' = gamma * u - eta * g; w' = w + u'), kept for comparison runs.
    """

    kind: str
    eta: float
    gamma: float = 0.0
    mu: float = 0.0
    eta_in_velocity: bool = False

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.mu < 0:
            raise ValueError(f"mu must be non-negative, got {self.mu}")


def step_vanilla(w: ParamSet, grad: ParamSet, cfg: OptimizerConfig) -> ParamSet:
    return axpy(-cfg.eta, grad, w)


def step_momentum(
    w: ParamSet, u: ParamSet, grad: ParamSet, cfg: OptimizerConfig
) -> tuple[ParamSet, ParamSet]:
    """One momentum step; returns (new weights, new buffer)."""
    if cfg.eta_in_velocity:
        u_next = axpy(-cfg.eta, grad, scale(cfg.gamma, u))
        return axpy(1.0, u_next, w), u_next
    u_next = axpy(1.0, grad, scale(cfg.gamma, u))
    return axpy(-cfg.eta, u_next, w), u_next


def step_fedprox(
    w: ParamSet, anchor: ParamSet, grad: ParamSet, cfg: OptimizerConfig
) -> ParamSet:
    drift = axpy(-1.0, anchor, w)
    return axpy(-cfg.eta * cfg.mu, drift, axpy(-cfg.eta, grad, w))


def epoch_batches(
    num_examples: int, batch_size: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Yield minibatch index arrays, reshuffling at every epoch boundary.

    Each epoch emits ceil(num_examples / batch_size) batches; the last one
    may be short. The stream is infinite, so a fractional final epoch simply
    consumes a prefix of the freshly shuffled order.
    """
    if num_examples <= 0:
        raise ValueError("cannot draw batches from an empty local dataset")
    if batch_size <= 0:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    while True:
        order = rng.permutation(num_examples)
        for lo in range(0, num_examples, batch_size):
            yield order[lo : lo + batch_size]


# grad_fn(W, rows, out): W (m, P) holds m learners' live weights and rows
# (m, n) one batch of example indices per learner; writes the m minibatch
# gradients into out (m, P).
GradFn = Callable[[np.ndarray, np.ndarray, np.ndarray], None]


def run_client_opt(
    starts: Sequence[ParamSet],
    budgets: Sequence[int],
    batch_streams: Sequence[Iterator[np.ndarray]],
    cfg: OptimizerConfig,
    grad_fn: GradFn,
    prox_rho: float = 0.0,
) -> list[ParamSet]:
    """Train K learners together; learner k runs ``budgets[k]`` local steps
    from ``starts[k]`` on the batches ``batch_streams[k]`` yields.

    Each learner's proximal anchor (fedprox) is its start and its momentum
    buffer starts at zero. With ``prox_rho > 0`` every gradient gets the
    pull ``prox_rho * (w - start)`` toward the start before the update.
    Returns the final weights in input order.

    Weights, momentum buffers and anchors are (K, P) buffers, one row
    per learner, sorted by budget, largest first, so the learners still
    training are always a prefix. Each step, the learners whose batches have
    the same length share one ``grad_fn`` call; the weight rows it gets are
    a read-only view valid during the call. The update then runs in place
    over the prefix in the operation order of :func:`step_vanilla`,
    :func:`step_momentum` and :func:`step_fedprox`, element by element, so
    every row is bit for bit what training that learner alone gives.
    Divergence surfaces as :class:`~fedsim.params.NonFiniteError` from
    ``grad_fn`` or from the returned weights' check (a non-finite entry
    never turns finite again).
    """
    if min(budgets) < 1:
        raise ValueError(f"batch budget must be >= 1, got {min(budgets)}")
    order = sorted(range(len(starts)), key=lambda k: -budgets[k])
    W = np.stack([starts[k].flat for k in order])
    # Anchors and momentum buffers exist only when an update reads them.
    A = W.copy() if cfg.kind == "fedprox" or prox_rho > 0.0 else None
    U = np.zeros(W.shape) if cfg.kind == "momentum" else None
    G = np.empty_like(W)  # gradients
    live = W.view()
    live.setflags(write=False)
    eta = cfg.eta
    streams = [batch_streams[k] for k in order]
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
            rows = np.array([batches[i] for i in idx])
            lo, hi = idx[0], idx[-1] + 1
            if hi - lo == len(idx):
                grad_fn(live[lo:hi], rows, G[lo:hi])
            else:  # other lengths sit between these rows: gather, scatter
                g = np.empty((len(idx), W.shape[1]))
                grad_fn(W[idx], rows, g)
                G[idx] = g
        w, g = W[:m], G[:m]
        if prox_rho > 0.0:
            g += prox_rho * (w - A[:m])
        if cfg.kind == "vanilla":
            w -= eta * g
        elif cfg.kind == "momentum":
            u = U[:m]
            u *= cfg.gamma
            if cfg.eta_in_velocity:
                u -= eta * g
                w += u
            else:
                u += g
                w -= eta * u
        else:
            drift = w - A[:m]
            w -= eta * g
            w -= (eta * cfg.mu) * drift
    trained = [None] * len(order)
    for row, k in enumerate(order):
        trained[k] = ParamSet._wrap(starts[k].structure(), W[row].copy())
    return trained
