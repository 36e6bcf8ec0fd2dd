"""Client-side minibatch SGD solvers.

Three update rules are supported:

* ``vanilla``:   w' = w - eta * g
* ``momentum``:  u' = gamma * u + g;  w' = w - eta * u'
* ``fedprox``:   w' = w - eta * g - eta * mu * (w - anchor)

where ``anchor`` is the community model the learner received at fetch time.
The momentum buffer starts at zero for every assignment, i.e. it is reset
whenever a learner fetches a fresh community model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

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


GradFn = Callable[[ParamSet, np.ndarray], ParamSet]


def run_client_opt(
    start: ParamSet,
    budget_batches: int,
    batch_stream: Iterator[np.ndarray],
    cfg: OptimizerConfig,
    grad_fn: GradFn,
) -> tuple[ParamSet, int]:
    """Run exactly ``budget_batches`` local steps from ``start``.

    ``grad_fn(w, batch)`` returns the minibatch gradient at ``w``. The
    proximal anchor (fedprox) is the starting model; the momentum buffer
    starts at zero. Returns the final weights and the number of steps taken.

    The weights, the momentum buffer and the proximal drift are private flat
    buffers updated in place, in the operation order of :func:`step_vanilla`,
    :func:`step_momentum` and :func:`step_fedprox`, so the result is bit
    for bit theirs. ``w`` is a read-only view of the live weights: it is
    valid during the ``grad_fn`` call only and changes with the next step.
    Divergence surfaces as :class:`~fedsim.params.NonFiniteError` from the
    returned weights' check (a non-finite entry never turns finite again)
    or, earlier, from ``grad_fn``.
    """
    if budget_batches < 1:
        raise ValueError(f"batch budget must be >= 1, got {budget_batches}")
    anchor = start.flat
    w = anchor.copy()
    live = ParamSet._wrap(start.structure(), w.view())
    eta = cfg.eta
    u = np.zeros(w.size)  # momentum buffer
    for _ in range(budget_batches):
        g = grad_fn(live, next(batch_stream)).flat
        if cfg.kind == "vanilla":
            w -= eta * g
        elif cfg.kind == "momentum":
            u *= cfg.gamma
            if cfg.eta_in_velocity:
                u -= eta * g
                w += u
            else:
                u += g
                w -= eta * u
        else:
            drift = w - anchor
            w -= eta * g
            w -= (eta * cfg.mu) * drift
    return ParamSet._wrap(start.structure(), w.copy()), budget_batches
