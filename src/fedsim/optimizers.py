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
trajectory up to rounding. :class:`TrainingPool` applies the rules in
place to every learner it holds at once, each learner at its own step;
the reference form of each rule, one learner and one out-of-place step at
a time, is ``step_*`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .params import (
    NonFiniteError, ParamSet, Structure, StructureError, layer_spans,
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

class TrainingPool:
    """Learners training side by side, each at its own local step.

    :meth:`join` adds an assignment: ``budget`` local steps from ``start``
    on the batches ``batches`` yields. Each :meth:`step` takes one step of
    every member and hands back the members that left. A member's proximal
    anchor (fedprox) is its start and its momentum buffer starts at zero.
    With ``prox_rho > 0`` every gradient gets the pull
    ``prox_rho * (w - start)`` toward the start before the update.

    Weights, momentum buffers, anchors and gradients are (capacity, P)
    buffers split into per-layer views once. The members are rows
    ``0 .. len(pool) - 1``; one that leaves hands its row to the last.
    Each step, the members whose batches have the same length share one
    ``grad_fn`` call on those views sliced to their rows (unsliced when
    they cover every row), and members of one length that are not adjacent
    rows are gathered into two kept buffers. The weight views are read-only
    and valid during the call. Every update runs in the operation order of
    the ``step_*`` references in ``tests/oracles.py``, element by element,
    so every row is bit for bit what training that learner alone gives,
    whoever else is in the pool.

    A member leaves only when its budget ends, and its weights are checked
    as they leave. A NaN or Inf entry survives every update rule, so a
    learner that diverged leaves then, with the
    :class:`~fedsim.params.NonFiniteError` of that check; its row, like
    every row, never mixes with another.

    The weight and anchor buffers live one generation: from a join into an
    empty pool until it empties again. The generation's first step reads
    the starts of the members that joined before it, which then serve as
    their anchors, and writes out of place; a later member's start is
    copied into its row of both. A larger pool copies each start in and
    each result out. A pool of capacity 1 copies neither: its member's
    start is read in place, and a one-step result, never shown to
    ``grad_fn``, is returned as it is.
    """

    def __init__(self, structure: Structure, capacity: int,
                 cfg: OptimizerConfig, grad_fn: GradFn,
                 prox_rho: float = 0.0):
        self.structure, self.capacity = structure, capacity
        self._cfg, self._grad_fn, self._prox_rho = cfg, grad_fn, prox_rho
        self._spans = layer_spans(structure)
        self._shape = shape = (capacity, self._spans[-1][1])
        # Each member's key, last step (counted in the pool's steps) and
        # batch stream, in row order.
        self._keys, self._last, self._streams, self._steps = [], [], [], 0
        self._G = np.empty(shape)  # each update scales its rows in place
        self._grads = split_rows(self._spans, self._G)
        # Gathered weight and gradient rows. Kept, not made per call: a
        # fresh buffer of this size can come from mmap and fault its pages
        # in at every gather.
        self._gathered = np.empty(shape), np.empty(shape)
        # Anchors and momentum buffers exist only when an update reads them.
        # A momentum row starts at zero and takes u *= gamma even on the
        # first step, since 0.0 + (-0.0) is +0.0.
        self._U = np.zeros(shape) if cfg.kind == "momentum" else None
        self._anchored = cfg.kind == "fedprox" or prox_rho > 0.0

    def __len__(self) -> int:
        return len(self._keys)

    def _set_weights(self, W: np.ndarray) -> None:
        self._W = W
        live = W.view()
        live.setflags(write=False)
        self._weights = split_rows(self._spans, live)

    def join(self, key, start: ParamSet, budget: int,
             batches: Iterable[np.ndarray]) -> None:
        """Add a member, reported under ``key``, that trains ``budget``
        steps from ``start``; raises ValueError when the pool is full."""
        if budget < 1:
            raise ValueError(f"batch budget must be >= 1, got {budget}")
        if start.structure() != self.structure:
            raise StructureError(
                f"layer mismatch: {self.structure} vs {start.structure()}")
        row = len(self._keys)
        if row == self.capacity:
            raise ValueError(f"the pool is full at {row} learners")
        if not row:  # a generation begins
            starts = (start.flat[None] if self.capacity == 1
                      else np.empty(self._shape))
            self._set_weights(starts)
            self._A = starts if self._anchored else None
            self._fresh = True
        if self.capacity > 1:
            self._W[row] = start.flat
            if self._A is not None and not self._fresh:
                self._A[row] = start.flat
        if self._U is not None:
            self._U[row] = 0.0
        self._keys.append(key)
        self._last.append(self._steps + budget)
        self._streams.append(iter(batches))

    def _drop(self, row: int) -> None:
        last = len(self._keys) - 1
        for buf in (self._W, self._U, self._A):
            if buf is not None and row < last:
                buf[row] = buf[last]
        for rows in (self._keys, self._last, self._streams):
            rows[row] = rows[last]
            rows.pop()

    def step(self) -> list[tuple[object, ParamSet | NonFiniteError]]:
        """Take one local step of every member. Returns ``(key, result)``
        of each member whose budget ended: its trained weights, frozen and
        checked, or the NonFiniteError that check raised."""
        W, G, spans = self._W, self._G, self._spans
        batches = [next(stream) for stream in self._streams]
        by_length: dict[int, list[int]] = {}
        for i, batch in enumerate(batches):
            by_length.setdefault(len(batch), []).append(i)
        for idx in by_length.values():
            lo, hi = idx[0], idx[-1] + 1
            rows = (batches[lo][None] if len(idx) == 1
                    else np.array([batches[i] for i in idx]))
            if len(idx) == len(W):  # every row: the views need no slice
                self._grad_fn(self._weights, rows, self._grads)
            elif hi - lo == len(idx):
                self._grad_fn([w[lo:hi] for w in self._weights], rows,
                              [g[lo:hi] for g in self._grads])
            else:  # other lengths sit between these rows: gather, scatter
                w, g = (buf[: len(idx)] for buf in self._gathered)
                np.take(W, idx, axis=0, out=w, mode="clip")  # unbuffered
                self._grad_fn(split_rows(spans, w), rows, split_rows(spans, g))
                G[idx] = g
        m = len(batches)
        w, g = W[:m], G[:m]
        # A generation's first step reads its starts, which stay as its
        # anchors, and writes out of place.
        fresh, self._fresh = self._fresh, False
        if fresh:
            self._set_weights(np.empty(W.shape))
        new = self._W[:m] if fresh else w
        cfg, eta = self._cfg, self._cfg.eta
        if self._prox_rho > 0.0:
            g += self._prox_rho * (w - self._A[:m])
        if cfg.kind == "vanilla":
            g *= eta
            np.subtract(w, g, out=new)
        elif cfg.kind == "momentum":
            u = self._U[:m]
            u *= cfg.gamma
            u += g
            np.multiply(eta, u, out=g)
            np.subtract(w, g, out=new)
        else:
            drift = w - self._A[:m]
            g *= eta
            np.subtract(w, g, out=new)
            drift *= eta * cfg.mu
            new -= drift
        self._steps += 1
        left = []
        for row in range(m - 1, -1, -1) if self._steps in self._last else ():
            if self._last[row] == self._steps:
                lone = fresh and self.capacity == 1  # never shown to grad_fn
                flat = new[row] if lone else new[row].copy()
                try:
                    result = ParamSet._wrap(self.structure, flat)
                except NonFiniteError as exc:
                    result = exc
                left.append((self._keys[row], result))
                self._drop(row)
        return left
