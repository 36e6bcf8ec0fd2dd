"""Model parameter containers and the arithmetic used during aggregation.

Every model that moves between learners and the controller is a ParamSet: an
ordered collection of named dense float64 layers. All layers live in one
contiguous, read-only float64 vector (``flat``); the per-layer arrays are
reshaped views into it, so :func:`weighted_average` is one vector pass
per model and one finiteness scan. Instances are immutable so they can be
shared freely across the simulation without defensive copies. The run path
needs no other arithmetic: the out-of-place helpers the tests compare
against (``axpy``, ``scale``, ``equal``, ``load``, ...) live in
``tests/oracles.py``. A model's JSON form, ``final_model.json``, is built
and written by :mod:`fedsim.runner`.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

Structure = tuple[tuple[str, tuple[int, ...]], ...]


class StructureError(ValueError):
    """Two parameter sets do not share the same ordered layer names/shapes."""


class NonFiniteError(ValueError):
    """An operation produced (or received) NaN or Inf parameter entries."""


class ParamSet:
    """Ordered, named, immutable collection of float64 arrays.

    Layer identity is the ordered list of names; binary operations validate
    it and raise :class:`StructureError` on mismatch. Construction rejects
    non-finite entries, so any ParamSet in circulation is finite.
    """

    __slots__ = ("_structure", "_flat")

    def __init__(self, names: Sequence[str], arrays: Sequence[np.ndarray]):
        if len(names) != len(arrays):
            raise StructureError(
                f"{len(names)} layer names for {len(arrays)} arrays"
            )
        if len(names) == 0:
            raise StructureError("a ParamSet needs at least one layer")
        if len(set(names)) != len(names):
            raise StructureError(f"duplicate layer names in {list(names)}")
        layers = [np.asarray(a, dtype=np.float64) for a in arrays]
        structure = tuple((n, a.shape) for n, a in zip(names, layers))
        # concatenate always allocates, so the inputs are copied.
        self._init(structure, np.concatenate([a.ravel() for a in layers]))

    @classmethod
    def _wrap(cls, structure: Structure, flat: np.ndarray) -> "ParamSet":
        # Internal constructor: takes ownership of ``flat``, a float64 vector
        # laid out as ``structure`` that no caller writes to afterwards. Skips
        # the copy but keeps the finiteness guarantee.
        self = object.__new__(cls)
        self._init(structure, flat)
        return self

    def _init(self, structure: Structure, flat: np.ndarray) -> None:
        # Freeze first: views taken afterwards inherit the read-only flag.
        flat.setflags(write=False)
        self._structure = structure
        self._flat = flat
        if not all_finite(flat):
            for name, a in self:
                if not np.isfinite(a).all():
                    raise NonFiniteError(f"layer {name!r} has NaN/Inf entries")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self._structure)

    @property
    def flat(self) -> np.ndarray:
        """Every layer's entries, in layer order, as one read-only vector."""
        return self._flat

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        # Built on each use: only exports and error paths read the layers.
        return tuple(
            self._flat[lo:hi].reshape(shape)
            for lo, hi, shape in layer_spans(self._structure)
        )

    @property
    def num_entries(self) -> int:
        """Total number of scalar parameters across all layers."""
        return self._flat.size

    def structure(self) -> Structure:
        return self._structure

    def __iter__(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(zip(self.names, self.arrays))


def layer_spans(
    structure: Structure,
) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(start, stop, shape) of each layer of ``structure`` inside the flat
    vector, in layer order."""
    spans, lo = [], 0
    for _, shape in structure:
        hi = lo + math.prod(shape)
        spans.append((lo, hi, shape))
        lo = hi
    return tuple(spans)


def split_rows(
    spans: tuple[tuple[int, int, tuple[int, ...]], ...], rows: np.ndarray
) -> list[np.ndarray]:
    """Per-layer ``(G, *shape)`` views of ``rows`` (G, P), G flat parameter
    vectors laid out as ``spans`` (:func:`layer_spans`).

    Raises :class:`StructureError` when P is not the layout's entry count.
    """
    G, P = rows.shape
    if P != spans[-1][1]:
        raise StructureError(
            f"rows hold {P} entries, the layout has {spans[-1][1]}"
        )
    return [rows[:, lo:hi].reshape(G, *shape) for lo, hi, shape in spans]


@np.errstate(over="ignore", invalid="ignore")
def all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()``, usually in one BLAS read of ``a``.

    The dot product of ``a`` with itself sums squares, which are never
    negative, so a NaN or +-Inf entry always makes it NaN or +Inf: a finite
    result proves every entry finite. Only a non-finite result, which
    entries past ~1e154 in magnitude also give by overflow, pays for the
    exact scan and its boolean temporary. On a 2-core Xeon the dot took
    ~13 us for 51,300 entries against ~22-28 us for the exact scan and
    ~26 us for ``np.add.reduce``. Like the gradient kernel's matmuls,
    OpenBLAS runs it on several threads past 10,000 entries unless its
    thread count is pinned.
    """
    v = a.reshape(-1)
    return math.isfinite(np.dot(v, v)) or bool(np.isfinite(a).all())


def _check_same_structure(x: ParamSet, y: ParamSet) -> None:
    if x.structure() != y.structure():
        raise StructureError(
            f"layer mismatch: {x.structure()} vs {y.structure()}"
        )


def weighted_average(models: Sequence[ParamSet], weights: Sequence[float]) -> ParamSet:
    """Convex combination ``sum_k w_k * model_k / sum_k w_k``.

    Weights must be non-negative, finite, and sum to a strictly positive
    value. All models must share layer structure.
    """
    if len(models) == 0:
        raise ValueError("cannot average an empty list of models")
    if len(models) != len(weights):
        raise ValueError(
            f"{len(models)} models for {len(weights)} weights"
        )
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NonFiniteError("weights contain NaN/Inf")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError(f"weight sum must be positive, got {total}")
    first = models[0]
    acc = w[0] * first.flat
    for wk, model in zip(w[1:], models[1:]):
        _check_same_structure(first, model)
        acc += wk * model.flat
    acc /= total
    return ParamSet._wrap(first.structure(), acc)

