"""Model parameter containers and the arithmetic used during aggregation.

Every model that moves between learners and the controller is a ParamSet: an
ordered collection of named dense float64 arrays. Instances are immutable so
they can be shared freely across the simulation without defensive copies.
"""

from __future__ import annotations

import json
from typing import Iterator, Sequence

import numpy as np

SERIALIZATION_VERSION = 1


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

    __slots__ = ("_names", "_arrays")

    def __init__(self, names: Sequence[str], arrays: Sequence[np.ndarray]):
        if len(names) != len(arrays):
            raise StructureError(
                f"{len(names)} layer names for {len(arrays)} arrays"
            )
        if len(names) == 0:
            raise StructureError("a ParamSet needs at least one layer")
        if len(set(names)) != len(names):
            raise StructureError(f"duplicate layer names in {list(names)}")
        frozen = []
        for name, arr in zip(names, arrays):
            a = np.array(arr, dtype=np.float64, copy=True)
            if not np.all(np.isfinite(a)):
                raise NonFiniteError(f"layer {name!r} has NaN/Inf entries")
            a.setflags(write=False)
            frozen.append(a)
        self._names = tuple(names)
        self._arrays = tuple(frozen)

    @classmethod
    def _wrap(cls, names: tuple[str, ...], arrays: list[np.ndarray]) -> "ParamSet":
        # Internal fast path for freshly allocated arrays: skips the copy but
        # keeps the finiteness guarantee.
        self = object.__new__(cls)
        for name, a in zip(names, arrays):
            if not np.all(np.isfinite(a)):
                raise NonFiniteError(f"layer {name!r} has NaN/Inf entries")
            a.setflags(write=False)
        self._names = names
        self._arrays = tuple(arrays)
        return self

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        return self._arrays

    @property
    def num_entries(self) -> int:
        """Total number of scalar parameters across all layers."""
        return sum(a.size for a in self._arrays)

    def layer(self, name: str) -> np.ndarray:
        try:
            return self._arrays[self._names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def structure(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return tuple((n, a.shape) for n, a in zip(self._names, self._arrays))

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(zip(self._names, self._arrays))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}{a.shape}" for n, a in self)
        return f"ParamSet({inner})"


def _check_same_structure(x: ParamSet, y: ParamSet) -> None:
    if x.structure() != y.structure():
        raise StructureError(
            f"layer mismatch: {x.structure()} vs {y.structure()}"
        )


def zeros_like(proto: ParamSet) -> ParamSet:
    """All-zero ParamSet with the same layer names and shapes as ``proto``."""
    return ParamSet._wrap(
        proto.names, [np.zeros_like(a) for a in proto.arrays]
    )


def axpy(alpha: float, x: ParamSet, y: ParamSet) -> ParamSet:
    """Elementwise ``alpha * x + y``."""
    _check_same_structure(x, y)
    return ParamSet._wrap(
        x.names, [alpha * ax + ay for ax, ay in zip(x.arrays, y.arrays)]
    )


def scale(alpha: float, x: ParamSet) -> ParamSet:
    """Elementwise ``alpha * x``."""
    return ParamSet._wrap(x.names, [alpha * a for a in x.arrays])


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
    acc = [w[0] * a for a in first.arrays]
    for wk, model in zip(w[1:], models[1:]):
        _check_same_structure(first, model)
        for slot, a in zip(acc, model.arrays):
            slot += wk * a
    return ParamSet._wrap(first.names, [a / total for a in acc])


def max_abs_diff(x: ParamSet, y: ParamSet) -> float:
    """Largest elementwise absolute difference between two ParamSets."""
    _check_same_structure(x, y)
    return max(
        float(np.max(np.abs(ax - ay))) if ax.size else 0.0
        for ax, ay in zip(x.arrays, y.arrays)
    )


def allclose(x: ParamSet, y: ParamSet, atol: float = 1e-12) -> bool:
    return max_abs_diff(x, y) <= atol


def equal(x: ParamSet, y: ParamSet) -> bool:
    """True when every entry compares equal (no tolerance)."""
    _check_same_structure(x, y)
    return all(np.array_equal(ax, ay) for ax, ay in zip(x.arrays, y.arrays))


def to_obj(ps: ParamSet) -> dict:
    """JSON-serializable representation: layer-name header plus flat data."""
    return {
        "format_version": SERIALIZATION_VERSION,
        "layers": [
            {"name": n, "shape": list(a.shape), "data": a.ravel().tolist()}
            for n, a in ps
        ],
    }


def from_obj(obj: dict) -> ParamSet:
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


def save(ps: ParamSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_obj(ps), fh)


def load(path: str) -> ParamSet:
    with open(path, "r", encoding="utf-8") as fh:
        return from_obj(json.load(fh))
