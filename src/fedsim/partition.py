"""Deterministic dataset partitioning across learners.

Partition sizes follow one of three shapes (uniform, geometric right-skew,
power law) and class composition is either IID or restricted to a fixed
number of classes per learner. The whole procedure is seedless: given the
same spec, sizes and dataset it always produces the same partitions. A
partition is state only: its report, ``partition_report.json``, is built
and written by :mod:`fedsim.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle, islice

import numpy as np

from .tasks import Dataset

SIZE_DISTS = ("uniform", "skewed", "powerlaw")
CLASS_DISTS = ("iid", "non_iid")


class PartitionError(ValueError):
    """The partition spec cannot be realized on the given dataset."""


# Published per-learner class-count quotas for power-law sizes. The head of
# the size distribution holds proportionally more classes so that class and
# size skew stay aligned. Keyed by (classes_per_learner, learners, classes);
# combinations not listed fall back to a flat quota.
HEAD_EXPANDED_QUOTAS: dict[tuple[int, int, int], tuple[int, ...]] = {
    (5, 10, 10): (8, 7, 6, 5, 5, 5, 5, 5, 5, 5),
    (3, 10, 10): (8, 4, 3, 3, 3, 3, 3, 3, 3, 3),
    (50, 10, 100): (84, 76, 68, 64, 55, 50, 50, 50, 50, 50),
}


@dataclass(frozen=True)
class PartitionSpec:
    num_learners: int
    size_dist: str = "uniform"
    class_dist: str = "iid"
    classes_per_learner: int = 0
    ratio: float = 1.3
    exponent: float = 1.5
    class_count_override: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.num_learners < 1:
            raise PartitionError("need at least one learner")
        if self.size_dist not in SIZE_DISTS:
            raise PartitionError(f"unknown size distribution {self.size_dist!r}")
        if self.class_dist not in CLASS_DISTS:
            raise PartitionError(f"unknown class distribution {self.class_dist!r}")
        if (
            self.class_dist == "non_iid"
            and self.classes_per_learner < 1
            and self.class_count_override is None
        ):
            raise PartitionError(
                "non_iid needs classes_per_learner >= 1 or an explicit "
                "class_count_override"
            )
        if self.size_dist == "skewed" and not self.ratio > 1.0:
            raise PartitionError(f"skew ratio must exceed 1, got {self.ratio}")
        if self.size_dist == "powerlaw" and not self.exponent > 0.0:
            raise PartitionError(
                f"powerlaw exponent must be positive, got {self.exponent}"
            )
        if (
            self.class_count_override is not None
            and len(self.class_count_override) != self.num_learners
        ):
            raise PartitionError(
                "class_count_override must list one quota per learner"
            )


@dataclass
class PartitionResult:
    indices: list[np.ndarray]
    owned_classes: list[tuple[int, ...]]

    @property
    def sizes(self) -> list[int]:
        return [len(ix) for ix in self.indices]


def _largest_remainder(total: int, proportions: np.ndarray) -> list[int]:
    """Integer apportionment of ``total`` following ``proportions`` exactly.

    Floors the raw shares and hands the leftover units to the largest
    fractional parts (ties to the lower index), so the result sums to
    ``total`` and keeps a non-increasing input non-increasing.
    """
    raw = total * proportions / proportions.sum()
    base = np.floor(raw).astype(int)
    leftover = total - int(base.sum())
    if leftover > 0:
        frac = raw - base
        for idx in sorted(range(len(base)), key=lambda i: (-frac[i], i))[:leftover]:
            base[idx] += 1
    return [int(b) for b in base]


def make_sizes(spec: PartitionSpec, total: int) -> list[int]:
    """Per-learner example counts, sorted head (largest) first."""
    n = spec.num_learners
    if total < n:
        raise PartitionError(
            f"cannot split {total} examples across {n} learners"
        )
    if spec.size_dist == "uniform":
        props = np.ones(n)
    elif spec.size_dist == "powerlaw":
        props = np.arange(1, n + 1, dtype=np.float64) ** -spec.exponent
    else:
        props = spec.ratio ** -np.arange(1, n + 1, dtype=np.float64)
    sizes = _largest_remainder(total, props)
    # A heavy tail can round to zero; every learner must hold something.
    for k in range(n - 1, -1, -1):
        while sizes[k] < 1:
            donor = sizes.index(max(sizes))
            sizes[donor] -= 1
            sizes[k] += 1
    sizes.sort(reverse=True)
    return sizes


def _class_quotas(spec: PartitionSpec, num_classes: int) -> list[int]:
    flat = [spec.classes_per_learner] * spec.num_learners
    if spec.class_count_override is not None:
        quotas = list(spec.class_count_override)
    elif spec.size_dist == "powerlaw":
        key = (spec.classes_per_learner, spec.num_learners, num_classes)
        quotas = list(HEAD_EXPANDED_QUOTAS.get(key, flat))
    else:
        quotas = flat
    for q in quotas:
        if not 1 <= q <= num_classes:
            raise PartitionError(
                f"class quota {q} outside [1, {num_classes}]"
            )
    return quotas


def _deal_classes(quotas: list[int], num_classes: int) -> list[list[int]]:
    """Deal class ids round-robin until every learner meets its quota.

    A single card pointer cycles through class ids; each learner in turn
    takes the next class it does not already own. Every class ends up with
    at least one owner as long as some quota round reaches it, which the
    cyclic pointer guarantees.
    """
    n = len(quotas)
    owned: list[list[int]] = [[] for _ in range(n)]
    pointer = 0
    while any(len(owned[k]) < quotas[k] for k in range(n)):
        for k in range(n):
            if len(owned[k]) >= quotas[k]:
                continue
            while pointer % num_classes in owned[k]:
                pointer += 1
            owned[k].append(pointer % num_classes)
            pointer += 1
    return [sorted(o) for o in owned]


def assign_classes(
    spec: PartitionSpec, sizes: list[int], dataset: Dataset
) -> PartitionResult:
    """Fill the size quotas with examples of each learner's owned classes.

    Learners draw one example at a time, round-robin across learners and
    cycling through each learner's owned classes, so early pool exhaustion
    cannot starve the tail of the size distribution. Examples that remain
    once all quotas are met (a class constraint can make exact quotas
    infeasible) are dealt head-to-tail among the owners of their class.
    A learner left with no example, because the learners before it drew
    every example of its classes, is refused with :class:`PartitionError`.
    """
    n = spec.num_learners
    if len(sizes) != n:
        raise PartitionError(f"{len(sizes)} sizes for {n} learners")
    num_classes = dataset.num_classes
    total = int(sum(sizes))
    if total > len(dataset):
        raise PartitionError(
            f"sizes sum to {total} but dataset has {len(dataset)} examples"
        )

    if spec.class_dist == "iid":
        owned = [list(range(num_classes)) for _ in range(n)]
    else:
        owned = _deal_classes(_class_quotas(spec, num_classes), num_classes)
    for k in range(n):
        if sizes[k] < len(owned[k]):
            raise PartitionError(
                f"learner {k} holds {sizes[k]} examples but owns "
                f"{len(owned[k])} classes: quota infeasible"
            )
    # Each class's examples, lowest index last: pop() draws in index order.
    pools = [np.flatnonzero(dataset.labels == c)[::-1].tolist()
             for c in range(num_classes)]
    covered = set().union(*map(set, owned))
    orphans = [c for c in range(num_classes) if c not in covered and pools[c]]
    if orphans:
        raise PartitionError(
            f"classes {orphans} have examples but no owning learner; raise "
            f"classes_per_learner or the learner count so every class is owned"
        )

    taken: list[list[int]] = [[] for _ in range(n)]
    wheels = [cycle(o) for o in owned]  # each learner's owned classes, in turn
    active = set(range(n))
    while active:
        for k in sorted(active):
            for c in islice(wheels[k], len(owned[k])):
                if pools[c]:
                    taken[k].append(pools[c].pop())
                    break
            else:  # pools only shrink, so no later draw can succeed
                active.discard(k)
            if len(taken[k]) >= sizes[k]:
                active.discard(k)

    # Leftovers: per class, cycle over its owners from the head down.
    remaining = total - sum(map(len, taken))
    for c in range(num_classes):
        if remaining <= 0:
            break
        owners = cycle([k for k in range(n) if c in owned[k]])
        while pools[c] and remaining > 0:
            taken[next(owners)].append(pools[c].pop())
            remaining -= 1
    for k, t in enumerate(taken):
        if not t:  # its classes ran dry before its first draw
            raise PartitionError(
                f"learner {k} gets no examples: the learners before it leave "
                f"no example of its classes {list(owned[k])}"
            )

    indices = [np.array(sorted(t), dtype=np.int64) for t in taken]
    return PartitionResult(indices, [tuple(o) for o in owned])


def assign_to_devices(result: PartitionResult, device_order: list[str]) -> list[str]:
    """Map each partition to a device class.

    Partitions are taken in descending size order and dealt alternately to
    the fast and slow device pools (fast first); when one pool runs out the
    rest go to the other. When every size is equal, ``device_order`` is
    kept as configured instead, so partition k gets ``device_order[k]``:
    with the fast slots first, partitions ``0 .. num_fast - 1`` are fast,
    where dealing by rank would alternate (four equal partitions give fast,
    fast, slow, slow, not fast, slow, fast, slow). Under non_iid those
    partitions hold different classes, so the two rules differ.
    """
    n = len(result.indices)
    if len(device_order) != n:
        raise PartitionError(
            f"{len(device_order)} device slots for {n} partitions"
        )
    sizes = result.sizes
    if len(set(sizes)) <= 1:
        return list(device_order)
    fast = [d for d in device_order if d == "fast"]
    slow = [d for d in device_order if d != "fast"]
    ranks = sorted(range(n), key=lambda k: (-sizes[k], k))
    devices = [""] * n
    for i, k in enumerate(ranks):
        prefer_fast = i % 2 == 0
        if (prefer_fast and fast) or not slow:
            devices[k] = fast.pop(0)
        else:
            devices[k] = slow.pop(0)
    return devices
