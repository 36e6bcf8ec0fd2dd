"""Community-model bookkeeping on the aggregation side.

The controller keeps the community model it serves, one contribution record
per learner, and the weighted sum W = sum_k p_k * w_k together with the
normalizer P = sum_k p_k. Replacing learner k's contribution then costs
O(model size), independent of the number of learners:

    P'  =  P + p_k' - p_k
    W'  =  W + p_k' * w_k' - p_k * w_k
    community model = W' / P'

Under ``fedasync_poly`` a commit instead mixes the local model straight into
the community model. Either way a commit computes every new value before it
assigns any, so a commit that raises leaves the state as it was, and every
fetch serves the model the last successful commit returned.

Staleness-discounted weighting uses committed local steps: a contribution
computed against an old community model counts less. The caller counts
them: a commit is passed its steps in flight and its version gap, both
differences of the engine's ledger of commits.

The controller is single-threaded: the engine's event loop is its one
caller. A caller that drives it from several threads must serialize every
call on one state itself. It holds what the cache needs only: each
learner's latest model and weight, and the model a fetch reads off the
state. The engine's assignment records keep each fetch's facts and every
count of commits and steps, and :mod:`fedsim.runner` exports the run's
final state with them as ``controller_snapshot.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ParamSet, _check_same_structure

WEIGHTING_KINDS = ("fedavg_static", "fedrec_staleness", "fedasync_poly")


class DegenerateWeightError(ValueError):
    """An update would drive the weight normalizer to zero or below."""


@dataclass(frozen=True)
class WeightingScheme:
    """How much a committed local model counts in the community model.

    * ``fedavg_static``: p_k is the learner's training-set size.
    * ``fedrec_staleness``: p_k discounts by the steps other learners
      committed while this model was in flight.
    * ``fedasync_poly``: mixing-based update handled by
      :func:`fedasync_update`; ``rho`` additionally enters the client
      objective as a proximal coefficient.
    """

    kind: str
    mixing: float = 0.5
    rho: float = 0.005
    staleness_adaptive: bool = True

    @property
    def prox_rho(self) -> float:
        """The client objective's proximal coefficient: ``rho`` under
        ``fedasync_poly``, 0 under the cached schemes."""
        return self.rho if self.kind == "fedasync_poly" else 0.0

    def __post_init__(self):
        if self.kind not in WEIGHTING_KINDS:
            raise ValueError(f"unknown weighting scheme {self.kind!r}")
        if not 0.0 < self.mixing <= 1.0:
            raise ValueError(f"mixing must lie in (0, 1], got {self.mixing}")
        if self.rho < 0:
            raise ValueError(f"rho must be non-negative, got {self.rho}")


@dataclass
class ContributionRecord:
    model: ParamSet
    value: float  # p_k, this contribution's aggregation weight


@dataclass
class CommunityState:
    weighted_sum: np.ndarray          # sum_k p_k * w_k, laid out as model.flat
    normalizer: float                 # sum_k p_k
    records: dict[int, ContributionRecord]
    model: ParamSet                   # the community model every fetch serves
    removed: float = 0.0              # weight replaced since W, P were rebuilt


# A commit rebuilds W and P from the records once the weight replaced since
# their last rebuild passes this many times the new P.
_REBUILD_RATIO = 2.0 ** 20


def init_community(initial: ParamSet) -> CommunityState:
    """Fresh controller state broadcasting ``initial`` to every learner."""
    return CommunityState(
        weighted_sum=np.zeros_like(initial.flat),
        normalizer=0.0,
        records={},
        model=initial,
    )


def cached_update(
    state: CommunityState,
    learner_id: int,
    model: ParamSet,
    value: float,
) -> ParamSet:
    """Replace learner ``learner_id``'s contribution and return the new
    community model W / P. Mutates ``state`` only if every new value is
    valid; cost is O(model size) regardless of how many learners have
    contributed.

    A replaced weight cancels out of W and P, but its rounding stays in
    them. So the state keeps R, the weight replaced since W and P were
    last rebuilt, and a commit whose new P falls below R / 2^20 (as a
    P <= 0 after a replacement does) rebuilds both from the N records
    instead: W summed in learner-id order, P with :func:`math.fsum`, at N
    model passes. To first order in u = 2^-53, and while no product
    p_k * w_k underflows, the served model then lies within
    (6k + N + 3) * u * (1 + R / P) * max|w| of the exact W / P, where k
    counts the commits since the last rebuild and max|w| runs over every
    model held or replaced since; R / P stays <= 2^20. Weights of one
    scale rebuild about once in 2^20 * N commits. A learner that
    alternates a weight past 2^20 * P with a small one rebuilds at every
    commit that drops the large one: every other commit.

    A commit whose new P, rebuilt or not, is not a finite positive number
    raises :class:`DegenerateWeightError`: P = 0 has no average, and an
    infinite P would serve W * (1 / P) = 0 and keep P infinite for good.
    """
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"contribution weight must be finite and >= 0, got {value}")
    _check_same_structure(state.model, model)
    prev = state.records.get(learner_id)
    record = ContributionRecord(model=model, value=value)
    new_normalizer, removed = state.normalizer + value, state.removed
    if prev is not None:
        new_normalizer -= prev.value
        removed += prev.value
    # A new P <= 0 passes this test too, unless R is 0 and so P is exact.
    rebuild = removed > _REBUILD_RATIO * new_normalizer
    if rebuild:
        records = sorted({**state.records, learner_id: record}.items())
        new_normalizer, removed = math.fsum(r.value for _, r in records), 0.0
    if not 0.0 < new_normalizer < math.inf:
        raise DegenerateWeightError(f"normalizer would become {new_normalizer}")
    # Two new buffers: W, and W / P, whose buffer holds each product
    # before it is folded into W.
    if rebuild:
        served, flat = np.empty_like(model.flat), np.zeros_like(model.flat)
        for _, r in records:
            flat += np.multiply(r.value, r.model.flat, out=served)
    else:
        served = np.multiply(value, model.flat)
        flat = np.add(state.weighted_sum, served)
        if prev is not None:
            np.multiply(prev.value, prev.model.flat, out=served)
            flat -= served
    np.multiply(1.0 / new_normalizer, flat, out=served)
    # Only W / P is scanned, and it covers W too. 1 / P is finite and > 0,
    # or +inf (P subnormal), and either turns a NaN or +-Inf entry of W
    # into a non-finite entry of W / P.
    community = ParamSet._wrap(state.model.structure(), served)
    state.weighted_sum = flat
    state.normalizer = new_normalizer
    state.model, state.removed = community, removed
    state.records[learner_id] = record
    return community


def staleness_discount(in_flight: int, local_steps: int) -> float:
    """Inverse-square-root discount ``(max(0, base) + 1) ** -0.5`` with
    ``base = in_flight - local_steps``.

    ``in_flight`` is the steps other learners committed while this model
    was in flight, from its fetch to this commit; ``base`` subtracts this
    learner's own ``local_steps`` on top, so a commit with ``base <= 0``
    gets full weight. ROADMAP item 6 drops that subtraction.
    """
    return (max(0, in_flight - local_steps) + 1) ** -0.5


def poly_staleness(gap: int) -> float:
    """Polynomial staleness factor ``(gap + 1) ** -0.5`` of a version gap,
    the commits applied between a fetch and its commit."""
    if gap < 0:
        raise ValueError(f"version gap {gap} is negative")
    return (gap + 1) ** -0.5


def fedasync_update(
    state: CommunityState,
    model: ParamSet,
    mixing: float,
    gap: int,
    staleness_adaptive: bool = True,
) -> tuple[ParamSet, float]:
    """Mix a local model straight into the community model.

    alpha = mixing * (gap + 1) ** -0.5 (or just ``mixing`` when the
    staleness adaptation is disabled); the community model becomes
    (1 - alpha) * current + alpha * local. Bypasses the contribution cache.
    Returns (new community model, alpha).
    """
    if not 0.0 < mixing <= 1.0:
        raise ValueError(f"mixing must lie in (0, 1], got {mixing}")
    alpha = mixing
    if staleness_adaptive:
        alpha *= poly_staleness(gap)
    current = state.model
    _check_same_structure(current, model)
    flat = (1.0 - alpha) * current.flat
    flat += alpha * model.flat
    state.model = ParamSet._wrap(current.structure(), flat)
    return state.model, alpha


def commit(
    scheme: WeightingScheme, state: CommunityState, learner_id: int,
    model: ParamSet, data_size: int, in_flight: int, steps: int, gap: int,
) -> tuple[ParamSet, float]:
    """Commit learner ``learner_id``'s ``model``, trained ``steps`` batches
    on ``data_size`` examples from a community model that ``gap`` commits
    of ``in_flight`` local steps in all have replaced since its fetch.

    ``fedasync_poly`` mixes it in through :func:`fedasync_update`; the other
    schemes weigh it, by shard size or by :func:`staleness_discount`, and
    replace the learner's contribution through :func:`cached_update`.
    Returns (new community model, the commit's weight or mixing alpha).
    """
    if scheme.kind == "fedasync_poly":
        return fedasync_update(state, model, scheme.mixing, gap,
                               scheme.staleness_adaptive)
    if scheme.kind == "fedavg_static":
        value = float(data_size)
    else:
        value = staleness_discount(in_flight, steps)
    return cached_update(state, learner_id, model, value), value
