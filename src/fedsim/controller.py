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
    """
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"contribution weight must be finite and >= 0, got {value}")
    _check_same_structure(state.model, model)
    prev = state.records.get(learner_id)
    new_normalizer = state.normalizer + value
    if prev is not None:
        new_normalizer -= prev.value
    if new_normalizer <= 0.0:
        raise DegenerateWeightError(f"normalizer would become {new_normalizer}")
    # Two new buffers: W, and W / P, whose buffer holds each product
    # before it is folded into W.
    served = np.multiply(value, model.flat)
    flat = np.add(state.weighted_sum, served)
    if prev is not None:
        np.multiply(prev.value, prev.model.flat, out=served)
        flat -= served
    np.multiply(1.0 / new_normalizer, flat, out=served)
    # Only W / P is scanned, and it covers W too. 1 / P is +0 (P
    # overflowed), finite and > 0, or +inf (P subnormal), and in every
    # case it turns a NaN or +-Inf entry of W into a non-finite entry of
    # W / P (0 * inf and 0 * NaN are NaN).
    community = ParamSet._wrap(state.model.structure(), served)
    state.weighted_sum = flat
    state.normalizer = new_normalizer
    state.model = community
    state.records[learner_id] = ContributionRecord(model=model, value=value)
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
