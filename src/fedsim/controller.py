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
computed against an old community model counts less.

``record_fetch``, ``cached_update``, ``fedasync_update`` and ``snapshot`` are
public, and a caller may drive them from several threads. Each reads and
rewrites several fields of the shared state, so each holds the state's lock:
concurrent commits apply one at a time and none is lost. The engine's event
loop is single-threaded and never contends for it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .params import ParamSet, _check_same_structure, zeros_like

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

    def __post_init__(self):
        if self.kind not in WEIGHTING_KINDS:
            raise ValueError(f"unknown weighting scheme {self.kind!r}")
        if not 0.0 < self.mixing <= 1.0:
            raise ValueError(f"mixing must lie in (0, 1], got {self.mixing}")
        if self.rho < 0:
            raise ValueError(f"rho must be non-negative, got {self.rho}")


@dataclass
class ContributionRecord:
    learner_id: int
    model: ParamSet
    value: float        # p_k, this contribution's aggregation weight
    fetch_steps: int    # community step counter when the model was fetched
    local_steps: int    # batches applied locally to produce the model


@dataclass
class CommunityState:
    weighted_sum: ParamSet            # sum_k p_k * w_k
    normalizer: float                 # sum_k p_k
    records: dict[int, ContributionRecord]
    committed_steps: int              # total local steps committed so far
    version: int                      # number of commits applied
    model: ParamSet                   # the community model every fetch serves
    fetch_versions: dict[int, int] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


def init_community(initial: ParamSet, learner_ids: list[int]) -> CommunityState:
    """Fresh controller state broadcasting ``initial`` to every learner."""
    return CommunityState(
        weighted_sum=zeros_like(initial),
        normalizer=0.0,
        records={},
        committed_steps=0,
        version=0,
        model=initial,
        fetch_versions={k: 0 for k in learner_ids},
    )


def record_fetch(state: CommunityState, learner_id: int) -> tuple[ParamSet, int, int]:
    """Serve the community model and remember what the learner saw.

    Returns (model, committed steps at fetch, version at fetch); the two
    counters feed the staleness computations at commit time.
    """
    with state.lock:
        state.fetch_versions[learner_id] = state.version
        return state.model, state.committed_steps, state.version


def cached_update(
    state: CommunityState,
    learner_id: int,
    model: ParamSet,
    value: float,
    steps: int,
) -> ParamSet:
    """Replace learner ``learner_id``'s contribution and return the new
    community model W / P. Mutates ``state`` only if every new value is
    valid; cost is O(model size) regardless of how many learners have
    contributed.
    """
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"contribution weight must be finite and >= 0, got {value}")
    if steps < 1:
        raise ValueError(f"a contribution needs >= 1 local steps, got {steps}")
    with state.lock:
        _check_same_structure(state.weighted_sum, model)
        prev = state.records.get(learner_id)
        new_normalizer = state.normalizer + value
        if prev is not None:
            new_normalizer -= prev.value
        if new_normalizer <= 0.0:
            raise DegenerateWeightError(
                f"normalizer would become {new_normalizer}"
            )
        structure = state.weighted_sum.structure()
        # Two new buffers: W, and W / P, whose buffer holds each product
        # before it is folded into W.
        served = np.multiply(value, model.flat)
        flat = np.add(state.weighted_sum.flat, served)
        if prev is not None:
            np.multiply(prev.value, prev.model.flat, out=served)
            flat -= served
        np.multiply(1.0 / new_normalizer, flat, out=served)
        # One scan covers both. 1 / P is +0 (P overflowed), finite and > 0,
        # or +inf (P subnormal), and in every case it turns a NaN or +-Inf
        # entry of W into a non-finite entry of W / P (0 * inf and 0 * NaN
        # are NaN).
        community = ParamSet._wrap(structure, served)
        state.weighted_sum = ParamSet._wrap(structure, flat, checked=True)
        state.normalizer = new_normalizer
        state.model = community
        state.records[learner_id] = ContributionRecord(
            learner_id=learner_id,
            model=model,
            value=value,
            fetch_steps=state.fetch_versions.get(learner_id, 0),
            local_steps=steps,
        )
        state.committed_steps += steps
        state.version += 1
        return community


def staleness_discount(
    committed_now: int, fetch_steps: int, local_steps: int
) -> float:
    """Inverse-square-root discount ``(max(0, base) + 1) ** -0.5`` with
    ``base = committed_now - fetch_steps - local_steps``.

    The engine passes the committed-step count from *before* this commit, so
    ``base`` is the other learners' steps committed since the fetch minus
    this learner's own ``local_steps``; a commit with ``base <= 0`` gets
    full weight.
    """
    base = committed_now - fetch_steps - local_steps
    return (max(0, base) + 1) ** -0.5


def poly_staleness(version_now: int, fetch_version: int) -> float:
    """Polynomial staleness factor ``(version gap + 1) ** -0.5``."""
    gap = version_now - fetch_version
    if gap < 0:
        raise ValueError(f"fetch version {fetch_version} is in the future")
    return (gap + 1) ** -0.5


def compute_contribution(
    scheme: WeightingScheme,
    state: CommunityState,
    data_size: int,
    fetch_steps: int,
    local_steps: int,
) -> float:
    """Aggregation weight p_k for a model about to be committed."""
    if scheme.kind == "fedavg_static":
        return float(data_size)
    if scheme.kind == "fedrec_staleness":
        return staleness_discount(state.committed_steps, fetch_steps, local_steps)
    raise ValueError(
        "fedasync_poly commits through fedasync_update, not the cache"
    )


def fedasync_update(
    state: CommunityState,
    learner_id: int,
    model: ParamSet,
    mixing: float,
    fetch_version: int,
    staleness_adaptive: bool = True,
) -> tuple[ParamSet, float]:
    """Mix a local model straight into the community model.

    alpha = mixing * (version gap + 1) ** -0.5 (or just ``mixing`` when the
    staleness adaptation is disabled); the community model becomes
    (1 - alpha) * current + alpha * local. Bypasses the contribution cache.
    Returns (new community model, alpha).
    """
    if not 0.0 < mixing <= 1.0:
        raise ValueError(f"mixing must lie in (0, 1], got {mixing}")
    with state.lock:
        alpha = mixing
        if staleness_adaptive:
            alpha *= poly_staleness(state.version, fetch_version)
        current = state.model
        _check_same_structure(current, model)
        flat = (1.0 - alpha) * current.flat
        flat += alpha * model.flat
        state.model = ParamSet._wrap(current.structure(), flat)
        state.version += 1
        return state.model, alpha


def snapshot(state: CommunityState) -> dict:
    """JSON-serializable view of the aggregation bookkeeping."""
    with state.lock:
        return {
            "format_version": 1,
            "version": state.version,
            "committed_steps": state.committed_steps,
            "normalizer": state.normalizer,
            "learners": {
                str(k): {
                    "value": rec.value,
                    "local_steps": rec.local_steps,
                    "fetch_steps": rec.fetch_steps,
                }
                for k, rec in sorted(state.records.items())
            },
        }
