"""Federation driver on a deterministic virtual clock.

Three training policies share one instrumented event loop,
:func:`run_policy`; they differ only in when the server mixes models and in
how many batches a learner trains per assignment:

* ``sync``: every learner trains a fixed number of epochs per round and the
  round closes when the slowest learner finishes, so fast devices sit idle.
* ``semisync``: after a one-epoch cold-start round that profiles per-batch
  latency, every learner receives a per-round batch budget sized so that all
  learners finish (almost) together.
* ``async``: learners run free, committing straight into the community model
  and refetching immediately; there are no rounds and no idle time.

The clock counts integer microseconds. Nothing here measures wall time, so
two runs with the same inputs produce identical logs; evaluation happens
outside the clock and costs zero virtual time.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .controller import (
    CommunityState,
    WeightingScheme,
    cached_update,
    compute_contribution,
    fedasync_update,
    init_community,
    record_fetch,
)
from .optimizers import OptimizerConfig, epoch_batches, run_client_opt
from .params import ParamSet, weighted_average
from .tasks import Dataset, TaskModel, evaluate, stacked_grad

POLICIES = ("sync", "semisync", "async")

# Stream tag separating per-assignment batch shuffles from the other
# consumers of the experiment seed.
_TRAIN_STREAM = 3

# Largest K x P (learners x model parameters) trained as one stacked
# cohort: 256 KiB per (K, P) float64 buffer, so the weights, momentum,
# gradients and update temporaries of a chunk stay within a 2 MiB L2 cache.
# On a 2-core Xeon, 100 learners of a 2,762-entry MLP trained at ~32 us per
# learner-step in chunks of 10 to 16 against ~43 us in chunks of 23.
# Stacking saves per-call interpreter overhead, most of a small model's
# step; a model past half this size is dominated by its own flops, so it
# trains alone and its memory stays that of one learner.
_COHORT_ENTRIES = 1 << 15

_EVENT_RANK = {
    "fetch": 0,
    "train_start": 1,
    "train_end": 2,
    "update_request": 3,
    "community_commit": 4,
    "eval": 5,
}


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def ms_to_us(ms: float) -> int:
    """``ms`` milliseconds in whole virtual-clock microseconds, half up."""
    return _round_half_up(ms * 1000.0)


@dataclass(frozen=True, eq=False)
class LearnerProfile:
    """One simulated device: its data shard and per-batch latency."""

    learner_id: int
    device_class: str
    batch_size: int
    time_per_batch_ms: float
    indices: np.ndarray

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.time_per_batch_ms > 0:
            raise ValueError(
                f"time_per_batch_ms must be positive, got {self.time_per_batch_ms}"
            )
        # A batch that takes 0 us never advances the clock: an async run
        # would commit forever at one timestamp.
        if math.isfinite(self.time_per_batch_ms) and self.time_per_batch_us < 1:
            raise ValueError(
                f"time_per_batch_ms must round to at least 1 us, got "
                f"{self.time_per_batch_ms}"
            )
        if len(self.indices) < 1:
            raise ValueError(f"learner {self.learner_id} has no data")

    @property
    def data_size(self) -> int:
        return len(self.indices)

    @property
    def batches_per_epoch(self) -> int:
        return -(-self.data_size // self.batch_size)

    @property
    def time_per_batch_us(self) -> int:
        return ms_to_us(self.time_per_batch_ms)


@dataclass(frozen=True)
class ProtocolConfig:
    policy: str
    optimizer: OptimizerConfig
    weighting: WeightingScheme
    epochs: int = 4
    lam: float = 2.0
    rounds: int = 10
    time_budget_ms: float = 0.0
    eval_every: int = 1

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.policy == "semisync" and not self.lam > 0:
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        if self.policy in ("sync", "semisync") and self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.policy == "async" and not self.time_budget_ms > 0:
            raise ValueError("async runs need a positive time budget")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")


@dataclass(frozen=True)
class SchedulePlan:
    """Per-round batch budgets aligning all learners on one horizon."""

    t_max_us: int
    batches: dict[int, int]


class EvalSnapshot(NamedTuple):
    t_us: int
    round_index: int
    update_requests: int
    accuracy: float
    loss: float


@dataclass
class MetricsLog:
    policy: str
    seed: int
    events: list[tuple[int, str, int]] = field(default_factory=list)
    evals: list[EvalSnapshot] = field(default_factory=list)
    # (learner_id, round_index, active_us, idle_us)
    utilization: list[tuple[int, int, int, int]] = field(default_factory=list)
    # (t_us, learner_id, aggregation weight)
    contributions: list[tuple[int, int, float]] = field(default_factory=list)
    update_requests: int = 0
    federation_rounds: int = 0
    schedule: SchedulePlan | None = None
    final_state: CommunityState | None = None
    final_model: ParamSet | None = None

    @property
    def models_exchanged(self) -> int:
        # Every update request moves one model up and one model back down.
        return 2 * self.update_requests

    def sorted_events(self) -> list[tuple[int, str, int]]:
        return sorted(
            self.events, key=lambda e: (e[0], _EVENT_RANK[e[1]], e[2])
        )


def plan_semisync(lam: float, profiles: list[LearnerProfile]) -> SchedulePlan:
    """Size per-round batch budgets from the slowest full-epoch time.

    The horizon is ``lam`` times the largest (shard batches * per-batch
    latency) product across learners; every learner then fits as many
    batches as the horizon allows (round half up, at least one).
    """
    if not profiles:
        raise ValueError("cannot plan without learners")
    if not lam > 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    horizon = max(
        (p.data_size / p.batch_size) * p.time_per_batch_us for p in profiles
    )
    t_max_us = _round_half_up(lam * horizon)
    if t_max_us < 1:
        raise ValueError("schedule horizon rounded to zero microseconds")
    batches = {
        p.learner_id: max(1, _round_half_up(t_max_us / p.time_per_batch_us))
        for p in profiles
    }
    return SchedulePlan(t_max_us=t_max_us, batches=batches)


def _train_cohort(
    cohort: Iterable[tuple[LearnerProfile, ParamSet, int, int]],
    task: TaskModel,
    train: Dataset,
    opt_cfg: OptimizerConfig,
    seed: int,
    prox_rho: float,
) -> Iterator[ParamSet]:
    """Train each ``(profile, anchor, budget, assignment)`` of ``cohort``.

    Learner k trains ``budget`` batches from ``anchor`` on its shard, in the
    batch order its (seed, learner, assignment) stream draws. The learners
    train in stacked chunks of at most ``_COHORT_ENTRIES`` learners x
    parameters, and every result is bit for bit what training that learner
    alone gives. Yields the weights in cohort order. ``cohort`` is read one
    chunk at a time, when the caller asks for the chunk's first model, so a
    caller that commits each model as it comes holds one chunk of anchors
    and models at a time.
    """
    def grad_fn(W, rows, out):
        stacked_grad(task, W, train.features[rows], train.labels[rows], out)

    def batch_rows(p: LearnerProfile, assignment: int):
        rng = np.random.default_rng(
            [seed, _TRAIN_STREAM, p.learner_id, assignment]
        )
        for batch in epoch_batches(p.data_size, p.batch_size, rng):
            yield p.indices[batch]

    learners = iter(cohort)
    for first in learners:  # one chunk per pass
        size = max(1, _COHORT_ENTRIES // first[1].num_entries)
        chunk = [first, *itertools.islice(learners, size - 1)]
        yield from run_client_opt(
            [anchor for _, anchor, _, _ in chunk],
            [steps for _, _, steps, _ in chunk],
            [batch_rows(p, assignment) for p, _, _, assignment in chunk],
            opt_cfg, grad_fn, prox_rho,
        )


def run_policy(
    cfg: ProtocolConfig,
    profiles: list[LearnerProfile],
    task: TaskModel,
    train: Dataset,
    test: Dataset,
    initial: ParamSet,
    seed: int,
) -> MetricsLog:
    """Run ``cfg.policy`` off one heap of (arrival time, learner id) events.

    A learner fetches the community model, trains its batch budget, and
    arrives with an update request ``budget * time_per_batch_us`` later.
    The budget is ``cfg.epochs`` epochs per assignment, except under
    ``semisync``: one epoch for the cold-start assignment, whose latencies
    (in simulation: the configured profile values) feed
    :func:`plan_semisync`, then the planned budgets.

    Under ``async`` every request commits through the controller on arrival,
    in learner-id order within a timestamp, and the learner refetches at
    once, so idle time is zero. The run ends when the next arrival would land
    past the time budget; models still in flight are dropped. Under ``sync``
    and ``semisync`` requests wait at a round barrier that closes at the
    slowest arrival. There the round's models are averaged by shard size in
    learner-id order and, unless ``cfg.rounds`` rounds are done, every
    learner refetches.

    A commit group is one timestamp under ``async`` and one round otherwise.
    Its learners train as one cohort (:func:`_train_cohort`), chunk by
    chunk, each chunk before its first learner commits; none of them trains
    from a model committed in its own group, so this is the same as
    training them one by one. The
    community model is evaluated after every ``cfg.eval_every``-th group
    and after the last one.
    """
    profiles = sorted(profiles, key=lambda p: p.learner_id)
    log = MetricsLog(policy=cfg.policy, seed=seed)
    barrier = cfg.policy != "async"
    if cfg.policy == "semisync":
        log.schedule = plan_semisync(cfg.lam, profiles)

    def budget(p: LearnerProfile, assignment: int) -> int:
        if log.schedule is None:
            return cfg.epochs * p.batches_per_epoch
        if assignment == 0:
            return p.batches_per_epoch
        return log.schedule.batches[p.learner_id]

    scheme = cfg.weighting
    prox_rho = (
        scheme.rho if not barrier and scheme.kind == "fedasync_poly" else 0.0
    )
    horizon_us = (
        math.inf if barrier else ms_to_us(cfg.time_budget_ms)
    )
    state = (
        None if barrier
        else init_community(initial, [p.learner_id for p in profiles])
    )
    by_id = {p.learner_id: p for p in profiles}
    w_c = initial
    fetch_count = dict.fromkeys(by_id, 0)
    # learner id -> (anchor, fetch steps, fetch version, assignment, fetch time)
    pending: dict[int, tuple[ParamSet, int, int, int, int]] = {}
    heap: list[tuple[int, int]] = []

    def fetch(p: LearnerProfile, t: int) -> None:
        lid = p.learner_id
        served = (w_c, 0, 0) if barrier else record_fetch(state, lid)
        assignment = fetch_count[lid]
        fetch_count[lid] += 1
        pending[lid] = (*served, assignment, t)
        log.events.append((t, "fetch", lid))
        log.events.append((t, "train_start", lid))
        finish = t + budget(p, assignment) * p.time_per_batch_us
        heapq.heappush(heap, (finish, lid))

    def assignment_of(lid: int) -> tuple[LearnerProfile, ParamSet, int, int]:
        p = by_id[lid]
        anchor, _, _, assignment, _ = pending[lid]
        return p, anchor, budget(p, assignment), assignment

    for p in profiles:
        fetch(p, 0)
    groups = 0
    while heap and heap[0][0] <= horizon_us:
        if barrier:
            t = max(heap)[0]
            arrivals = sorted(heap, key=lambda e: e[1])
            heap.clear()
        else:
            t = heap[0][0]
            arrivals = []
            while heap and heap[0][0] == t:
                arrivals.append(heapq.heappop(heap))
        # Read lazily, one chunk at a time, before any learner of the chunk
        # commits and refetches: old anchors die as their learners refetch.
        trained = _train_cohort(
            (assignment_of(lid) for _, lid in arrivals),
            task, train, cfg.optimizer, seed, prox_rho,
        )
        models, weights = [], []
        for (finish, lid), w_k in zip(arrivals, trained):
            p = by_id[lid]
            _, fetch_steps, fetch_version, assignment, start = pending[lid]
            steps = budget(p, assignment)
            log.events.append((finish, "train_end", lid))
            log.events.append((finish, "update_request", lid))
            log.update_requests += 1
            log.utilization.append((lid, assignment, finish - start, t - finish))
            if barrier:
                value = float(p.data_size)
                models.append(w_k)
                weights.append(value)
            elif scheme.kind == "fedasync_poly":
                w_c, value = fedasync_update(
                    state, lid, w_k, scheme.mixing, fetch_version,
                    scheme.staleness_adaptive,
                )
            else:
                value = compute_contribution(
                    scheme, state, p.data_size, fetch_steps, steps
                )
                w_c = cached_update(state, lid, w_k, value, steps)
            log.contributions.append((t, lid, value))
            if not barrier:
                log.events.append((t, "community_commit", lid))
                fetch(p, t)
        if barrier:
            w_c = weighted_average(models, weights)
            log.federation_rounds += 1
            log.events.append((t, "community_commit", -1))
            if log.federation_rounds < cfg.rounds:
                for p in profiles:
                    fetch(p, t)
        groups += 1
        if groups % cfg.eval_every == 0 or not heap or heap[0][0] > horizon_us:
            accuracy, loss = evaluate(task, w_c, test)
            log.evals.append(
                EvalSnapshot(t, groups - 1, log.update_requests, accuracy, loss)
            )
            log.events.append((t, "eval", -1))
    log.final_model = w_c
    log.final_state = state
    return log


def export_metrics(log: MetricsLog, out_dir: str) -> dict[str, str]:
    """Write the run's metrics files; returns {logical name: path}.

    Output is formatted so identical logs serialize to identical bytes:
    metrics.csv (one row per evaluation), idle.csv (per learner and round),
    events.jsonl (the ordered event stream) and summary.json.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    lines = ["virtual_ms,update_requests,round,accuracy,loss"]
    for ev in log.evals:
        lines.append(
            f"{ev.t_us / 1000.0:.3f},{ev.update_requests},{ev.round_index},"
            f"{ev.accuracy!r},{ev.loss!r}"
        )
    paths["metrics"] = os.path.join(out_dir, "metrics.csv")
    _write_text(paths["metrics"], "\n".join(lines) + "\n")

    lines = ["learner_id,round,active_ms,idle_ms"]
    for lid, r, active_us, idle_us in log.utilization:
        lines.append(
            f"{lid},{r},{active_us / 1000.0:.3f},{idle_us / 1000.0:.3f}"
        )
    paths["idle"] = os.path.join(out_dir, "idle.csv")
    _write_text(paths["idle"], "\n".join(lines) + "\n")

    # The text json.dumps(..., sort_keys=True) gives, without its per-call
    # cost: keys in sorted order, float repr for the time.
    lines = [
        f'{{"kind": "{kind}", "learner": {lid}, "virtual_ms": {t / 1000.0!r}}}'
        for t, kind, lid in log.sorted_events()
    ]
    paths["events"] = os.path.join(out_dir, "events.jsonl")
    _write_text(paths["events"], "\n".join(lines) + "\n")

    lines = ["virtual_ms,learner_id,weight"]
    for t, lid, value in log.contributions:
        lines.append(f"{t / 1000.0:.3f},{lid},{value!r}")
    paths["contributions"] = os.path.join(out_dir, "contributions.csv")
    _write_text(paths["contributions"], "\n".join(lines) + "\n")

    summary = {
        "schema_version": 1,
        "policy": log.policy,
        "seed": log.seed,
        "update_requests": log.update_requests,
        "models_exchanged": log.models_exchanged,
        "federation_rounds": log.federation_rounds,
        "evaluations": len(log.evals),
        "final_accuracy": log.evals[-1].accuracy if log.evals else None,
        "final_loss": log.evals[-1].loss if log.evals else None,
        "total_virtual_ms": (
            max(t for t, _, _ in log.events) / 1000.0 if log.events else 0.0
        ),
    }
    if log.schedule is not None:
        summary["schedule"] = {
            "t_max_ms": log.schedule.t_max_us / 1000.0,
            "batches": {str(k): v for k, v in sorted(log.schedule.batches.items())},
        }
    paths["summary"] = os.path.join(out_dir, "summary.json")
    _write_text(
        paths["summary"], json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return paths


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
