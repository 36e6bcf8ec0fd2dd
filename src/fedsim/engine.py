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
outside the clock and costs zero virtual time. A run returns its
:class:`MetricsLog`: one :class:`Assignment` record per fetch, the
evaluation snapshots and the final model. It writes no file:
:mod:`fedsim.runner` builds every file as a view of those records, the
event stream and its line order included.

Local training runs in one :class:`~fedsim.optimizers.TrainingPool` per
run. A learner's training is fixed when it fetches (its anchor, budget and
batch stream), so an assignment joins the pool as soon as there is room,
whichever group it will commit in, and trains alongside assignments at
other steps. This is host-side batching only: every trained model, and so
every output, is bit for bit what training each learner alone gives.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from typing import NamedTuple

import numpy as np

from .controller import CommunityState, WeightingScheme, commit, init_community
from .optimizers import OptimizerConfig, TrainingPool, assignment_batches
from .params import NonFiniteError, ParamSet, weighted_average
from .tasks import Dataset, TaskModel, evaluate, model_structure, stacked_grad

POLICIES = ("sync", "semisync", "async")

# Stream tag separating per-assignment batch shuffles from the other
# consumers of the experiment seed.
_TRAIN_STREAM = 3

# Largest K x P (learners x model parameters) the training pool holds: its
# capacity is this over the model size, at least 1 and at most one row per
# learner, since a learner has one assignment in flight. 256 KiB per (K, P)
# float64 buffer, so the pool's weights, momentum, gradients and update
# temporaries stay within a 2 MiB L2 cache. On a 2-core Xeon, 100 learners
# of a 2,762-entry MLP trained at ~32 us per learner-step in stacks of 10
# to 16 against ~43 us in stacks of 23.
# Stacking saves per-call interpreter overhead, most of a small model's
# step; a model past half this size is dominated by its own flops, so it
# trains alone and its memory stays that of one learner.
_COHORT_ENTRIES = 1 << 15


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def ms_to_us(ms: float) -> int:
    """``ms`` milliseconds in whole virtual-clock microseconds, half up.

    Raises ValueError when the microsecond count is not a finite float.
    """
    us = ms * 1000.0
    if not math.isfinite(us):
        raise ValueError(f"{ms!r} ms is not a finite number of microseconds")
    return _round_half_up(us)


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
        # would commit forever at one timestamp. ms_to_us raises for a
        # latency the clock cannot count.
        if self.time_per_batch_us < 1:
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
class Assignment:
    """One learner's fetch -> train -> commit cycle; times in virtual us.

    ``index`` counts the learner's fetches, so it is the round under a
    barrier. ``fetch_version`` is the number of records committed before
    the fetch, so the ledger's records from that index on are the commits
    made while this one was in flight. A commit sets ``commit_us`` and
    ``weight``: the shard size, the ``fedrec_staleness`` weight or the
    ``fedasync_poly`` alpha.
    """

    learner: int
    index: int
    fetch_us: int
    steps: int
    fetch_version: int
    arrival_us: int
    commit_us: int | None = None
    weight: float | None = None


@dataclass
class MetricsLog:
    policy: str
    seed: int
    # Committed assignments in commit order, and those in flight at the end.
    assignments: list[Assignment] = field(default_factory=list)
    in_flight: list[Assignment] = field(default_factory=list)
    evals: list[EvalSnapshot] = field(default_factory=list)
    federation_rounds: int = 0
    schedule: SchedulePlan | None = None
    final_state: CommunityState | None = None
    final_model: ParamSet | None = None

    @property
    def update_requests(self) -> int:
        # Every update request, committed or averaged, is one assignment.
        return len(self.assignments)

    @property
    def models_exchanged(self) -> int:
        # Every update request moves one model up and one model back down.
        return 2 * self.update_requests


def plan_semisync(lam: float, profiles: list[LearnerProfile]) -> SchedulePlan:
    """Size per-round batch budgets from the slowest full-epoch time.

    The horizon is ``lam`` times the largest (shard batches * per-batch
    latency) product across learners, rounded half up to whole
    microseconds and at least 1 us; every learner then fits as many
    batches as the horizon allows (round half up, at least one).
    """
    if not profiles:
        raise ValueError("cannot plan without learners")
    if not lam > 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    epochs_us = [
        (p.data_size / p.batch_size) * p.time_per_batch_us for p in profiles
    ]
    horizon = max(epochs_us)
    if not math.isfinite(horizon):
        p = profiles[epochs_us.index(horizon)]
        raise ValueError(
            f"learner {p.learner_id}'s epoch of {p.data_size / p.batch_size:g}"
            f" batches at {p.time_per_batch_ms!r} ms each overflows the"
            " microsecond clock")
    if not math.isfinite(lam * horizon):
        raise ValueError(f"lambda {lam!r} overflows the microsecond clock")
    t_max_us = max(1, _round_half_up(lam * horizon))
    batches = {
        p.learner_id: max(1, _round_half_up(t_max_us / p.time_per_batch_us))
        for p in profiles
    }
    return SchedulePlan(t_max_us=t_max_us, batches=batches)


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
    past the time budget; models still in flight are dropped, and their
    records end in ``log.in_flight``. Under ``sync``
    and ``semisync`` requests wait at a round barrier that closes at the
    slowest arrival. There the round's models are averaged by shard size in
    learner-id order and, unless ``cfg.rounds`` rounds are done, every
    learner refetches.

    Every commit group closes by one rule. Its close time is the last
    arrival in flight under ``sync`` and ``semisync`` and the earliest under
    ``async``; every arrival at or before it joins the group, in learner-id
    order. So a group is one round under a barrier and one timestamp under
    ``async``, and a barrier run's round count is its group count.
    The community model is evaluated after every ``cfg.eval_every``-th
    group and after the last one; an evaluation whose loss is not finite
    (a finite model whose logits or mean loss overflow) raises
    NonFiniteError naming its virtual time. A group that would close past
    the float range, where exported times stop being numbers, raises
    ValueError before it commits.

    Every fetch makes one :class:`Assignment` record. Its group's commit
    fills in the commit time and weight and appends it to
    ``log.assignments``, so that list is in commit order, and within a
    group in learner-id order. The record's ``fetch_version`` is the count
    of commits before its fetch, so an async commit's version gap and steps
    in flight are the number and the steps of the records committed since.

    Training runs in one pool of ``_COHORT_ENTRIES // model size`` rows,
    at least 1 and at most one per learner, laid out as the task's model:
    an ``initial`` of another layout raises StructureError at the first
    join, before any step. An assignment waits to join it from its fetch,
    holding its anchor, and joins in arrival order when a row is free; one
    that would arrive past the time budget never joins, so no step is
    trained that no commit uses. Before a group commits, the
    pool steps until every learner of the group is done; a result waits,
    holding the trained model, until its group commits, so a run holds at
    most one model per learner in flight. A barrier round fetches every
    learner at once, so its learners train in lockstep; under ``async``
    each refetch joins beside learners at other steps, and they share
    kernel calls. A failed training surfaces only when its group commits,
    so an earlier failure of the run still wins: the group raises the
    NonFiniteError of its first failed learner in learner-id order, its
    message prefixed with that learner's id, assignment and arrival time.
    Training, commits and evaluation run with numpy's overflow and
    invalid-value warnings off. A run needs at least one learner and
    distinct learner ids; it raises ValueError before any fetch otherwise.
    """
    profiles = sorted(profiles, key=lambda p: p.learner_id)
    # Records, results and heap entries are keyed by learner id.
    ids = [p.learner_id for p in profiles]
    repeated = [k for k, j in zip(ids, ids[1:]) if k == j]
    if not ids or repeated:
        raise ValueError(f"learner id {repeated[0]} is repeated" if repeated
                         else "cannot run without learners")
    log = MetricsLog(policy=cfg.policy, seed=seed)
    barrier = cfg.policy != "async"
    if cfg.policy == "semisync":
        log.schedule = plan_semisync(cfg.lam, profiles)

    prox_rho = 0.0 if barrier else cfg.weighting.prox_rho
    horizon_us = (
        math.inf if barrier else ms_to_us(cfg.time_budget_ms)
    )
    state = None if barrier else init_community(initial)
    w_c = initial

    def grad_fn(W, rows, out):
        stacked_grad(task, W, train.features[rows], train.labels[rows], out)

    capacity = max(1, _COHORT_ENTRIES // initial.num_entries)
    pool = TrainingPool(model_structure(task), min(capacity, len(profiles)),
                        cfg.optimizer, grad_fn, prox_rho)
    by_id = {p.learner_id: p for p in profiles}
    # learner id -> the record of its assignment in flight; its commit moves
    # the record to the log, and a refetch puts a new one in its place.
    flight: dict[int, Assignment] = {}
    heap: list[tuple[int, int]] = []
    # (arrival, learner id, anchor) of each assignment waiting to join the
    # pool, and learner id -> what its training gave (the trained model or
    # the NonFiniteError it hit), kept until its group commits.
    waiting: list[tuple[int, int, ParamSet]] = []
    trained: dict[int, ParamSet | NonFiniteError] = {}
    # The local steps committed before each commit, by commit count: the
    # steps in flight are a difference of two entries.
    committed = [0]

    def fetch(p: LearnerProfile, t: int, index: int) -> None:
        if log.schedule is None:
            budget = cfg.epochs * p.batches_per_epoch
        elif index == 0:
            budget = p.batches_per_epoch
        else:
            budget = log.schedule.batches[p.learner_id]
        a = flight[p.learner_id] = Assignment(
            p.learner_id, index, t, budget, len(log.assignments),
            t + budget * p.time_per_batch_us)
        heapq.heappush(heap, (a.arrival_us, a.learner))
        if a.arrival_us <= horizon_us:  # one past the horizon never trains
            # w_c is the model the last group served (state.model if async).
            heapq.heappush(waiting, (a.arrival_us, a.learner, w_c))

    for p in profiles:
        fetch(p, 0, 0)
    groups = 0
    while heap and heap[0][0] <= horizon_us:
        t = max(heap)[0] if barrier else heap[0][0]
        if t > sys.float_info.max:
            # t / 1000.0 would raise OverflowError: format it exactly.
            raise ValueError(f"virtual time {Decimal(t).scaleb(-3):.3e} ms "
                             "is past the float range")
        arrivals = []
        while heap and heap[0][0] <= t:
            arrivals.append(heapq.heappop(heap)[1])
        arrivals.sort()
        # ParamSet's finiteness check and the loss check catch an overflow,
        # so numpy's warnings for it would say nothing more.
        with np.errstate(over="ignore", invalid="ignore"):
            for lid in arrivals:  # step the pool until the group is done
                while lid not in trained:
                    while waiting and len(pool) < pool.capacity:
                        _, k, anchor = heapq.heappop(waiting)
                        p, a = by_id[k], flight[k]
                        pool.join(k, anchor, a.steps, assignment_batches(
                            p.indices, p.batch_size, np.random.default_rng(
                                [seed, _TRAIN_STREAM, k, a.index])))
                    trained.update(pool.step())
            models, weights = [], []
            for lid in arrivals:
                w_k = trained.pop(lid)
                p, a = by_id[lid], flight.pop(lid)
                if isinstance(w_k, NonFiniteError):
                    raise NonFiniteError(
                        f"learner {lid}, assignment {a.index}, arrival at "
                        f"{a.arrival_us / 1000.0!r} ms: {w_k}")
                a.commit_us = t
                log.assignments.append(a)
                if barrier:
                    a.weight = float(p.data_size)
                    models.append(w_k)
                    weights.append(a.weight)
                else:
                    n = len(committed) - 1  # the commits before this one
                    w_c, a.weight = commit(
                        cfg.weighting, state, lid, w_k, p.data_size,
                        committed[n] - committed[a.fetch_version], a.steps,
                        n - a.fetch_version,
                    )
                    committed.append(committed[n] + a.steps)
                    fetch(p, t, a.index + 1)
            if barrier:
                w_c = weighted_average(models, weights)
            groups += 1
            if barrier and groups < cfg.rounds:
                for p in profiles:
                    fetch(p, t, groups)
            if (groups % cfg.eval_every == 0 or not heap
                    or heap[0][0] > horizon_us):
                accuracy, loss = evaluate(task, w_c, test)
                if not math.isfinite(loss):
                    raise NonFiniteError(
                        f"evaluation at {t / 1000.0!r} ms: loss is {loss!r}")
                log.evals.append(EvalSnapshot(
                    t, groups - 1, log.update_requests, accuracy, loss))
    log.in_flight = [flight[k] for k in sorted(flight)]
    log.federation_rounds = groups if barrier else 0
    log.final_model = w_c
    log.final_state = state
    return log
