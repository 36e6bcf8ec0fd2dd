"""Wall-clock threaded drivers.

The virtual-clock drivers in :mod:`fedsim.engine` are the reference
implementation; these run the same protocols with one OS thread per learner
and real measured latencies instead of configured ones. Commits funnel
through the controller lock in arrival order. Timings depend on the host, so
nothing here is deterministic and none of it participates in the acceptance
checks; it exists to sanity-check the protocol logic against actual
concurrency.
"""

from __future__ import annotations

import threading
import time

from .controller import (
    cached_update,
    compute_contribution,
    fedasync_update,
    get_community,
    init_community,
    record_fetch,
)
from .engine import (
    EvalSnapshot,
    LearnerProfile,
    MetricsLog,
    ProtocolConfig,
    SchedulePlan,
    _client_update,
    _round_half_up,
    _shards,
)
from .params import ParamSet, weighted_average
from .tasks import Dataset, TaskModel, evaluate


def _now_us(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1e6)


def run_semisync_threaded(
    cfg: ProtocolConfig,
    profiles: list[LearnerProfile],
    task: TaskModel,
    train: Dataset,
    test: Dataset,
    initial: ParamSet,
    seed: int,
) -> MetricsLog:
    """Semi-synchronous rounds with measured per-batch wall time.

    Round 0 trains one epoch per learner in parallel and records each
    learner's observed seconds per batch; those measurements (not the
    configured profile values) feed the schedule for the remaining rounds.
    """
    profiles = sorted(profiles, key=lambda p: p.learner_id)
    log = MetricsLog(policy="semisync-threaded", seed=seed)
    shards = _shards(profiles, train)
    t0 = time.perf_counter()
    w_c = initial
    measured_us: dict[int, int] = {}
    budgets = {p.learner_id: p.batches_per_epoch for p in profiles}
    lock = threading.Lock()

    for r in range(cfg.rounds):
        models: dict[int, ParamSet] = {}
        spans: dict[int, tuple[int, int]] = {}

        def work(p: LearnerProfile, budget: int, anchor: ParamSet):
            begin = _now_us(t0)
            X, y = shards[p.learner_id]
            w_k = _client_update(
                p, X, y, anchor, budget, task, cfg.optimizer, seed, r
            )
            end = _now_us(t0)
            with lock:
                models[p.learner_id] = w_k
                spans[p.learner_id] = (begin, end)

        threads = [
            threading.Thread(target=work, args=(p, budgets[p.learner_id], w_c))
            for p in profiles
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        round_end = max(end for _, end in spans.values())
        for p in profiles:
            begin, end = spans[p.learner_id]
            log.utilization.append(
                (p.learner_id, r, end - begin, round_end - end)
            )
            if r == 0:
                measured_us[p.learner_id] = max(
                    1, (end - begin) // budgets[p.learner_id]
                )
        w_c = weighted_average(
            [models[p.learner_id] for p in profiles],
            [float(p.data_size) for p in profiles],
        )
        log.update_requests += len(profiles)
        log.federation_rounds += 1
        accuracy, loss = evaluate(task, w_c, test)
        log.evals.append(
            EvalSnapshot(round_end, r, log.update_requests, accuracy, loss)
        )
        if r == 0:
            horizon = max(
                (p.data_size / p.batch_size) * measured_us[p.learner_id]
                for p in profiles
            )
            t_max_us = max(1, _round_half_up(cfg.lam * horizon))
            budgets = {
                p.learner_id: max(
                    1, _round_half_up(t_max_us / measured_us[p.learner_id])
                )
                for p in profiles
            }
            log.schedule = SchedulePlan(t_max_us=t_max_us, batches=dict(budgets))
    log.final_model = w_c
    return log


def run_async_threaded(
    cfg: ProtocolConfig,
    profiles: list[LearnerProfile],
    task: TaskModel,
    train: Dataset,
    test: Dataset,
    initial: ParamSet,
    seed: int,
    wall_budget_s: float = 1.0,
) -> MetricsLog:
    """Free-running learner threads against the shared controller lock."""
    profiles = sorted(profiles, key=lambda p: p.learner_id)
    scheme = cfg.weighting
    state = init_community(initial, [p.learner_id for p in profiles])
    log = MetricsLog(policy="async-threaded", seed=seed)
    shards = _shards(profiles, train)
    t0 = time.perf_counter()
    deadline = t0 + wall_budget_s
    log_lock = threading.Lock()
    prox_rho = scheme.rho if scheme.kind == "fedasync_poly" else 0.0

    def work(p: LearnerProfile):
        assignment = 0
        X, y = shards[p.learner_id]
        steps = cfg.epochs * p.batches_per_epoch
        while time.perf_counter() < deadline:
            anchor, fetch_steps, fetch_version = record_fetch(
                state, p.learner_id
            )
            begin = _now_us(t0)
            w_k = _client_update(
                p, X, y, anchor, steps, task, cfg.optimizer, seed,
                assignment, prox_rho,
            )
            end = _now_us(t0)
            if scheme.kind == "fedasync_poly":
                _, value = fedasync_update(
                    state, p.learner_id, w_k, scheme.mixing, fetch_version,
                    scheme.staleness_adaptive,
                )
            else:
                value = compute_contribution(
                    scheme, state, p.data_size, fetch_steps, steps
                )
                cached_update(state, p.learner_id, w_k, value, steps)
            with log_lock:
                log.update_requests += 1
                log.contributions.append((end, p.learner_id, value))
                log.utilization.append(
                    (p.learner_id, assignment, end - begin, 0)
                )
            assignment += 1

    threads = [threading.Thread(target=work, args=(p,)) for p in profiles]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    w_c = get_community(state)
    accuracy, loss = evaluate(task, w_c, test)
    t_end = _now_us(t0)
    log.evals.append(
        EvalSnapshot(t_end, 0, log.update_requests, accuracy, loss)
    )
    log.final_state = state
    log.final_model = w_c
    return log
