"""``run_policy`` against a naive reference simulator.

The reference follows the protocol text and nothing else. Each learner
trains alone (``oracles.train_alone``), folding the ``step_*`` update
rules over ``loss_and_grad`` gradients. There is no cohort and no in-place
buffer.

* Barrier runs: every round, each learner trains from the round's model;
  the round closes at its slowest arrival, and the next model is the
  shard-size weighted average of the round's models in learner-id order.
  The engine must match it bit for bit.
* Async runs: arrivals pop off a heap ordered by (time, learner), each
  commits at once, and its learner refetches right after its own commit.
  Under ``fedasync_poly`` a commit mixes ``(1 - alpha) * current + alpha *
  local`` with ``alpha = mixing * (version gap + 1) ** -0.5``, and the
  learner's gradients carry the proximal pull ``rho * (w - start)``; the
  engine must match it bit for bit. Under ``fedavg_static`` the community
  model is the shard-size weighted average of each learner's latest model,
  which the engine's incremental cache matches within 1e-9 (criterion 2).
"""

import heapq

from hypothesis import given, settings, strategies as st

from fedsim.engine import EvalSnapshot, ms_to_us, plan_semisync, run_policy
from fedsim.params import weighted_average
from fedsim.tasks import evaluate
from oracles import axpy, equal, max_abs_diff, scale, train_alone
from test_run_invariants import worlds


def reference_run(cfg, profiles, task, train, test, initial, seed):
    """(final model, evals, contributions, utilization) of a barrier run."""
    profiles = sorted(profiles, key=lambda p: p.learner_id)
    plan = plan_semisync(cfg.lam, profiles) if cfg.policy == "semisync" else None
    model, start = initial, 0
    evals, contributions, utilization = [], [], []
    for r in range(cfg.rounds):
        models, finishes = [], []
        for p in profiles:
            if plan is None:
                budget = cfg.epochs * p.batches_per_epoch
            elif r == 0:
                budget = p.batches_per_epoch
            else:
                budget = plan.batches[p.learner_id]
            models.append(train_alone(task, train, p, model, budget,
                                      cfg.optimizer, seed, r))
            finishes.append(start + budget * p.time_per_batch_us)
        close = max(finishes)
        for p, finish in zip(profiles, finishes):
            utilization.append(
                (p.learner_id, r, finish - start, close - finish)
            )
            contributions.append((close, p.learner_id, float(p.data_size)))
        model = weighted_average(models, [float(p.data_size) for p in profiles])
        if (r + 1) % cfg.eval_every == 0 or r == cfg.rounds - 1:
            evals.append(EvalSnapshot(close, r, len(contributions),
                                      *evaluate(task, model, test)))
        start = close
    return model, evals, contributions, utilization


@settings(max_examples=60, deadline=None, database=None)
@given(world=worlds(policies=("sync", "semisync")),
       seed=st.integers(0, 2**16))
def test_barrier_run_equals_reference(world, seed):
    log = run_policy(*world, seed)
    model, evals, contributions, utilization = reference_run(*world, seed)
    assert equal(log.final_model, model)
    assert log.evals == evals
    assert log.contributions == contributions
    assert log.utilization == utilization


def async_reference_run(cfg, profiles, task, train, test, initial, seed):
    """(final model, evals, contributions, utilization) of an async run."""
    profiles = {p.learner_id: p for p in profiles}
    scheme = cfg.weighting
    poly = scheme.kind == "fedasync_poly"
    horizon = ms_to_us(cfg.time_budget_ms)
    model, commits, groups = initial, 0, 0
    latest = {}  # learner id -> its latest committed model
    # learner id -> (anchor, commits at fetch, fetch time, assignment)
    fetched = {lid: (initial, 0, 0, 0) for lid in profiles}
    heap = []
    for lid, p in sorted(profiles.items()):
        heapq.heappush(heap, (cfg.epochs * p.batches_per_epoch
                              * p.time_per_batch_us, lid))
    evals, contributions, utilization = [], [], []
    while heap and heap[0][0] <= horizon:
        t, lid = heapq.heappop(heap)
        p = profiles[lid]
        anchor, fetch_commits, start, assignment = fetched[lid]
        budget = cfg.epochs * p.batches_per_epoch
        local = train_alone(task, train, p, anchor, budget, cfg.optimizer,
                            seed, assignment, scheme.rho if poly else 0.0)
        if poly:
            value = scheme.mixing * (commits - fetch_commits + 1) ** -0.5
            model = axpy(value, local, scale(1.0 - value, model))
        else:
            value = float(p.data_size)
            latest[lid] = local
            ids = sorted(latest)
            model = weighted_average(
                [latest[k] for k in ids],
                [float(profiles[k].data_size) for k in ids],
            )
        commits += 1
        contributions.append((t, lid, value))
        utilization.append((lid, assignment, t - start, 0))
        fetched[lid] = (model, commits, t, assignment + 1)
        heapq.heappush(heap, (t + budget * p.time_per_batch_us, lid))
        if heap[0][0] == t:  # more arrivals at this time: same group
            continue
        groups += 1
        if groups % cfg.eval_every == 0 or heap[0][0] > horizon:
            evals.append(EvalSnapshot(t, groups - 1, len(contributions),
                                      *evaluate(task, model, test)))
    return model, evals, contributions, utilization


@settings(max_examples=80, deadline=None, database=None)
@given(world=worlds(policies=("async",),
                    schemes=("fedavg_static", "fedasync_poly")),
       seed=st.integers(0, 2**16))
def test_async_run_equals_reference(world, seed):
    log = run_policy(*world, seed)
    model, evals, contributions, utilization = async_reference_run(*world,
                                                                   seed)
    assert log.contributions == contributions
    assert log.utilization == utilization
    assert [e[:3] for e in log.evals] == [e[:3] for e in evals]
    if world[0].weighting.kind == "fedasync_poly":
        assert equal(log.final_model, model)
    else:
        assert max_abs_diff(log.final_model, model) <= 1e-9
