"""Barrier runs of ``run_policy`` against a naive reference simulator.

The reference follows the protocol text and nothing else: every round, each
learner trains alone from the round's model, folding the ``step_*`` update
rules over ``loss_and_grad`` gradients; the round closes at its slowest
arrival, and the next model is the shard-size weighted average of the
round's models in learner-id order. There is no event heap, no cohort and
no in-place buffer, so the engine must match it bit for bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from fedsim import engine
from fedsim.engine import EvalSnapshot, plan_semisync, run_policy
from fedsim.optimizers import (
    epoch_batches, step_fedprox, step_momentum, step_vanilla,
)
from fedsim.params import equal, weighted_average, zeros_like
from fedsim.tasks import evaluate, loss_and_grad
from test_run_invariants import worlds


def train_alone(task, train, p, start, budget, opt, seed, round_index):
    """``budget`` local steps of learner ``p`` from ``start``."""
    rng = np.random.default_rng(
        [seed, engine._TRAIN_STREAM, p.learner_id, round_index]
    )
    batches = epoch_batches(p.data_size, p.batch_size, rng)
    w, u = start, zeros_like(start)
    for _ in range(budget):
        rows = p.indices[next(batches)]
        _, g = loss_and_grad(task, w, train.features[rows], train.labels[rows])
        if opt.kind == "vanilla":
            w = step_vanilla(w, g, opt)
        elif opt.kind == "momentum":
            w, u = step_momentum(w, u, g, opt)
        else:
            w = step_fedprox(w, start, g, opt)
    return w


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
