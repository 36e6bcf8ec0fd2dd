"""Run-level invariants of ``run_policy`` over small random worlds.

The goldens pin today's bytes; these properties state what any run must do,
whatever its policy, weighting, task and timing: each learner's assignment
records chain fetch to commit to refetch, counters agree with the ledger,
idle time adds up to the round length, evaluations fall where
``eval_every`` puts them, every async commit's weight follows from the
ledger alone, and under async the ``controller_snapshot.json`` the run's
log writes, its counters and each learner's record, agrees with the
committed records. Latencies start at 0.0005 ms, the smallest value
``LearnerProfile`` accepts, so no example can stall the clock.
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from fedsim.controller import WEIGHTING_KINDS, WeightingScheme
from fedsim.engine import (
    POLICIES, LearnerProfile, ProtocolConfig, ms_to_us, run_policy,
)
from fedsim.optimizers import OptimizerConfig
from fedsim.runner import export_metrics
from fedsim.tasks import TASK_KINDS, TaskModel, gen_synthetic, init_params

NUM_CLASSES = 3
INPUT_DIM = 4


@st.composite
def worlds(draw, policies=POLICIES, schemes=WEIGHTING_KINDS):
    n = draw(st.integers(2, 6))
    shards = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    batch = draw(st.integers(1, 8))
    # A base latency times a skew of at most 5 keeps a semisync budget, which
    # scales with the slowest-to-fastest ratio, small.
    base_ms = draw(st.floats(0.0005, 20.0))
    skews = draw(st.lists(st.floats(1.0, 5.0), min_size=n, max_size=n))
    policy = draw(st.sampled_from(policies))
    epochs = draw(st.integers(1, 2))
    total = sum(shards)
    train = gen_synthetic(NUM_CLASSES, -(-total // NUM_CLASSES), INPUT_DIM,
                          1.0, seed=3)
    bounds = np.cumsum([0, *shards])
    profiles = [
        LearnerProfile(k, "fast", batch, base_ms * skews[k],
                       np.arange(bounds[k], bounds[k + 1]))
        for k in range(n)
    ]
    # The async budget is 1 to 20 shortest cycles, so every world commits
    # at least once and every learner at most ~20 times (the empty run has
    # its own test in test_engine.py).
    shortest_us = min(
        epochs * p.batches_per_epoch * p.time_per_batch_us for p in profiles
    )
    cfg = ProtocolConfig(
        policy,
        OptimizerConfig(draw(st.sampled_from(("vanilla", "momentum",
                                              "fedprox"))), eta=0.05),
        WeightingScheme(draw(st.sampled_from(schemes))),
        epochs=epochs,
        lam=draw(st.floats(0.25, 2.0)),
        rounds=draw(st.integers(1, 3)),
        time_budget_ms=draw(st.floats(1.0, 20.0)) * shortest_us / 1000.0,
        eval_every=draw(st.integers(1, 3)),
    )
    kind = draw(st.sampled_from(TASK_KINDS))
    task = TaskModel(kind, INPUT_DIM, NUM_CLASSES,
                     hidden_dim=5 if kind == "mlp1" else 0)
    test = gen_synthetic(NUM_CLASSES, 5, INPUT_DIM, 1.0, seed=3, sample_tag=1)
    initial = init_params(task, np.random.default_rng(1))
    return cfg, profiles, task, train, test, initial


@settings(max_examples=60, deadline=None, database=None)
@given(world=worlds(), seed=st.integers(0, 2**16))
def test_run_invariants(world, seed):
    # No world may fail, including a semisync horizon under half a
    # microsecond, which the smallest shards, latencies and lambda give.
    cfg, profiles, task, train, test, initial = world
    log = run_policy(cfg, profiles, task, train, test, initial, seed)
    barrier = cfg.policy != "async"
    horizon_us = ms_to_us(cfg.time_budget_ms)
    commits = [a.commit_us for a in log.assignments]
    assert commits == sorted(commits)

    # The chain rule: a learner's committed records, then its record in
    # flight, are its assignments 0..k; the first is fetched at 0 and each
    # later one when the one before commits. Under async every learner ends
    # with one model in flight past the horizon, under a barrier none.
    for p in profiles:
        committed = [a for a in log.assignments if a.learner == p.learner_id]
        flying = [a for a in log.in_flight if a.learner == p.learner_id]
        chain = committed + flying
        assert [a.index for a in chain] == list(range(len(chain)))
        assert [a.fetch_us for a in chain] == [
            0, *(a.commit_us for a in committed)][:len(chain)]
        for a in chain:
            assert a.arrival_us == a.fetch_us + a.steps * p.time_per_batch_us
        for a in committed:
            assert a.commit_us >= a.arrival_us
            assert a.commit_us == a.arrival_us or barrier
        if barrier:
            assert len(committed) == cfg.rounds and not flying
        else:
            assert len(flying) == 1 and flying[0].arrival_us > horizon_us
    assert len(log.in_flight) == (0 if barrier else len(profiles))

    # A commit group is one round under a barrier, one timestamp under async.
    group_ends = sorted(set(commits))
    if barrier:
        assert len(group_ends) == log.federation_rounds == cfg.rounds
        starts = [0, *group_ends[:-1]]
        for a in log.assignments:
            active_us = a.arrival_us - a.fetch_us
            idle_us = a.commit_us - a.arrival_us
            assert active_us > 0 and idle_us >= 0
            assert active_us + idle_us == group_ends[a.index] - starts[a.index]
        assert sorted((a.index, a.learner) for a in log.assignments) == [
            (r, p.learner_id) for r in range(cfg.rounds) for p in profiles
        ]
    else:
        assert all(t <= horizon_us for t in group_ends)
        assert log.federation_rounds == 0

    # Evaluations fall after every eval_every-th group and after the last,
    # each counting the commits at or before it.
    last = len(group_ends) - 1
    expected = [g for g in range(len(group_ends))
                if (g + 1) % cfg.eval_every == 0 or g == last]
    assert [ev.round_index for ev in log.evals] == expected
    assert [ev.t_us for ev in log.evals] == [group_ends[g] for g in expected]
    assert log.update_requests == len(log.assignments)
    for ev in log.evals:
        assert ev.update_requests == sum(t <= ev.t_us for t in commits)


@settings(max_examples=60, deadline=None, database=None)
@given(world=worlds(policies=("async",)), seed=st.integers(0, 2**16))
def test_ledger_decides_every_async_weight(world, seed):
    # Commit i's weight, written out from the ledger: the records from its
    # fetch version up to i are the commits made while its model was in
    # flight. ROADMAP item 6 deletes the recency discount's "- a.steps"
    # term, so that the discount counts only other learners' steps.
    cfg, profiles = world[:2]
    scheme = cfg.weighting
    sizes = {p.learner_id: p.data_size for p in profiles}
    log = run_policy(*world, seed)
    assert log.assignments
    for i, a in enumerate(log.assignments):
        if scheme.kind == "fedavg_static":
            want = float(sizes[a.learner])
        elif scheme.kind == "fedrec_staleness":
            s = sum(b.steps for b in log.assignments[a.fetch_version:i])
            want = (max(0, s - a.steps) + 1) ** -0.5
        else:
            want = scheme.mixing * (i - a.fetch_version + 1) ** -0.5
        assert a.weight == want, (i, a)


@settings(max_examples=45, deadline=None, database=None)
@given(world=worlds(policies=("async",)), seed=st.integers(0, 2**16))
def test_controller_records_follow_contributions(world, seed):
    # Commit i (0-based) leaves the community at version i + 1, and the
    # committing learner refetches at once; its first fetch is version 0.
    # So each learner's record holds its last commit's weight and steps and
    # the version one past its previous commit. The snapshot counts every
    # commit and, where the state keeps records, their steps:
    # fedasync_poly keeps none.
    log = run_policy(*world, seed)
    poly = world[0].weighting.kind == "fedasync_poly"
    rows: dict[int, list[int]] = {}
    for i, a in enumerate(log.assignments):
        rows.setdefault(a.learner, []).append(i)
    with tempfile.TemporaryDirectory() as out:
        export_metrics(log, out)
        with open(os.path.join(out, "controller_snapshot.json")) as fh:
            snap = json.load(fh)
    assert snap["version"] == len(log.assignments)
    assert snap["committed_steps"] == (
        0 if poly else sum(a.steps for a in log.assignments))
    learners = snap["learners"]
    assert sorted(int(k) for k in learners) == ([] if poly else sorted(rows))
    for k, record in learners.items():
        mine = rows[int(k)]
        last = log.assignments[mine[-1]]
        assert record["value"] == last.weight
        assert record["local_steps"] == last.steps
        assert record["fetch_steps"] == (mine[-2] + 1 if len(mine) > 1 else 0)
