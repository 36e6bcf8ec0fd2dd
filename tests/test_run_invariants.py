"""Run-level invariants of ``run_policy`` over small random worlds.

The goldens pin today's bytes; these properties state what any run must do,
whatever its policy, weighting, task and timing: learners follow the
fetch / train / request cycle, counters agree with the logs, idle time adds
up to the round length, evaluations fall where ``eval_every`` puts them,
and under an async cache weighting each learner's record in the
``controller_snapshot.json`` the run's log writes agrees with its
contribution rows. Latencies start at 0.0005 ms, the
smallest value ``LearnerProfile`` accepts, so no example can stall the
clock.
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
# One learner's events in the order it produces them; a barrier commit is
# the server's (learner -1), so only async cycles end in a learner commit.
CYCLE = ("fetch", "train_start", "train_end", "update_request")


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

    # Each learner's own events are time-ordered and follow its cycle; every
    # fetch has exactly one train_end, except under async, where the run
    # ends with each learner's last model in flight past the horizon.
    for p in profiles:
        mine = [(t, kind) for t, kind, lid in log.events
                if lid == p.learner_id]
        times = [t for t, _ in mine]
        assert times == sorted(times)
        cycle = CYCLE if barrier else (*CYCLE, "community_commit")
        kinds = [kind for _, kind in mine]
        assert kinds == [cycle[i % len(cycle)] for i in range(len(kinds))]
        fetches = [t for t, kind in mine if kind == "fetch"]
        train_ends = kinds.count("train_end")
        if barrier:
            assert train_ends == len(fetches) == cfg.rounds
        else:
            assert kinds[-2:] == ["fetch", "train_start"]
            assert train_ends == len(fetches) - 1
            cycle_us = cfg.epochs * p.batches_per_epoch * p.time_per_batch_us
            assert fetches[-1] + cycle_us > horizon_us
    server = [t for t, kind, lid in log.events if lid == -1]
    assert server == sorted(server)

    assert log.update_requests == len(log.contributions)
    assert log.update_requests == sum(
        kind == "update_request" for _, kind, _ in log.events
    )

    # A commit group is one round under a barrier, one timestamp under async.
    if barrier:
        group_ends = [t for t, kind, lid in log.events
                      if kind == "community_commit"]
        assert len(group_ends) == log.federation_rounds == cfg.rounds
        starts = [0, *group_ends[:-1]]
        for lid, r, active_us, idle_us in log.utilization:
            assert active_us > 0 and idle_us >= 0
            assert active_us + idle_us == group_ends[r] - starts[r]
        assert sorted((r, lid) for lid, r, _, _ in log.utilization) == [
            (r, p.learner_id) for r in range(cfg.rounds) for p in profiles
        ]
    else:
        group_ends = sorted({t for t, _, _ in log.contributions})
        assert all(t <= horizon_us for t in group_ends)
        assert all(idle == 0 for _, _, _, idle in log.utilization)
        assert log.federation_rounds == 0

    # Evaluations fall after every eval_every-th group and after the last.
    last = len(group_ends) - 1
    expected = [g for g in range(len(group_ends))
                if (g + 1) % cfg.eval_every == 0 or g == last]
    assert [ev.round_index for ev in log.evals] == expected
    assert [ev.t_us for ev in log.evals] == [group_ends[g] for g in expected]
    for ev in log.evals:
        assert ev.update_requests == sum(
            t <= ev.t_us for t, _, _ in log.contributions
        )


@settings(max_examples=30, deadline=None, database=None)
@given(
    world=worlds(policies=("async",),
                 schemes=("fedavg_static", "fedrec_staleness")),
    seed=st.integers(0, 2**16),
)
def test_controller_records_follow_contributions(world, seed):
    # Commit i (0-based) leaves the community at version i + 1, and the
    # committing learner refetches at once; its first fetch is version 0.
    # So each learner's record holds its last row's weight and the version
    # one past its previous row.
    log = run_policy(*world, seed)
    rows: dict[int, list[int]] = {}
    for i, (_, lid, _) in enumerate(log.contributions):
        rows.setdefault(lid, []).append(i)
    with tempfile.TemporaryDirectory() as out:
        export_metrics(log, out)
        with open(os.path.join(out, "controller_snapshot.json")) as fh:
            learners = json.load(fh)["learners"]
    assert sorted(int(k) for k in learners) == sorted(rows)
    for lid, mine in rows.items():
        record = learners[str(lid)]
        assert record["value"] == log.contributions[mine[-1]][2]
        assert record["fetch_steps"] == (mine[-2] + 1 if len(mine) > 1 else 0)
