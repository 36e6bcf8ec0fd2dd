"""Virtual-time engine: schedule planning, the three policies, exports."""

import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim.controller import WeightingScheme
from fedsim.engine import (
    EvalSnapshot,
    LearnerProfile,
    MetricsLog,
    ProtocolConfig,
    _EVENT_RANK,
    _round_half_up,
    plan_semisync,
    run_policy,
)
from fedsim.optimizers import OptimizerConfig
from fedsim.runner import export_metrics
from fedsim.tasks import TaskModel, evaluate, gen_synthetic, init_params
from oracles import equal, from_obj, max_abs_diff

OPT = OptimizerConfig("vanilla", eta=0.05)
STATIC = WeightingScheme("fedavg_static")


def profile(lid, t_ms, indices, batch_size=20, device="fast"):
    return LearnerProfile(lid, device, batch_size, t_ms, np.asarray(indices))


def small_world(num_learners, per_learner, num_classes=3, input_dim=4,
                seed=5, spread=1.5):
    total = num_learners * per_learner
    per_class = -(-total // num_classes)
    train = gen_synthetic(num_classes, per_class, input_dim, spread, seed)
    test = gen_synthetic(num_classes, 20, input_dim, spread, seed,
                         sample_tag=1)
    task = TaskModel("softmax_regression", input_dim=input_dim,
                     num_classes=num_classes)
    chunks = [np.arange(k * per_learner, (k + 1) * per_learner)
              for k in range(num_learners)]
    initial = init_params(task, np.random.default_rng([seed, 4]))
    return task, train, test, chunks, initial


def test_round_half_up():
    assert _round_half_up(0.4) == 0
    assert _round_half_up(0.5) == 1
    assert _round_half_up(1.5) == 2
    assert _round_half_up(2.5) == 3
    assert _round_half_up(2.49) == 2


def test_plan_two_learner_pinned_fast_slow():
    # both shards are 114 batches; slowest epoch takes 114 * 300 ms, so the
    # horizon at lambda=2 is 68400000 us and the budgets follow by division
    profs = [profile(0, 30.0, np.arange(2280)),
             profile(1, 300.0, np.arange(2280, 4560))]
    plan = plan_semisync(2.0, profs)
    assert plan.t_max_us == 68_400_000
    assert plan.batches == {0: 2280, 1: 228}


def test_plan_two_learner_pinned_half_lambda():
    profs = [profile(0, 60.0, np.arange(2280)),
             profile(1, 2000.0, np.arange(2280, 4560))]
    plan = plan_semisync(0.5, profs)
    assert plan.t_max_us == 114_000_000
    assert plan.batches == {0: 1900, 1: 57}


def test_plan_budget_floor_is_one():
    # lambda small enough that the slow learner's share rounds to zero
    profs = [profile(0, 1.0, np.arange(2000)),
             profile(1, 10_000.0, np.arange(2000, 2020))]
    plan = plan_semisync(0.25, profs)
    assert plan.batches[1] == 1
    assert plan.batches[0] == 2500


def test_plan_rounds_half_up():
    # t_max 2500 ms against a 1000 ms batch: 2.5 rounds up to 3
    profs = [profile(0, 100.0, np.arange(500)),
             profile(1, 1000.0, np.arange(500, 520))]
    plan = plan_semisync(1.0, profs)
    assert plan.t_max_us == 2_500_000
    assert plan.batches == {0: 25, 1: 3}


@settings(max_examples=300, deadline=None, database=None)
@given(
    lam=st.floats(0.05, 20.0),
    learners=st.lists(
        st.tuples(
            st.integers(1, 5000),  # shard size
            st.integers(1, 200),  # batch size
            st.floats(0.001, 2000.0),  # per-batch latency, ms
        ),
        min_size=1, max_size=12,
    ),
)
def test_plan_semisync_invariants(lam, learners):
    profs = [profile(k, t_ms, np.arange(size), batch_size=bs)
             for k, (size, bs, t_ms) in enumerate(learners)]
    # The horizon is lambda times the slowest epoch (fractional batches
    # included), rounded half up to whole microseconds and floored at 1 us,
    # as budgets are floored at one batch.
    target = Fraction(lam) * max(
        Fraction(p.data_size, p.batch_size) * p.time_per_batch_us
        for p in profs
    )
    plan = plan_semisync(lam, profs)
    if _round_half_up(float(target)) < 1:
        assert plan.t_max_us == 1
    else:
        assert abs(plan.t_max_us - target) <= Fraction(1, 2) + target * 1e-12
    assert sorted(plan.batches) == list(range(len(profs)))
    for p in profs:
        b, tpb = plan.batches[p.learner_id], p.time_per_batch_us
        assert b >= 1
        if b > 1:  # the budget is the nearest whole number of batches
            assert 2 * abs(b * tpb - plan.t_max_us) <= tpb


def test_plan_rejects_bad_lambda():
    profs = [profile(0, 30.0, np.arange(100))]
    with pytest.raises(ValueError):
        plan_semisync(0.0, profs)
    with pytest.raises(ValueError):
        plan_semisync(-1.0, profs)
    with pytest.raises(ValueError):
        plan_semisync(1.0, [])


def test_profile_derived_quantities():
    p = profile(0, 30.5, np.arange(23), batch_size=5)
    assert p.data_size == 23
    assert p.batches_per_epoch == 5  # ceil(23 / 5)
    assert p.time_per_batch_us == 30_500


def test_profile_rejects_sub_microsecond_batches():
    # 0.0005 ms rounds up to one clock microsecond; below that a batch
    # takes no virtual time and an async run would never end.
    assert profile(0, 0.0005, np.arange(5)).time_per_batch_us == 1
    for t_ms in (0.0004, 1e-9):
        with pytest.raises(ValueError, match="at least 1 us"):
            profile(0, t_ms, np.arange(5))
    with pytest.raises(ValueError, match="positive"):
        profile(0, 0.0, np.arange(5))


def test_profile_rejects_an_empty_shard():
    with pytest.raises(ValueError, match="learner 3 has no data"):
        profile(3, 30.0, np.arange(0))


@pytest.mark.parametrize("t_ms", [1e306, math.inf])
def test_profile_rejects_latency_past_the_clock(t_ms):
    # The microsecond count overflows a float: the profile refuses it when
    # built instead of raising OverflowError when first used.
    with pytest.raises(ValueError, match="not a finite number of micro"):
        profile(0, t_ms, np.arange(5))


def test_plan_rejects_horizon_past_the_clock():
    profs = [profile(0, 30.0, np.arange(100))]
    with pytest.raises(ValueError, match="lambda 1e\\+306 overflows"):
        plan_semisync(1e306, profs)


def test_plan_blames_the_epoch_when_it_overflows_before_lambda():
    # 3 batches of 1.8e308 us are past the float range before lambda
    # multiplies them, however small lambda is.
    profs = [profile(0, 1.7976931348623157e305, np.arange(3), batch_size=1)]
    with pytest.raises(ValueError) as err:
        plan_semisync(5e-324, profs)
    assert str(err.value) == (
        "learner 0's epoch of 3 batches at 1.7976931348623156e+305 ms each "
        "overflows the microsecond clock"
    )


def test_barrier_round_past_the_float_range_raises():
    # 1e305 ms per batch is a count the clock holds, but 100 batches end the
    # round past the float range: the run refuses it before training.
    task, train, test, chunks, initial = small_world(2, 500)
    profs = [profile(0, 30.0, chunks[0]), profile(1, 1e305, chunks[1])]
    cfg = ProtocolConfig("sync", OPT, STATIC, epochs=4, rounds=1)
    with pytest.raises(ValueError, match="past the float range"):
        run_policy(cfg, profs, task, train, test, initial, seed=3)


def test_protocol_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig("gossip", OPT, STATIC)
    with pytest.raises(ValueError):
        ProtocolConfig("sync", OPT, STATIC, epochs=0)
    with pytest.raises(ValueError):
        ProtocolConfig("semisync", OPT, STATIC, lam=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig("async", OPT, STATIC, time_budget_ms=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig("sync", OPT, STATIC, rounds=0)
    with pytest.raises(ValueError):
        ProtocolConfig("sync", OPT, STATIC, eval_every=0)


def sync_fast_slow(rounds=2):
    task, train, test, chunks, initial = small_world(2, 500, num_classes=4)
    profs = [profile(0, 30.0, chunks[0]), profile(1, 300.0, chunks[1],
                                                  device="slow")]
    cfg = ProtocolConfig("sync", OPT, STATIC, epochs=4, rounds=rounds)
    return run_policy(cfg, profs, task, train, test, initial, seed=9), profs


def test_sync_idle_worked_example():
    # 500 examples at batch 20 is 25 batches, 4 epochs is 100 batches:
    # 3000 ms for the fast learner, 30000 ms for the slow one, so the fast
    # learner idles 27000 ms per round and the slow one never waits
    log, _ = sync_fast_slow(rounds=2)
    rows = {(lid, r): (a, i) for lid, r, a, i in log.utilization}
    for r in range(2):
        assert rows[(0, r)] == (3_000_000, 27_000_000)
        assert rows[(1, r)] == (30_000_000, 0)


def test_sync_round_boundaries_and_counters():
    log, _ = sync_fast_slow(rounds=3)
    assert log.federation_rounds == 3
    assert log.update_requests == 6  # rounds * learners
    assert log.models_exchanged == 12
    assert [ev.t_us for ev in log.evals] == [30_000_000, 60_000_000,
                                             90_000_000]
    assert [ev.round_index for ev in log.evals] == [0, 1, 2]
    # evaluation costs no virtual time: round 1 starts exactly at 30000 ms
    starts = [(t, lid) for t, kind, lid in log.events if kind == "train_start"]
    assert (30_000_000, 0) in starts and (30_000_000, 1) in starts


def test_sync_homogeneous_zero_idle():
    task, train, test, chunks, initial = small_world(3, 100)
    profs = [profile(k, 50.0, chunks[k]) for k in range(3)]
    cfg = ProtocolConfig("sync", OPT, STATIC, epochs=2, rounds=2)
    log = run_policy(cfg, profs, task, train, test, initial, seed=3)
    assert all(idle == 0 for _, _, _, idle in log.utilization)


def test_sync_eval_every_includes_last_round():
    task, train, test, chunks, initial = small_world(2, 100)
    profs = [profile(k, 40.0, chunks[k]) for k in range(2)]
    cfg = ProtocolConfig("sync", OPT, STATIC, epochs=1, rounds=5,
                         eval_every=2)
    log = run_policy(cfg, profs, task, train, test, initial, seed=3)
    assert [ev.round_index for ev in log.evals] == [1, 3, 4]


def test_sync_contribution_weights_are_data_sizes():
    log, profs = sync_fast_slow(rounds=1)
    weights = sorted(v for _, _, v in log.contributions)
    assert weights == [500.0, 500.0]


def test_semisync_cold_start_then_planned_budgets():
    task, train, test, chunks, initial = small_world(2, 500, num_classes=4)
    profs = [profile(0, 30.0, chunks[0]),
             profile(1, 300.0, chunks[1], device="slow")]
    cfg = ProtocolConfig("semisync", OPT, STATIC, lam=2.0, rounds=3)
    log = run_policy(cfg, profs, task, train, test, initial, seed=9)
    plan = plan_semisync(2.0, profs)
    assert log.schedule == plan
    rows = {(lid, r): (a, i) for lid, r, a, i in log.utilization}
    # round 0 is one profiling epoch: 25 batches each
    assert rows[(0, 0)][0] == 25 * 30_000
    assert rows[(1, 0)][0] == 25 * 300_000
    # later rounds run the planned budgets
    for r in (1, 2):
        assert rows[(0, r)][0] == plan.batches[0] * 30_000
        assert rows[(1, r)][0] == plan.batches[1] * 300_000


def test_semisync_scheduled_idle_below_one_batch():
    task, train, test, chunks, initial = small_world(3, 400, num_classes=4)
    profs = [profile(0, 17.0, chunks[0]), profile(1, 130.0, chunks[1]),
             profile(2, 340.0, chunks[2], device="slow")]
    cfg = ProtocolConfig("semisync", OPT, STATIC, lam=1.5, rounds=4)
    log = run_policy(cfg, profs, task, train, test, initial, seed=11)
    slowest_batch_us = max(p.time_per_batch_us for p in profs)
    for lid, r, active, idle in log.utilization:
        if r == 0:
            continue
        assert idle <= slowest_batch_us, (lid, r, idle)


def test_semisync_counters_exact():
    task, train, test, chunks, initial = small_world(4, 120)
    profs = [profile(k, 20.0 + 10 * k, chunks[k]) for k in range(4)]
    cfg = ProtocolConfig("semisync", OPT, STATIC, lam=2.0, rounds=5)
    log = run_policy(cfg, profs, task, train, test, initial, seed=2)
    assert log.update_requests == 20
    assert log.models_exchanged == 40
    assert log.federation_rounds == 5


def async_world(budget_ms, weighting=STATIC, epochs=1, seed=7):
    task, train, test, chunks, initial = small_world(2, 200, num_classes=4)
    profs = [profile(0, 3.0, chunks[0]),
             profile(1, 30.0, chunks[1], device="slow")]
    cfg = ProtocolConfig("async", OPT, weighting, epochs=epochs,
                         time_budget_ms=budget_ms)
    log = run_policy(cfg, profs, task, train, test, initial, seed=seed)
    return log, profs


def test_async_commit_counts_match_cycle_arithmetic():
    # 200 examples, batch 20, 1 epoch: cycles are 10*3 ms and 10*30 ms;
    # within 1000 ms that is floor(1000/30)=33 and floor(1000/300)=3 commits
    log, profs = async_world(1000.0)
    per_learner = {0: 0, 1: 0}
    for _, kind, lid in log.events:
        if kind == "update_request":
            per_learner[lid] += 1
    assert per_learner == {0: 33, 1: 3}
    assert log.update_requests == 36
    assert log.federation_rounds == 0


def test_async_exact_multiple_budget():
    # budget exactly 10 fast cycles: the boundary commit still lands
    log, profs = async_world(300.0)
    per_learner = {0: 0, 1: 0}
    for _, kind, lid in log.events:
        if kind == "update_request":
            per_learner[lid] += 1
    assert per_learner == {0: 10, 1: 1}


def test_async_budget_below_the_shortest_cycle_commits_nothing():
    # The fast cycle is 30 ms: within 29 ms no model comes back, so the run
    # holds each learner's first fetch and nothing else.
    log, _ = async_world(29.0)
    initial = small_world(2, 200, num_classes=4)[-1]
    assert log.contributions == [] and log.utilization == []
    assert log.evals == [] and log.update_requests == 0
    assert equal(log.final_model, initial)
    assert log.events == [(0, "fetch", 0), (0, "train_start", 0),
                          (0, "fetch", 1), (0, "train_start", 1)]


def test_async_zero_idle():
    log, _ = async_world(500.0)
    assert log.utilization
    assert all(idle == 0 for _, _, _, idle in log.utilization)


def test_async_eval_times_strictly_increase():
    log, _ = async_world(1000.0)
    times = [ev.t_us for ev in log.evals]
    assert times == sorted(times)
    assert len(set(times)) == len(times)


def test_async_fedrec_weights_bounded_and_fresh_first():
    log, _ = async_world(1000.0, weighting=WeightingScheme("fedrec_staleness"))
    assert log.contributions
    t0, lid0, v0 = log.contributions[0]
    assert v0 == 1.0  # first commit has nothing intervening
    assert all(0.0 < v <= 1.0 for _, _, v in log.contributions)
    # the slow learner's commits land amid many fast commits, so its later
    # contributions are discounted
    slow = [v for _, lid, v in log.contributions if lid == 1]
    assert slow and slow[-1] < 1.0


def test_async_fedasync_mixing_alphas():
    scheme = WeightingScheme("fedasync_poly", mixing=0.5)
    log, _ = async_world(1000.0, weighting=scheme)
    assert all(0.0 < v <= 0.5 for _, _, v in log.contributions)
    # community model is the broadcast model, not a cache average
    assert log.final_state is not None
    assert log.final_state.normalizer == 0.0
    assert equal(log.final_state.model, log.final_model)


def test_async_final_eval_present_and_final_model_consistent():
    log, _ = async_world(1000.0)
    task, train, test, chunks, initial = small_world(2, 200, num_classes=4)
    acc, loss = evaluate(task, log.final_model, test)
    assert log.evals[-1].accuracy == acc
    assert log.evals[-1].loss == loss


def test_event_stream_structure():
    log, _ = sync_fast_slow(rounds=2)
    kinds = {kind for _, kind, _ in log.events}
    assert kinds == {"fetch", "train_start", "train_end", "update_request",
                     "community_commit", "eval"}
    ordered = log.sorted_events()
    times = [t for t, _, _ in ordered]
    assert times == sorted(times)
    # per learner: fetch never after its own train_start at the same time
    seen = {}
    for t, kind, lid in ordered:
        if kind == "fetch":
            seen[lid] = t
        if kind == "train_start":
            assert seen.get(lid) == t


def test_final_model_matches_last_eval_sync():
    log, _ = sync_fast_slow(rounds=2)
    task, train, test, chunks, initial = small_world(2, 500, num_classes=4)
    acc, loss = evaluate(task, log.final_model, test)
    assert log.evals[-1].accuracy == acc


def test_run_policy_dispatch_and_determinism():
    task, train, test, chunks, initial = small_world(2, 100)
    profs = [profile(0, 10.0, chunks[0]), profile(1, 40.0, chunks[1])]
    for policy, extra in (("sync", {"rounds": 2}),
                          ("semisync", {"rounds": 2, "lam": 1.5}),
                          ("async", {"time_budget_ms": 400.0})):
        cfg = ProtocolConfig(policy, OPT, STATIC, epochs=1, **extra)
        a = run_policy(cfg, profs, task, train, test, initial, seed=21)
        b = run_policy(cfg, profs, task, train, test, initial, seed=21)
        assert a.evals == b.evals
        assert a.events == b.events
        assert a.contributions == b.contributions
        assert max_abs_diff(a.final_model, b.final_model) == 0.0


LOG_FILES = ["contributions.csv", "events.jsonl", "final_model.json",
             "idle.csv", "metrics.csv", "summary.json"]


def test_export_metrics_files_and_determinism(tmp_path):
    log, _ = sync_fast_slow(rounds=2)
    out_a = os.path.join(tmp_path, "a")
    out_b = os.path.join(tmp_path, "b")
    assert export_metrics(log, out_a) is None
    export_metrics(log, out_b)
    # A barrier log keeps no controller state, so it writes no snapshot.
    assert sorted(os.listdir(out_a)) == LOG_FILES
    for name in LOG_FILES:
        with open(os.path.join(out_a, name), "rb") as fa, \
                open(os.path.join(out_b, name), "rb") as fb:
            assert fa.read() == fb.read()
    metrics = os.path.join(out_a, "metrics.csv")
    header = open(metrics).readline().strip()
    assert header == "virtual_ms,update_requests,round,accuracy,loss"
    first = open(metrics).readlines()[1].split(",")
    assert first[0] == "30000.000"  # 30000000 us
    summary = json.load(open(os.path.join(out_a, "summary.json")))
    assert summary["schema_version"] == 1
    assert summary["update_requests"] == 4
    assert summary["models_exchanged"] == 8
    assert summary["federation_rounds"] == 2
    assert summary["final_accuracy"] == log.evals[-1].accuracy
    events = [json.loads(line)
              for line in open(os.path.join(out_a, "events.jsonl"))]
    assert all(set(e) == {"virtual_ms", "kind", "learner"} for e in events)

    # An async log adds the controller snapshot beside the final model.
    log, _ = async_world(400.0)
    out_c = os.path.join(tmp_path, "c")
    export_metrics(log, out_c)
    assert sorted(os.listdir(out_c)) == sorted(
        LOG_FILES + ["controller_snapshot.json"])
    snap = json.load(open(os.path.join(out_c, "controller_snapshot.json")))
    assert snap["version"] == log.final_state.version
    model = json.load(open(os.path.join(out_c, "final_model.json")))
    assert equal(from_obj(model), log.final_model)


def test_export_metrics_float_round_trip(tmp_path):
    log = MetricsLog(policy="sync", seed=1)
    log.evals.append(EvalSnapshot(1234, 1, 2, 1.0 / 3.0, 0.1 + 0.2))
    export_metrics(log, str(tmp_path))
    metrics = os.path.join(tmp_path, "metrics.csv")
    row = open(metrics).readlines()[1].strip().split(",")
    assert float(row[3]) == 1.0 / 3.0
    assert float(row[4]) == 0.1 + 0.2
    assert row[0] == "1.234"


@settings(max_examples=100, deadline=None)
@given(events=st.lists(st.tuples(st.integers(0, 10**13),
                                 st.sampled_from(sorted(_EVENT_RANK)),
                                 st.integers(-1, 10**4)), max_size=20))
def test_events_jsonl_lines_are_sorted_key_json(events, tmp_path_factory):
    log = MetricsLog(policy="async", seed=0, events=events)
    out = tmp_path_factory.mktemp("events")
    export_metrics(log, str(out))
    lines = open(os.path.join(out, "events.jsonl")).read().splitlines()
    expected = [
        json.dumps({"virtual_ms": t / 1000.0, "kind": kind, "learner": lid},
                   sort_keys=True)
        for t, kind, lid in log.sorted_events()
    ]
    assert lines == (expected or [""])
