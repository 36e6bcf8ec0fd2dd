"""Local solver update rules and the minibatch schedule."""

import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim import engine
from fedsim.controller import WeightingScheme
from fedsim.engine import (
    _TRAIN_STREAM, LearnerProfile, ProtocolConfig, run_policy,
)
from fedsim.optimizers import (
    OptimizerConfig,
    TrainingPool,
    assignment_batches,
)
from fedsim.params import NonFiniteError, ParamSet, StructureError
from fedsim.tasks import (
    TaskModel, gen_synthetic, init_params, model_structure, stacked_grad,
)
from oracles import (
    epoch_batches,
    equal,
    loss_and_grad,
    reference_opt,
    run_client_opt,
    step_fedprox,
    step_momentum,
    step_vanilla,
    train_alone,
    zeros_like,
)

TASKS = {
    "mlp1-relu": TaskModel("mlp1", 5, 3, hidden_dim=4, activation="relu"),
    "mlp1-tanh": TaskModel("mlp1", 5, 3, hidden_dim=4, activation="tanh"),
    "softmax": TaskModel("softmax_regression", 5, 3),
}
DATA = gen_synthetic(3, 10, 5, 1.0, seed=19)
BATCH = 7  # 30 examples: every epoch ends on a short batch


def scalar(v):
    return ParamSet(["w"], [np.array([[float(v)]])])


def val(ps):
    return ps.arrays[0][0, 0]


def one_stream():
    return iter(lambda: np.arange(1), None)


def fill(value):
    """A cohort gradient that is ``value`` everywhere."""
    def grad(W, rows, out):
        for g in out:
            g.fill(value)
    return grad


def grad_is_weights(W, rows, out):
    for g, w in zip(out, W):
        np.copyto(g, w)


def test_momentum_two_step_hand_unrolled():
    """gamma=0.5, eta=1, constant gradient 1, from w=0.

    u1 = 0.5*0 + 1 = 1      w1 = 0 - 1*1   = -1
    u2 = 0.5*1 + 1 = 1.5    w2 = -1 - 1.5  = -2.5
    """
    cfg = OptimizerConfig("momentum", eta=1.0, gamma=0.5)
    w, u = scalar(0.0), scalar(0.0)
    g = scalar(1.0)
    w, u = step_momentum(w, u, g, cfg)
    assert val(w) == -1.0 and val(u) == 1.0
    w, u = step_momentum(w, u, g, cfg)
    assert val(w) == -2.5 and val(u) == 1.5


def test_momentum_gamma_zero_is_vanilla_bitwise():
    rng = np.random.default_rng(29)
    w = ParamSet(["w"], [rng.standard_normal((4,))])
    g = ParamSet(["w"], [rng.standard_normal((4,))])
    cfg_m = OptimizerConfig("momentum", eta=0.05, gamma=0.0)
    cfg_v = OptimizerConfig("vanilla", eta=0.05)
    wm, _ = step_momentum(w, zeros_like(w), g, cfg_m)
    wv = step_vanilla(w, g, cfg_v)
    assert equal(wm, wv)


def test_fedprox_mu_zero_is_vanilla_bitwise():
    rng = np.random.default_rng(31)
    w = ParamSet(["w"], [rng.standard_normal((4,))])
    anchor = ParamSet(["w"], [rng.standard_normal((4,))])
    g = ParamSet(["w"], [rng.standard_normal((4,))])
    cfg_p = OptimizerConfig("fedprox", eta=0.05, mu=0.0)
    cfg_v = OptimizerConfig("vanilla", eta=0.05)
    assert equal(step_fedprox(w, anchor, g, cfg_p), step_vanilla(w, g, cfg_v))


def test_fedprox_pinned_value():
    # w=2, anchor=0, g=0, eta=0.1, mu=0.001: w' = 2 - 0.1*0.001*2 = 1.9998
    cfg = OptimizerConfig("fedprox", eta=0.1, mu=0.001)
    out = step_fedprox(scalar(2.0), scalar(0.0), scalar(0.0), cfg)
    assert val(out) == pytest.approx(1.9998, abs=1e-12)


def test_fedprox_pulls_toward_anchor():
    cfg = OptimizerConfig("fedprox", eta=0.1, mu=0.5)
    w, anchor = scalar(3.0), scalar(1.0)
    out = step_fedprox(w, anchor, scalar(0.0), cfg)
    assert val(anchor) < val(out) < val(w)


def test_vanilla_quadratic_contraction():
    # grad of 0.5*w^2 is w, so each step multiplies by (1 - eta):
    # three steps from 1.0 at eta=0.1 give 0.9^3 = 0.729.
    cfg = OptimizerConfig("vanilla", eta=0.1)
    calls = []

    def grad(W, rows, out):
        calls.append(len(W[0]))
        grad_is_weights(W, rows, out)

    [w] = run_client_opt([scalar(1.0)], [3], [one_stream()], cfg, grad)
    assert calls == [1, 1, 1]
    assert val(w) == pytest.approx(0.729, abs=1e-12)


def test_run_client_opt_fedprox_anchor_is_start():
    # With zero gradients fedprox decays toward the starting weights, which
    # never moves anything: the anchor equals the start.
    cfg = OptimizerConfig("fedprox", eta=0.5, mu=0.9)
    start = scalar(4.0)
    [w] = run_client_opt([start], [5], [one_stream()], cfg, fill(0.0))
    assert val(w) == val(start)


def test_run_client_opt_momentum_buffer_starts_at_zero():
    cfg = OptimizerConfig("momentum", eta=1.0, gamma=0.5)
    pool = TrainingPool(scalar(0.0).structure(), 2, cfg, fill(1.0))
    pool.join("a", scalar(0.0), 2, one_stream())
    pool.join("b", scalar(0.0), 3, one_stream())
    assert pool.step() == []
    [(key, w1)] = pool.step()
    assert (key, val(w1)) == ("a", -2.5)
    # a learner joining a row another left must not inherit its buffer
    pool.join("c", scalar(0.0), 2, one_stream())
    assert [key for key, _ in pool.step()] == ["b"]
    [(key, w2)] = pool.step()
    assert (key, val(w2)) == ("c", -2.5)


def test_run_client_opt_rejects_zero_budget():
    cfg = OptimizerConfig("vanilla", eta=0.1)
    with pytest.raises(ValueError):
        run_client_opt([scalar(1.0), scalar(2.0)], [3, 0],
                       [one_stream(), one_stream()], cfg, grad_is_weights)


def test_pool_refuses_a_learner_past_its_capacity():
    cfg = OptimizerConfig("vanilla", eta=0.1)
    pool = TrainingPool(scalar(0.0).structure(), 2, cfg, grad_is_weights)
    pool.join(0, scalar(1.0), 3, one_stream())
    pool.join(1, scalar(2.0), 3, one_stream())
    with pytest.raises(ValueError, match="full"):
        pool.join(2, scalar(3.0), 3, one_stream())
    assert len(pool) == 2


def test_run_client_opt_rejects_starts_of_two_structures():
    # The (capacity, P) buffers are split into one structure's layer views.
    cfg = OptimizerConfig("vanilla", eta=0.1)
    other = ParamSet(["v"], [np.array([[2.0]])])
    with pytest.raises(StructureError):
        run_client_opt([scalar(1.0), other], [2, 2],
                       [one_stream(), one_stream()], cfg, grad_is_weights)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig("adam", eta=0.1)
    with pytest.raises(ValueError):
        OptimizerConfig("vanilla", eta=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig("momentum", eta=0.1, gamma=1.0)
    with pytest.raises(ValueError):
        OptimizerConfig("momentum", eta=0.1, gamma=-0.1)
    with pytest.raises(ValueError):
        OptimizerConfig("fedprox", eta=0.1, mu=-1.0)


def test_epoch_batches_partition_each_epoch():
    rng = np.random.default_rng(37)
    n, bs = 23, 5
    per_epoch = -(-n // bs)  # 5 batches, last short
    stream = epoch_batches(n, bs, rng)
    for _ in range(4):
        seen = np.concatenate([next(stream) for _ in range(per_epoch)])
        assert len(seen) == n
        assert np.array_equal(np.sort(seen), np.arange(n))


def test_epoch_batches_reshuffles_between_epochs():
    rng = np.random.default_rng(41)
    n, bs = 64, 8
    stream = epoch_batches(n, bs, rng)
    first = np.concatenate([next(stream) for _ in range(8)])
    second = np.concatenate([next(stream) for _ in range(8)])
    assert not np.array_equal(first, second)


def test_epoch_batches_deterministic_under_seed():
    a = epoch_batches(50, 7, np.random.default_rng([9, 3, 2, 0]))
    b = epoch_batches(50, 7, np.random.default_rng([9, 3, 2, 0]))
    for _ in range(20):
        assert np.array_equal(next(a), next(b))


def test_epoch_batches_sizes():
    rng = np.random.default_rng(43)
    stream = epoch_batches(10, 4, rng)
    sizes = [len(next(stream)) for _ in range(6)]
    assert sizes == [4, 4, 2, 4, 4, 2]


def test_epoch_batches_rejects_empty():
    rng = np.random.default_rng(47)
    with pytest.raises(ValueError):
        next(epoch_batches(0, 4, rng))
    with pytest.raises(ValueError):
        next(epoch_batches(10, 0, rng))


@st.composite
def batch_plans(draw):
    """(shard size, batch size, budget); a third of the budgets end exactly
    on an epoch boundary."""
    size = draw(st.integers(1, 60))
    batch = draw(st.integers(1, 25))
    per_epoch = -(-size // batch)
    budget = draw(st.one_of(
        st.integers(1, 80),
        st.integers(1, 4).map(lambda epochs: epochs * per_epoch),
    ))
    return size, batch, budget


@settings(max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), plan=batch_plans(),
       learner=st.integers(0, 50), assignment=st.integers(0, 20))
def test_assignment_batches_equal_epoch_batches_through_the_shard(
    seed, plan, learner, assignment
):
    """The first ``budget`` batches of an assignment's stream are the
    batches ``epoch_batches`` yields mapped through the shard's indices,
    batch by batch, and leave the stream's generator where the
    batch-by-batch draw does."""
    size, batch, budget = plan
    indices = np.random.default_rng(seed).choice(500, size=size, replace=False)

    key = [seed, _TRAIN_STREAM, learner, assignment]
    rng_lazy = np.random.default_rng(key)
    rng_by_batch = np.random.default_rng(key)
    rows = list(itertools.islice(
        assignment_batches(indices, batch, rng_lazy), budget))
    stream = epoch_batches(size, batch, rng_by_batch)
    assert len(rows) == budget
    for got in rows:
        assert np.array_equal(got, indices[next(stream)])
    assert rng_lazy.random() == rng_by_batch.random()


def test_assignment_batches_rejects_empty():
    rng = np.random.default_rng(47)
    with pytest.raises(ValueError):
        next(assignment_batches(np.arange(0), 4, rng))
    with pytest.raises(ValueError):
        next(assignment_batches(np.arange(10), 0, rng))


def test_assignment_batches_memory_is_bounded_by_the_shard():
    """100,000 batches from a 100-example shard, taken one at a time, never
    hold more than about one epoch's rows: the peak stays far below the
    tens of MB the same budget takes when every batch is built up front."""
    stream = assignment_batches(
        np.arange(100), 20, np.random.default_rng(3))
    tracemalloc.start()
    try:
        for batch in itertools.islice(stream, 100_000):
            assert len(batch) == 20
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def ce_grad(task):
    X, y = DATA.features, DATA.labels
    return lambda w, batch: loss_and_grad(task, w, X[batch], y[batch])[1]


def stacked_ce(task):
    X, y = DATA.features, DATA.labels
    return lambda W, rows, out: stacked_grad(task, W, X[rows], y[rows], out)


def batches(seed):
    return epoch_batches(len(DATA), BATCH, np.random.default_rng(seed))


def assignment_stream(p, seed, assignment):
    """The batch rows of learner ``p``'s assignment, as ``run_policy``
    draws them."""
    return assignment_batches(p.indices, p.batch_size, np.random.default_rng(
        [seed, _TRAIN_STREAM, p.learner_id, assignment]))


KINDS = ["vanilla", "momentum", "fedprox"]


optimizer_configs = st.builds(
    OptimizerConfig,
    st.sampled_from(KINDS),
    st.floats(1e-3, 0.5),
    st.floats(0.0, 0.95),
    st.floats(0.0, 1.0),
)
property_settings = settings(max_examples=60, deadline=None, database=None)


@property_settings
@given(seed=st.integers(0, 2**32 - 1), task=st.sampled_from(sorted(TASKS)),
       cfg=optimizer_configs, budget=st.integers(1, 50))
def test_run_client_opt_bitwise_equals_step_functions(seed, task, cfg, budget):
    model = TASKS[task]
    start = init_params(model, np.random.default_rng(seed))
    [w] = run_client_opt([start], [budget], [batches(seed)], cfg,
                         stacked_ce(model))
    assert equal(w, reference_opt(start, budget, batches(seed), cfg,
                                  ce_grad(model)))


@property_settings
@given(seed=st.integers(0, 2**32 - 1), task=st.sampled_from(sorted(TASKS)),
       cfg=optimizer_configs, budget=st.integers(1, 50),
       rho=st.floats(1e-4, 0.1), assignment=st.integers(0, 5))
def test_prox_rho_gradient_bitwise_equals_axpy_form(
    seed, task, cfg, budget, rho, assignment
):
    model = TASKS[task]
    anchor = init_params(model, np.random.default_rng(seed))
    profile = LearnerProfile(0, "fast", BATCH, 1.0, np.arange(len(DATA)))
    [w] = run_client_opt([anchor], [budget],
                         [assignment_stream(profile, seed, assignment)], cfg,
                         stacked_ce(model), rho)
    assert equal(w, train_alone(model, DATA, profile, anchor, budget, cfg,
                                seed, assignment, rho))


@pytest.mark.parametrize("kind", KINDS)
def test_run_client_opt_keeps_start_and_returns_fresh_frozen_weights(kind):
    cfg = OptimizerConfig(kind, eta=0.1, gamma=0.5, mu=0.1)
    model = TASKS["mlp1-relu"]
    start = init_params(model, np.random.default_rng(3))
    before = start.flat.copy()
    seen = []
    ce = stacked_ce(model)

    def grad(W, rows, out):
        seen.extend(W)
        for w in W:
            with pytest.raises(ValueError):
                w[0] = 0.0  # the live weights are read-only to grad_fn
        ce(W, rows, out)

    [w] = run_client_opt([start], [6], [batches(1)], cfg, grad)
    assert np.array_equal(start.flat, before)
    assert not w.flat.flags.writeable
    assert not np.shares_memory(w.flat, start.flat)
    for live in seen:
        assert not np.shares_memory(w.flat, live)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("budgets", [[1], [1, 3, 1]])
def test_run_client_opt_one_step_rows_are_private_without_a_copy(kind,
                                                                 budgets):
    # A pool of one reads its start in place and returns a row trained one
    # step without a copy-out; neither may leak, nor may a larger pool's
    # rows: every result is frozen and shares memory with no start and no
    # view grad_fn saw.
    cfg = OptimizerConfig(kind, eta=0.1, gamma=0.5, mu=0.1)
    model = TASKS["softmax"]
    rng = np.random.default_rng(7)
    starts = [init_params(model, rng) for _ in budgets]
    seen = []
    ce = stacked_ce(model)

    def grad(W, rows, out):
        seen.extend(W)
        for w in W:
            with pytest.raises(ValueError):
                w[0] = 0.0
        ce(W, rows, out)

    trained = run_client_opt(starts, budgets,
                             [batches(i) for i in range(len(budgets))],
                             cfg, grad)
    for i, (w, start, budget) in enumerate(zip(trained, starts, budgets)):
        assert equal(w, reference_opt(start, budget, batches(i), cfg,
                                      ce_grad(model)))
        assert not w.flat.flags.writeable
        assert not any(np.shares_memory(w.flat, s.flat) for s in starts)
        assert not any(np.shares_memory(w.flat, live) for live in seen)


@pytest.mark.parametrize("kind", KINDS)
def test_run_client_opt_gradient_aliasing_the_weights(kind):
    # A gradient equal to the weights: the in-place update must still read
    # the gradient before overwriting the weights.
    cfg = OptimizerConfig(kind, eta=0.1, gamma=0.5, mu=0.3)
    start = init_params(TASKS["softmax"], np.random.default_rng(4))
    [w] = run_client_opt([start], [5], [batches(2)], cfg, grad_is_weights)
    assert equal(w, reference_opt(start, 5, batches(2), cfg, lambda w, b: w))


@pytest.mark.parametrize("kind", KINDS)
def test_run_client_opt_divergence_raises_nonfinite(kind):
    cfg = OptimizerConfig(kind, eta=1e300, gamma=0.5, mu=0.1)
    model = TASKS["mlp1-relu"]
    start = init_params(model, np.random.default_rng(5))
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        run_client_opt([start], [5], [batches(3)], cfg, stacked_ce(model))
    # A grad_fn that never inspects the weights: the returned weights' own
    # check still refuses the overflowed result.
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        run_client_opt([start], [1], [batches(3)], cfg, fill(1e300))


learner_specs = st.lists(
    st.tuples(
        st.integers(1, len(DATA)),  # shard size
        st.integers(1, 8),  # batch size
        st.integers(1, 25),  # budget
        st.integers(0, 3),  # assignment
    ),
    min_size=1, max_size=12,
)


def pool_learners(model, specs, rng):
    """(profile, start, budget, assignment) of each spec, each on its own
    random shard of DATA."""
    learners = []
    for lid, (size, batch, budget, assignment) in enumerate(specs):
        shard = rng.choice(len(DATA), size=size, replace=False)
        profile = LearnerProfile(lid, "fast", batch, 1.0, shard)
        learners.append((profile, init_params(model, rng), budget, assignment))
    return learners


@settings(max_examples=80, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), task=st.sampled_from(sorted(TASKS)),
       cfg=optimizer_configs, specs=learner_specs,
       rho=st.one_of(st.just(0.0), st.floats(1e-4, 0.1)),
       capacity=st.integers(1, 12), data=st.data())
def test_pool_interleavings_bitwise_equal_training_alone(
    seed, task, cfg, specs, rho, capacity, data
):
    """Learners with ragged shards, batch sizes and budgets join a pool at
    random steps, each as soon as a drawn interleaving lets it and there is
    room, so members at different steps share kernel calls: every learner
    gets exactly the weights it reaches training alone, and the pool never
    holds more learners than its capacity. A start scaled by 1e150 or 1e300
    may diverge: its learner gets a NonFiniteError exactly when training
    alone raises one."""
    model = TASKS[task]
    learners = pool_learners(model, specs, np.random.default_rng(seed))
    scales = data.draw(st.lists(st.sampled_from([1.0, 1e150, 1e300]),
                                min_size=len(specs), max_size=len(specs)),
                       label="scales")
    learners = [(p, start if k == 1.0 else ParamSet(
                    start.names, [k * x for x in start.arrays]), budget, a)
                for (p, start, budget, a), k in zip(learners, scales)]
    rows = []

    def grad(W, batch_rows, out):
        rows.append(len(batch_rows))
        stacked_ce(model)(W, batch_rows, out)

    pool = TrainingPool(model_structure(model), capacity, cfg, grad, rho)
    trained, queue = {}, list(learners)
    with np.errstate(all="ignore"):
        while queue or len(pool):
            if queue and len(pool) < capacity and (
                    not len(pool) or data.draw(st.booleans(), label="join")):
                p, start, budget, a = queue.pop(0)
                pool.join(p.learner_id, start, budget,
                          assignment_stream(p, seed, a))
            else:
                rows.clear()
                trained.update(pool.step())
                assert sum(rows) <= capacity
            assert len(pool) <= capacity
    assert sorted(trained) == list(range(len(learners)))
    for p, start, budget, a in learners:
        result = trained[p.learner_id]
        try:
            with np.errstate(all="ignore"):
                alone = train_alone(model, DATA, p, start, budget, cfg, seed,
                                    a, rho)
        except NonFiniteError:
            assert isinstance(result, NonFiniteError)
        else:
            assert isinstance(result, ParamSet) and equal(result, alone)


@settings(max_examples=80, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), task=st.sampled_from(sorted(TASKS)),
       cfg=optimizer_configs, specs=learner_specs,
       rho=st.one_of(st.just(0.0), st.floats(1e-4, 0.1)),
       per_chunk=st.one_of(st.none(), st.integers(1, 12)))
def test_cohort_training_bitwise_equals_one_learner_at_a_time(
    seed, task, cfg, specs, rho, per_chunk
):
    """Stacked cohorts (ragged shards and budgets, every row its own
    anchor) joined in order as rows free up in a pool of ``per_chunk`` rows
    (all learners by default), as run_policy fills it, give each learner
    exactly the weights it would reach training alone."""
    model = TASKS[task]
    learners = pool_learners(model, specs, np.random.default_rng(seed))
    capacity = per_chunk or len(learners)
    pool = TrainingPool(model_structure(model), capacity, cfg,
                        stacked_ce(model), rho)
    trained, queue = {}, list(learners)
    while queue or len(pool):
        while queue and len(pool) < capacity:
            p, start, budget, a = queue.pop(0)
            pool.join(p.learner_id, start, budget,
                      assignment_stream(p, seed, a))
        trained.update(pool.step())
    assert sorted(trained) == list(range(len(learners)))
    for p, start, budget, a in learners:
        assert equal(trained[p.learner_id], train_alone(
            model, DATA, p, start, budget, cfg, seed, a, rho))


def test_cohort_reads_learners_one_chunk_at_a_time():
    # What bounds memory: run_policy's pool holds _COHORT_ENTRIES / model
    # size learners, and a barrier round's learners join it one lockstep
    # cohort at a time, each cohort once the one before it has left.
    model = TASKS["softmax"]
    rng = np.random.default_rng(8)
    initial = init_params(model, rng)
    shard = np.arange(len(DATA))
    profiles = [LearnerProfile(lid, "fast", BATCH, 1.0, shard)
                for lid in range(5)]
    seen = []

    class RecordingPool(TrainingPool):
        def join(self, key, start, budget, batches):
            super().join(key, start, budget, batches)
            seen.append(("join", key))
            assert len(self) <= self.capacity == 2

        def step(self):
            left = super().step()
            if left:
                seen.append(("leave", sorted(key for key, _ in left)))
            return left

    cfg = ProtocolConfig("sync", OptimizerConfig("vanilla", eta=0.1),
                         WeightingScheme("fedavg_static"), epochs=1, rounds=1)
    with mock.patch.object(engine, "_COHORT_ENTRIES",
                           2 * initial.num_entries), \
            mock.patch.object(engine, "TrainingPool", RecordingPool):
        run_policy(cfg, profiles, model, DATA, DATA, initial, seed=1)
    assert seen == [("join", 0), ("join", 1), ("leave", [0, 1]),
                    ("join", 2), ("join", 3), ("leave", [2, 3]),
                    ("join", 4), ("leave", [4])]


def test_pool_fails_only_the_divergent_member():
    # A member whose weights turn NaN trains to the end of its shorter
    # budget and leaves first, with the error of its result's check; the
    # others train on, bit for bit as alone, and the pool's rows stay right
    # after the failed row is handed to the last member.
    model = TASKS["mlp1-relu"]
    rng = np.random.default_rng(6)
    learners = pool_learners(model, [(len(DATA), BATCH, 4, 0)] * 4, rng)
    # Finite weights whose hidden layer overflows the logits to NaN.
    p, start, _, a = learners[1]
    huge = ParamSet(start.names,
                    [np.full(x.shape, 1e300) for x in start.arrays])
    learners[1] = (p, huge, 2, a)
    cfg = OptimizerConfig("momentum", eta=0.1, gamma=0.5)
    pool = TrainingPool(model_structure(model), 4, cfg, stacked_ce(model))
    for p, start, budget, a in learners:
        pool.join(p.learner_id, start, budget, assignment_stream(p, 1, a))
    with np.errstate(all="ignore"):
        assert pool.step() == []
        [(key, error)] = pool.step()
    assert key == 1 and isinstance(error, NonFiniteError)
    assert str(error) == "layer 'W1' has NaN/Inf entries"
    assert len(pool) == 3
    trained = {}
    while len(pool):
        trained.update(pool.step())
    for p, start, budget, a in learners:
        if p.learner_id != 1:
            assert equal(trained[p.learner_id], train_alone(
                model, DATA, p, start, budget, cfg, 1, a))


def test_cohort_with_one_divergent_row_raises_nonfinite():
    model = TASKS["mlp1-relu"]
    rng = np.random.default_rng(6)
    starts = [init_params(model, rng) for _ in range(3)]
    # Finite weights whose hidden layer overflows the logits to NaN.
    starts[1] = ParamSet(starts[1].names,
                         [np.full(a.shape, 1e300) for a in starts[1].arrays])
    cfg = OptimizerConfig("vanilla", eta=0.1)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        run_client_opt(starts, [4] * 3, [batches(i) for i in range(3)], cfg,
                       stacked_ce(model))


def test_cohort_rejects_anchors_of_another_layout():
    # run_policy trains every assignment from the community model, so an
    # initial model of another layout fails the first join into the task's
    # pool, as the pool's layout error, before any step trains.
    task = TASKS["mlp1-relu"]
    wrong = init_params(TASKS["softmax"], np.random.default_rng(2))
    profile = LearnerProfile(0, "fast", BATCH, 1.0, np.arange(len(DATA)))
    cfg = ProtocolConfig("sync", OptimizerConfig("vanilla", eta=0.1),
                         WeightingScheme("fedavg_static"), epochs=1, rounds=1)
    message = f"layer mismatch: {model_structure(task)} vs {wrong.structure()}"
    with mock.patch.object(engine, "stacked_grad") as kernel, \
            pytest.raises(StructureError, match=re.escape(message)):
        run_policy(cfg, [profile], task, DATA, DATA, wrong, seed=1)
    kernel.assert_not_called()
