"""Local solver update rules and the minibatch schedule."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim import engine
from fedsim.engine import _TRAIN_STREAM, LearnerProfile, _train_cohort
from fedsim.optimizers import (
    OptimizerConfig,
    epoch_batches,
    run_client_opt,
    step_fedprox,
    step_momentum,
    step_vanilla,
)
from fedsim.params import NonFiniteError, ParamSet, axpy, equal, zeros_like
from fedsim.tasks import (
    TaskModel,
    gen_synthetic,
    init_params,
    loss_and_grad,
    stacked_grad,
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
    return lambda W, rows, out: out.fill(value)


def grad_is_weights(W, rows, out):
    np.copyto(out, W)


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


def test_momentum_velocity_form_same_trajectory():
    # Folding eta into the buffer gives the same weights for a constant
    # learning rate; the buffer itself carries the -eta factor.
    base = OptimizerConfig("momentum", eta=1.0, gamma=0.5)
    alt = OptimizerConfig("momentum", eta=1.0, gamma=0.5, eta_in_velocity=True)
    g = scalar(1.0)
    wa, ua = scalar(0.0), scalar(0.0)
    wb, ub = scalar(0.0), scalar(0.0)
    for _ in range(2):
        wa, ua = step_momentum(wa, ua, g, base)
        wb, ub = step_momentum(wb, ub, g, alt)
    assert val(wa) == val(wb) == -2.5
    assert val(ub) == -1.5


def test_momentum_velocity_forms_agree_on_random_gradients():
    rng = np.random.default_rng(23)
    base = OptimizerConfig("momentum", eta=0.05, gamma=0.9)
    alt = OptimizerConfig("momentum", eta=0.05, gamma=0.9, eta_in_velocity=True)
    wa = wb = ParamSet(["w"], [rng.standard_normal((3, 2))])
    ua, ub = zeros_like(wa), zeros_like(wb)
    for _ in range(30):
        g = ParamSet(["w"], [rng.standard_normal((3, 2))])
        wa, ua = step_momentum(wa, ua, g, base)
        wb, ub = step_momentum(wb, ub, g, alt)
        assert np.allclose(wa.arrays[0], wb.arrays[0], rtol=0, atol=1e-12)


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
        calls.append(len(W))
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
    [w1] = run_client_opt([scalar(0.0)], [2], [one_stream()], cfg, fill(1.0))
    assert val(w1) == -2.5
    # a second call must not inherit the previous buffer
    [w2] = run_client_opt([scalar(0.0)], [2], [one_stream()], cfg, fill(1.0))
    assert val(w2) == -2.5


def test_run_client_opt_rejects_zero_budget():
    cfg = OptimizerConfig("vanilla", eta=0.1)
    with pytest.raises(ValueError):
        run_client_opt([scalar(1.0), scalar(2.0)], [3, 0],
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


def reference_opt(start, budget, stream, cfg, grad_fn):
    """Reference solver: folds the pure ParamSet step functions."""
    w, u = start, zeros_like(start)
    for _ in range(budget):
        g = grad_fn(w, next(stream))
        if cfg.kind == "vanilla":
            w = step_vanilla(w, g, cfg)
        elif cfg.kind == "momentum":
            w, u = step_momentum(w, u, g, cfg)
        else:
            w = step_fedprox(w, start, g, cfg)
    return w


def ce_grad(task):
    X, y = DATA.features, DATA.labels
    return lambda w, batch: loss_and_grad(task, w, X[batch], y[batch])[1]


def stacked_ce(task):
    X, y = DATA.features, DATA.labels
    return lambda W, rows, out: stacked_grad(task, W, X[rows], y[rows], out)


def batches(seed):
    return epoch_batches(len(DATA), BATCH, np.random.default_rng(seed))


KINDS = ["vanilla", "momentum", "velocity", "fedprox"]


def make_cfg(kind, eta, gamma, mu):
    """``velocity`` is momentum with eta folded into the buffer."""
    return OptimizerConfig("momentum" if kind == "velocity" else kind,
                           eta=eta, gamma=gamma, mu=mu,
                           eta_in_velocity=kind == "velocity")


optimizer_configs = st.builds(
    make_cfg,
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
    [w] = _train_cohort([(profile, anchor, budget, assignment)], model, DATA,
                        cfg, seed, rho)
    ce = ce_grad(model)

    def prox_grad(w, batch):
        return axpy(rho, axpy(-1.0, anchor, w), ce(w, batch))

    stream = epoch_batches(
        len(DATA), BATCH,
        np.random.default_rng([seed, _TRAIN_STREAM, 0, assignment]),
    )
    assert equal(w, reference_opt(anchor, budget, stream, cfg, prox_grad))


@pytest.mark.parametrize("kind", KINDS)
def test_run_client_opt_keeps_start_and_returns_fresh_frozen_weights(kind):
    cfg = make_cfg(kind, eta=0.1, gamma=0.5, mu=0.1)
    model = TASKS["mlp1-relu"]
    start = init_params(model, np.random.default_rng(3))
    before = start.flat.copy()
    seen = []
    ce = stacked_ce(model)

    def grad(W, rows, out):
        seen.append(W)
        with pytest.raises(ValueError):
            W[0, 0] = 0.0  # the live weights are read-only to grad_fn
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
    # A lone learner's start is read in place and a row trained one step
    # is returned without a copy-out; neither may leak: every result is
    # frozen and shares memory with no start and no view grad_fn saw.
    cfg = make_cfg(kind, eta=0.1, gamma=0.5, mu=0.1)
    model = TASKS["softmax"]
    rng = np.random.default_rng(7)
    starts = [init_params(model, rng) for _ in budgets]
    seen = []
    ce = stacked_ce(model)

    def grad(W, rows, out):
        seen.append(W)
        with pytest.raises(ValueError):
            W[0, 0] = 0.0
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
    cfg = make_cfg(kind, eta=0.1, gamma=0.5, mu=0.3)
    start = init_params(TASKS["softmax"], np.random.default_rng(4))
    [w] = run_client_opt([start], [5], [batches(2)], cfg, grad_is_weights)
    assert equal(w, reference_opt(start, 5, batches(2), cfg, lambda w, b: w))


@pytest.mark.parametrize("kind", KINDS)
def test_run_client_opt_divergence_raises_nonfinite(kind):
    cfg = make_cfg(kind, eta=1e300, gamma=0.5, mu=0.1)
    model = TASKS["mlp1-relu"]
    start = init_params(model, np.random.default_rng(5))
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        run_client_opt([start], [5], [batches(3)], cfg, stacked_ce(model))
    # A grad_fn that never inspects the weights: the returned weights' own
    # check still refuses the overflowed result.
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        run_client_opt([start], [1], [batches(3)], cfg, fill(1e300))


def one_at_a_time(model, cohort, cfg, seed, rho):
    """Reference for ``_train_cohort``: each learner alone, folding
    ``loss_and_grad`` and the ``step_*`` functions."""
    trained = []
    for profile, anchor, budget, assignment in cohort:
        X = DATA.features[profile.indices]
        y = DATA.labels[profile.indices]

        def grad(w, batch):
            g = loss_and_grad(model, w, X[batch], y[batch])[1]
            return axpy(rho, axpy(-1.0, anchor, w), g) if rho > 0 else g

        stream = epoch_batches(
            profile.data_size, profile.batch_size,
            np.random.default_rng(
                [seed, _TRAIN_STREAM, profile.learner_id, assignment]
            ),
        )
        trained.append(reference_opt(anchor, budget, stream, cfg, grad))
    return trained


learner_specs = st.lists(
    st.tuples(
        st.integers(1, len(DATA)),  # shard size
        st.integers(1, 8),  # batch size
        st.integers(1, 25),  # budget
        st.integers(0, 3),  # assignment
    ),
    min_size=1, max_size=12,
)


@settings(max_examples=80, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), task=st.sampled_from(sorted(TASKS)),
       cfg=optimizer_configs, specs=learner_specs,
       rho=st.one_of(st.just(0.0), st.floats(1e-4, 0.1)),
       per_chunk=st.one_of(st.none(), st.integers(1, 12)))
def test_cohort_training_bitwise_equals_one_learner_at_a_time(
    seed, task, cfg, specs, rho, per_chunk
):
    """Stacked cohorts (ragged shards and budgets, every row its own
    anchor, split into chunks) give each learner exactly the weights it
    would reach training alone."""
    model = TASKS[task]
    rng = np.random.default_rng(seed)
    cohort = []
    for lid, (size, batch, budget, assignment) in enumerate(specs):
        shard = rng.choice(len(DATA), size=size, replace=False)
        profile = LearnerProfile(lid, "fast", batch, 1.0, shard)
        cohort.append((profile, init_params(model, rng), budget, assignment))
    entries = cohort[0][1].num_entries
    cap = engine._COHORT_ENTRIES if per_chunk is None else per_chunk * entries
    with mock.patch.object(engine, "_COHORT_ENTRIES", cap):
        trained = list(_train_cohort(cohort, model, DATA, cfg, seed, rho))
    expected = one_at_a_time(model, cohort, cfg, seed, rho)
    assert len(trained) == len(expected)
    for w, ref in zip(trained, expected):
        assert equal(w, ref)


def test_cohort_reads_learners_one_chunk_at_a_time():
    # What bounds memory: a chunk's learners are read only when its first
    # model is asked for, so a caller holds one chunk of anchors at a time.
    model = TASKS["softmax"]
    rng = np.random.default_rng(8)
    shard = np.arange(len(DATA))
    read = []

    def learners():
        for lid in range(5):
            read.append(lid)
            yield (LearnerProfile(lid, "fast", BATCH, 1.0, shard),
                   init_params(model, rng), 3, 0)

    cfg = OptimizerConfig("vanilla", eta=0.1)
    entries = init_params(model, rng).num_entries
    with mock.patch.object(engine, "_COHORT_ENTRIES", 2 * entries):
        trained = _train_cohort(learners(), model, DATA, cfg, 1, 0.0)
        assert read == []
        next(trained)
        assert read == [0, 1]
        next(trained)
        assert read == [0, 1]
        next(trained)
        assert read == [0, 1, 2, 3]


def test_cohort_with_one_divergent_row_raises_nonfinite():
    model = TASKS["mlp1-relu"]
    rng = np.random.default_rng(6)
    shard = np.arange(len(DATA))
    cohort = [
        (LearnerProfile(lid, "fast", BATCH, 1.0, shard),
         init_params(model, rng), 4, 0)
        for lid in range(3)
    ]
    # Finite weights whose hidden layer overflows the logits to NaN.
    huge = ParamSet(cohort[1][1].names,
                    [np.full(a.shape, 1e300) for a in cohort[1][1].arrays])
    cohort[1] = (cohort[1][0], huge, 4, 0)
    cfg = OptimizerConfig("vanilla", eta=0.1)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        list(_train_cohort(cohort, model, DATA, cfg, seed=1, prox_rho=0.0))
