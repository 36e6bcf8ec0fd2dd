"""Synthetic data generation and the two differentiable classifiers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim.params import ParamSet, StructureError, layer_spans, split_rows
from fedsim.tasks import (
    Dataset, TaskModel, evaluate, gen_synthetic, init_params,
    model_structure, stacked_grad,
)
from oracles import (
    central_diff, class_means, layer, loss_and_grad, rel_err, unflat,
    zero_params,
)

SOFTMAX = TaskModel("softmax_regression", input_dim=6, num_classes=4)
MLP_RELU = TaskModel("mlp1", input_dim=6, num_classes=4, hidden_dim=5,
                     activation="relu")
MLP_TANH = TaskModel("mlp1", input_dim=6, num_classes=4, hidden_dim=5,
                     activation="tanh")


@pytest.mark.parametrize("task", [SOFTMAX, MLP_RELU, MLP_TANH],
                         ids=["softmax", "mlp_relu", "mlp_tanh"])
def test_gradient_matches_central_differences(task):
    rng = np.random.default_rng(101)
    data = gen_synthetic(4, 10, 6, 2.0, seed=55)
    worst = 0.0
    for _ in range(20):
        w = init_params(task, rng)
        # perturb away from the symmetric init so relu kinks are unlikely
        w = unflat(w, w.flat + 0.05 * rng.standard_normal(w.num_entries))
        idx = rng.choice(len(data.labels), size=12, replace=False)
        X, y = data.features[idx], data.labels[idx]
        _, g = loss_and_grad(task, w, X, y)
        num = central_diff(
            lambda v: loss_and_grad(task, unflat(w, v), X, y)[0], w.flat)
        worst = max(worst, rel_err(num, g.flat))
    assert worst <= 1e-5, f"worst relative gradient error {worst:.3e}"


def test_loss_at_zero_weights_is_log_num_classes():
    data = gen_synthetic(10, 20, 8, 2.0, seed=7)
    task = TaskModel("softmax_regression", input_dim=8, num_classes=10)
    loss, grad = loss_and_grad(task, zero_params(task), data.features,
                               data.labels)
    assert abs(loss - math.log(10.0)) < 1e-12
    # and the bias gradient is (mean softmax - class frequency)
    assert np.allclose(layer(grad, "b"), 0.1 - np.bincount(data.labels,
                       minlength=10) / len(data.labels), atol=1e-12)


def test_loss_is_batch_mean():
    # duplicating the batch must not change loss or gradient
    data = gen_synthetic(4, 8, 6, 2.0, seed=19)
    rng = np.random.default_rng(3)
    w = init_params(SOFTMAX, rng)
    X, y = data.features, data.labels
    l1, g1 = loss_and_grad(SOFTMAX, w, X, y)
    l2, g2 = loss_and_grad(SOFTMAX, w, np.vstack([X, X]),
                           np.concatenate([y, y]))
    assert l1 == pytest.approx(l2, abs=1e-12)
    assert np.allclose(g1.flat, g2.flat, rtol=0, atol=1e-12)


def test_loss_finite_for_extreme_logits():
    # log-softmax must be computed in a shifted form that cannot overflow
    task = TaskModel("softmax_regression", input_dim=2, num_classes=3)
    w = ParamSet(["W", "b"], [np.full((2, 3), 500.0), np.zeros(3)])
    X = np.array([[1.0, -1.0], [2.0, 0.5]])
    y = np.array([0, 2])
    loss, grad = loss_and_grad(task, w, X, y)
    assert math.isfinite(loss)
    assert all(np.all(np.isfinite(a)) for a in grad.arrays)


def test_stacked_grad_rejects_an_empty_batch():
    # Two models, each with a batch of no rows: a mean over no examples.
    spans = layer_spans(model_structure(MLP_RELU))
    W = np.tile(init_params(MLP_RELU, np.random.default_rng(3)).flat, (2, 1))
    with pytest.raises(ValueError, match="empty batch"):
        stacked_grad(MLP_RELU, split_rows(spans, W), np.zeros((2, 0, 6)),
                     np.zeros((2, 0), dtype=np.int64),
                     split_rows(spans, np.zeros_like(W)))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from([("softmax_regression", "relu"), ("mlp1", "relu"),
                          ("mlp1", "tanh")]),
    dims=st.tuples(st.integers(1, 40), st.integers(2, 12), st.integers(1, 70)),
    lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_grad_rows_equal_one_model_reference(kind, dims, lengths,
                                                     seed):
    # The rows are sorted by batch length and each length shares one call
    # on its slice of one (K, P) buffer, as a TrainingPool's members do.
    (name, activation), (d, c, h) = kind, dims
    task = TaskModel(name, d, c, hidden_dim=h, activation=activation)
    structure = model_structure(task)
    spans = layer_spans(structure)
    rng = np.random.default_rng(seed)
    lengths = sorted(lengths)
    W = rng.standard_normal((len(lengths), spans[-1][1]))
    G = np.empty_like(W)
    X = [rng.standard_normal((n, d)) for n in lengths]
    y = [rng.integers(0, c, n) for n in lengths]
    layers, grads = split_rows(spans, W), split_rows(spans, G)
    for n in set(lengths):
        lo, hi = lengths.index(n), len(lengths) - lengths[::-1].index(n)
        stacked_grad(task, [w[lo:hi] for w in layers], np.stack(X[lo:hi]),
                     np.stack(y[lo:hi]), [g[lo:hi] for g in grads])
    for k in range(len(lengths)):
        _, ref = loss_and_grad(task, ParamSet._wrap(structure, W[k].copy()),
                               X[k], y[k])
        assert np.array_equal(G[k], ref.flat), f"row {k} of {lengths}"


def test_evaluate_zero_weights_balanced_accuracy():
    # all logits equal: argmax returns class 0, so accuracy is 1/C on a
    # class-balanced set, and loss is ln C
    data = gen_synthetic(10, 30, 8, 2.0, seed=7, sample_tag=1)
    task = TaskModel("softmax_regression", input_dim=8, num_classes=10)
    acc, loss = evaluate(task, zero_params(task), data)
    assert acc == pytest.approx(0.1, abs=1e-12)
    assert loss == pytest.approx(math.log(10.0), abs=1e-12)


@pytest.mark.parametrize("task", [SOFTMAX, MLP_RELU, MLP_TANH],
                         ids=["softmax", "mlp_relu", "mlp_tanh"])
def test_evaluate_loss_equals_loss_and_grad_bitwise(task):
    data = gen_synthetic(4, 25, 6, 1.5, seed=13, sample_tag=1)
    w = init_params(task, np.random.default_rng(14))
    _, loss = evaluate(task, w, data)
    expected, _ = loss_and_grad(task, w, data.features, data.labels)
    assert loss == expected


def test_evaluate_rejects_weights_of_another_layout():
    # An MLP's 59 entries split as the 28-entry softmax layout: the split
    # refuses them before any matmul.
    data = gen_synthetic(4, 5, 6, 1.0, seed=13)
    w = init_params(MLP_RELU, np.random.default_rng(2))
    with pytest.raises(StructureError,
                       match="rows hold 59 entries, the layout has 28"):
        evaluate(SOFTMAX, w, data)


def test_evaluate_tie_breaks_to_lowest_class():
    task = TaskModel("softmax_regression", input_dim=2, num_classes=3)
    w = zero_params(task)
    data = Dataset(
        features=np.array([[1.0, 0.0], [0.0, 1.0]]),
        labels=np.array([0, 2]),
        num_classes=3,
    )
    acc, _ = evaluate(task, w, data)
    assert acc == 0.5  # both predicted 0; only the first label matches


def test_gen_synthetic_layout_and_counts():
    data = gen_synthetic(5, 12, 7, 1.5, seed=21)
    assert data.features.shape == (60, 7)
    assert data.labels.shape == (60,)
    # class-major layout: labels come in contiguous blocks
    assert np.array_equal(data.labels, np.repeat(np.arange(5), 12))


def test_gen_synthetic_zero_spread_places_examples_on_class_means():
    data = gen_synthetic(5, 12, 7, 0.0, seed=21)
    assert np.array_equal(data.features, class_means(5, 7, 21)[data.labels])


def test_gen_synthetic_validation():
    with pytest.raises(ValueError, match="per_class must be >= 1"):
        gen_synthetic(4, 0, 6, 2.0, seed=33)
    with pytest.raises(ValueError, match="cluster_spread must be non-negat"):
        gen_synthetic(4, 10, 6, -0.5, seed=33)


def test_gen_synthetic_deterministic():
    a = gen_synthetic(4, 10, 6, 2.0, seed=33)
    b = gen_synthetic(4, 10, 6, 2.0, seed=33)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_gen_synthetic_sample_tag_shares_means_only():
    train = gen_synthetic(4, 10, 6, 2.0, seed=33, sample_tag=0)
    test = gen_synthetic(4, 10, 6, 2.0, seed=33, sample_tag=1)
    centers = [gen_synthetic(4, 10, 6, 0.0, seed=33, sample_tag=tag)
               for tag in (0, 1)]
    assert np.array_equal(centers[0].features, centers[1].features)
    assert not np.array_equal(train.features, test.features)


def test_gen_synthetic_seed_changes_means():
    a = gen_synthetic(4, 10, 6, 0.0, seed=33)
    b = gen_synthetic(4, 10, 6, 0.0, seed=34)
    assert not np.array_equal(a.features, b.features)


def test_gen_synthetic_spread_controls_noise():
    tight = gen_synthetic(3, 40, 5, 0.1, seed=11)
    loose = gen_synthetic(3, 40, 5, 5.0, seed=11)
    means = class_means(3, 5, 11)
    def mean_dev(d):
        return np.mean(np.linalg.norm(d.features - means[d.labels], axis=1))
    assert mean_dev(tight) < mean_dev(loose)


def test_init_params_bounds_and_determinism():
    task = TaskModel("mlp1", input_dim=9, num_classes=4, hidden_dim=6)
    a = init_params(task, np.random.default_rng([5, 4]))
    b = init_params(task, np.random.default_rng([5, 4]))
    for x, y in zip(a.arrays, b.arrays):
        assert np.array_equal(x, y)
    # weights bounded by 1/sqrt(fan_in), biases zero
    assert np.all(np.abs(layer(a, "W1")) <= 1.0 / math.sqrt(9))
    assert np.all(np.abs(layer(a, "W2")) <= 1.0 / math.sqrt(6))
    assert not layer(a, "b1").any()
    assert not layer(a, "b2").any()


def test_zero_params_structures():
    soft = zero_params(SOFTMAX)
    assert layer(soft, "W").shape == (6, 4)
    assert layer(soft, "b").shape == (4,)
    mlp = zero_params(MLP_RELU)
    assert layer(mlp, "W1").shape == (6, 5)
    assert layer(mlp, "b1").shape == (5,)
    assert layer(mlp, "W2").shape == (5, 4)
    assert layer(mlp, "b2").shape == (4,)


def test_full_batch_descent_fits_separable_data():
    # tight clusters are linearly separable, so plain gradient descent on
    # the full batch should reach near-perfect training accuracy
    data = gen_synthetic(4, 30, 6, 0.05, seed=77)
    task = TaskModel("softmax_regression", input_dim=6, num_classes=4)
    w = init_params(task, np.random.default_rng(1))
    for _ in range(200):
        _, g = loss_and_grad(task, w, data.features, data.labels)
        w = ParamSet(w.names, [a - 0.5 * ga for a, ga in
                               zip(w.arrays, g.arrays)])
    acc, loss = evaluate(task, w, data)
    assert acc >= 0.99
    assert loss < 0.2


def test_task_model_validation():
    with pytest.raises(ValueError):
        TaskModel("cnn", input_dim=4, num_classes=2)
    with pytest.raises(ValueError):
        TaskModel("mlp1", input_dim=4, num_classes=2, hidden_dim=0)
    with pytest.raises(ValueError):
        TaskModel("mlp1", input_dim=4, num_classes=2, hidden_dim=3,
                  activation="gelu")
    with pytest.raises(ValueError):
        TaskModel("softmax_regression", input_dim=0, num_classes=2)
