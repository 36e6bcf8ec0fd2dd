"""Data partitioning: sizes, class quotas, assignment, device mapping."""

import json

import numpy as np
import pytest

from fedsim.config import parse_config_text
from fedsim.partition import (
    HEAD_EXPANDED_QUOTAS,
    PartitionError,
    PartitionResult,
    PartitionSpec,
    _largest_remainder,
    assign_classes,
    assign_to_devices,
    make_sizes,
)
from fedsim.runner import build_world, run_experiment
from fedsim.tasks import gen_synthetic


def build(spec, num_classes, per_class, seed=13):
    data = gen_synthetic(num_classes, per_class, 4, 1.0, seed=seed)
    sizes = make_sizes(spec, len(data.labels))
    return data, sizes, assign_classes(spec, sizes, data)


def test_uniform_sizes_exact():
    spec = PartitionSpec(num_learners=10)
    assert make_sizes(spec, 50000) == [5000] * 10


def test_uniform_sizes_head_remainder():
    spec = PartitionSpec(num_learners=5)
    assert make_sizes(spec, 17) == [4, 4, 3, 3, 3]


def test_powerlaw_sizes_proportions():
    # weights k^-1.5 for k=1..4, scaled by largest remainder
    spec = PartitionSpec(num_learners=4, size_dist="powerlaw")
    sizes = make_sizes(spec, 1000)
    weights = np.arange(1, 5, dtype=float) ** -1.5
    expect = weights / weights.sum() * 1000
    assert sum(sizes) == 1000
    assert sizes == sorted(sizes, reverse=True)
    assert all(abs(s - e) <= 1.0 for s, e in zip(sizes, expect))


def test_skewed_sizes_geometric():
    spec = PartitionSpec(num_learners=4, size_dist="skewed", ratio=2.0)
    sizes = make_sizes(spec, 1500)
    # weights 1, 1/2, 1/4, 1/8 -> 8:4:2:1 of 1500 = 800, 400, 200, 100
    assert sizes == [800, 400, 200, 100]


def test_make_sizes_minimum_one_each():
    spec = PartitionSpec(num_learners=6, size_dist="skewed", ratio=10.0)
    sizes = make_sizes(spec, 12)
    assert sum(sizes) == 12
    assert min(sizes) >= 1
    assert sizes == sorted(sizes, reverse=True)


def test_largest_remainder_conserves_total():
    rng = np.random.default_rng(61)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        props = rng.uniform(0.05, 1.0, size=n)
        total = int(rng.integers(n, 5000))
        sizes = _largest_remainder(total, props / props.sum())
        assert sum(sizes) == total
        assert all(s >= 0 for s in sizes)


def test_largest_remainder_ties_go_to_the_lower_index():
    assert _largest_remainder(1, np.array([1, 1])) == [1, 0]
    assert _largest_remainder(2, np.array([1, 1, 1])) == [1, 1, 0]


def test_head_expanded_quotas_pinned():
    assert HEAD_EXPANDED_QUOTAS[(5, 10, 10)] == (8, 7, 6, 5, 5, 5, 5, 5, 5, 5)
    assert HEAD_EXPANDED_QUOTAS[(3, 10, 10)] == (8, 4, 3, 3, 3, 3, 3, 3, 3, 3)
    assert HEAD_EXPANDED_QUOTAS[(50, 10, 100)] == (
        84, 76, 68, 64, 55, 50, 50, 50, 50, 50)


def test_noniid5_powerlaw_owned_class_counts():
    spec = PartitionSpec(num_learners=10, size_dist="powerlaw",
                         class_dist="non_iid", classes_per_learner=5)
    data, sizes, res = build(spec, 10, 100)
    assert [len(c) for c in res.owned_classes] == [8, 7, 6, 5, 5, 5, 5, 5, 5, 5]


def test_noniid3_powerlaw_owned_class_counts():
    spec = PartitionSpec(num_learners=10, size_dist="powerlaw",
                         class_dist="non_iid", classes_per_learner=3)
    data, sizes, res = build(spec, 10, 100)
    assert [len(c) for c in res.owned_classes] == [8, 4, 3, 3, 3, 3, 3, 3, 3, 3]


def test_noniid_uniform_keeps_flat_quota():
    spec = PartitionSpec(num_learners=10, class_dist="non_iid",
                         classes_per_learner=5)
    data, sizes, res = build(spec, 10, 100)
    assert [len(c) for c in res.owned_classes] == [5] * 10


def test_owned_classes_cyclic_coverage():
    # the dealer walks classes cyclically, so every class is owned by
    # roughly the same number of learners
    spec = PartitionSpec(num_learners=10, class_dist="non_iid",
                         classes_per_learner=5)
    data, sizes, res = build(spec, 10, 100)
    owners = np.zeros(10, dtype=int)
    for owned in res.owned_classes:
        assert len(set(owned)) == len(owned)
        for c in owned:
            owners[c] += 1
    assert owners.max() - owners.min() <= 1


def test_partition_disjoint_and_conserving():
    rng = np.random.default_rng(71)
    size_dists = ["uniform", "powerlaw", "skewed"]
    ran = 0
    for trial in range(80):
        n = int(rng.integers(2, 9))
        num_classes = int(rng.integers(2, 8))
        per_class = int(rng.integers(10, 40))
        class_dist = "iid" if rng.random() < 0.5 else "non_iid"
        x = int(rng.integers(1, num_classes + 1)) if class_dist == "non_iid" else 0
        spec = PartitionSpec(
            num_learners=n,
            size_dist=size_dists[int(rng.integers(0, 3))],
            class_dist=class_dist,
            classes_per_learner=x,
        )
        data = gen_synthetic(num_classes, per_class, 4, 1.0, seed=trial)
        sizes = make_sizes(spec, len(data.labels))
        # a learner must hold at least one example per owned class, so skip
        # draws where the smallest partition cannot cover its class count
        owned = num_classes if class_dist == "iid" else x
        if min(sizes) < owned:
            continue
        if class_dist == "non_iid" and n * x < num_classes:
            # some class has no owner, which the partitioner must refuse
            with pytest.raises(PartitionError):
                assign_classes(spec, sizes, data)
            continue
        res = assign_classes(spec, sizes, data)
        allocated = np.concatenate(res.indices)
        assert len(allocated) == len(np.unique(allocated))
        assert len(allocated) == len(data.labels)
        assert sum(res.sizes) == len(data.labels)
        ran += 1
    assert ran >= 40


def test_override_partitions_fill_every_learner_or_refuse():
    # Small worlds with a per-learner class quota: the partitioner either
    # refuses the spec or gives every learner at least one example of its
    # own classes, using each example exactly once.
    rng = np.random.default_rng(89)
    size_dists = ["uniform", "powerlaw", "skewed"]
    ran = refused = 0
    for trial in range(400):
        num_classes = int(rng.integers(1, 6))
        per_class = int(rng.integers(1, 5))
        n = int(rng.integers(1, min(8, num_classes * per_class) + 1))
        spec = PartitionSpec(
            num_learners=n,
            size_dist=size_dists[int(rng.integers(0, 3))],
            class_dist="non_iid",
            class_count_override=tuple(
                int(q) for q in rng.integers(1, num_classes + 1, size=n)),
        )
        data = gen_synthetic(num_classes, per_class, 2, 1.0, seed=trial)
        if rng.random() < 0.5:
            data.labels = rng.permutation(data.labels)
        sizes = make_sizes(spec, len(data.labels))
        try:
            res = assign_classes(spec, sizes, data)
        except PartitionError:
            refused += 1
            continue
        allocated = np.concatenate(res.indices)
        assert sorted(allocated) == list(range(len(data.labels)))
        for owned, ix in zip(res.owned_classes, res.indices):
            assert len(ix) >= 1
            assert set(data.labels[ix]) <= set(owned)
        ran += 1
    assert ran >= 100 and refused >= 100


def test_learner_left_without_examples_is_refused():
    # Learner 3 owns only class 0, whose three examples learners 0-2 draw
    # first; its shard would be empty.
    spec = PartitionSpec(num_learners=4, size_dist="skewed",
                         class_dist="non_iid", classes_per_learner=3,
                         class_count_override=(3, 3, 2, 1))
    data = gen_synthetic(3, 3, 2, 1.0, seed=1)
    sizes = make_sizes(spec, len(data.labels))
    assert sizes == [3, 3, 2, 1]
    with pytest.raises(PartitionError) as exc:
        assign_classes(spec, sizes, data)
    assert str(exc.value) == (
        "learner 3 gets no examples: the learners before it leave no "
        "example of its classes [0]")


def test_noniid_respects_class_ownership():
    spec = PartitionSpec(num_learners=6, class_dist="non_iid",
                         classes_per_learner=2)
    data, sizes, res = build(spec, 6, 50)
    for owned, ix in zip(res.owned_classes, res.indices):
        assert set(np.unique(data.labels[ix])) <= set(owned)


def written_report(out, num_classes, per_class, learners, partition=""):
    """The ``partition_report.json`` a partitions-only run of that world
    writes into ``out``, and the partition ``build_world`` gives it."""
    cfg = parse_config_text(
        f"[experiment]\nseed = 13\noutput = {out}\n"
        f"[task]\ninput_dim = 4\nnum_classes = {num_classes}\n"
        f"per_class = {per_class}\n[learners]\nnum_fast = {learners}\n"
        f"num_slow = 0\n[partition]\n{partition}"
    )
    assert run_experiment(cfg, partitions_only=True) == 0
    report = json.loads((out / "partition_report.json").read_text())
    return report, build_world(cfg, cfg.seed)[2]


def test_iid_uniform_is_class_balanced(tmp_path):
    report, _ = written_report(tmp_path, 4, 50, 5)  # 200 examples, 40 each
    for entry in report["learners"]:
        # 40 per learner / 4 classes
        assert set(entry["class_histogram"].values()) == {10}


def test_assign_classes_infeasible_quota():
    spec = PartitionSpec(num_learners=2, class_dist="non_iid",
                         classes_per_learner=0,
                         class_count_override=(5, 5))
    data = gen_synthetic(5, 10, 4, 1.0, seed=3)
    with pytest.raises(PartitionError):
        assign_classes(spec, [3, 47], data)
    with pytest.raises(PartitionError, match="3 sizes for 2 learners"):
        assign_classes(spec, [3, 3, 3], data)
    with pytest.raises(PartitionError,
                       match="sizes sum to 51 but dataset has 50 examples"):
        assign_classes(spec, [25, 26], data)


def test_assign_classes_indices_sorted_and_deterministic():
    spec = PartitionSpec(num_learners=4, size_dist="powerlaw",
                         class_dist="non_iid", classes_per_learner=2)
    data = gen_synthetic(6, 30, 4, 1.0, seed=5)
    sizes = make_sizes(spec, len(data.labels))
    a = assign_classes(spec, sizes, data)
    b = assign_classes(spec, sizes, data)
    for x, y in zip(a.indices, b.indices):
        assert np.array_equal(x, y)
        assert np.array_equal(x, np.sort(x))


def test_device_alternation_on_sizes():
    # sizes 9, 7, 5, 3 with two fast and two slow slots: descending order
    # alternates fast/slow, so fast gets {9, 5} and slow gets {7, 3}
    res = PartitionResult(
        indices=[np.arange(9), np.arange(9, 16), np.arange(16, 21),
                 np.arange(21, 24)],
        owned_classes=[() for _ in range(4)],
    )
    devices = assign_to_devices(res, ["fast", "fast", "slow", "slow"])
    assert devices == ["fast", "slow", "fast", "slow"]


def test_device_identity_when_equal_sizes():
    res = PartitionResult(indices=[np.arange(5), np.arange(5, 10),
                                   np.arange(10, 15)],
                          owned_classes=[() for _ in range(3)])
    devices = assign_to_devices(res, ["slow", "fast", "slow"])
    assert devices == ["slow", "fast", "slow"]


def test_device_pool_exhaustion_falls_back():
    res = PartitionResult(
        indices=[np.arange(8), np.arange(8, 14), np.arange(14, 18),
                 np.arange(18, 20)],
        owned_classes=[() for _ in range(4)],
    )
    devices = assign_to_devices(res, ["fast", "slow", "slow", "slow"])
    # only one fast slot: largest takes it, everything else is slow
    assert devices == ["fast", "slow", "slow", "slow"]
    assert sorted(devices) == ["fast", "slow", "slow", "slow"]


def test_device_length_mismatch_raises():
    res = PartitionResult(indices=[np.arange(4), np.arange(4, 8)],
                          owned_classes=[(), ()])
    with pytest.raises(PartitionError):
        assign_to_devices(res, ["fast"])


def test_partition_report_json_shape(tmp_path):
    obj, res = written_report(tmp_path, 4, 30, 3,
                              "class_dist = non_iid\nclasses_per_learner = 2\n")
    assert obj["format_version"] == 1
    assert len(obj["learners"]) == 3
    for k, entry in enumerate(obj["learners"]):
        assert entry["learner_id"] == k
        assert entry["size"] == res.sizes[k]
        assert sum(entry["class_histogram"].values()) == entry["size"]


def test_spec_validation():
    with pytest.raises(PartitionError):
        PartitionSpec(num_learners=0)
    with pytest.raises(PartitionError):
        PartitionSpec(num_learners=2, size_dist="normal")
    with pytest.raises(PartitionError):
        PartitionSpec(num_learners=2, class_dist="dirichlet")
    with pytest.raises(PartitionError):
        PartitionSpec(num_learners=2, class_dist="non_iid")
    with pytest.raises(PartitionError):
        PartitionSpec(num_learners=2, size_dist="skewed", ratio=1.0)
    with pytest.raises(PartitionError,
                       match="powerlaw exponent must be positive, got 0.0"):
        PartitionSpec(num_learners=2, size_dist="powerlaw", exponent=0.0)
    with pytest.raises(PartitionError,
                       match="class_count_override must list one quota per"):
        PartitionSpec(num_learners=2, class_dist="non_iid",
                      class_count_override=(3, 3, 3))
    # override alone satisfies the non_iid requirement
    PartitionSpec(num_learners=2, class_dist="non_iid",
                  class_count_override=(3, 3))
