"""Race the three federation policies on one heterogeneous cluster.

Ten learners (five at 30 ms/batch, five at 300 ms/batch) train a softmax
classifier on a power-law, non-IID split of a 10-class synthetic dataset.
All three policies start from the same initial model and the same seed, so
the only difference is how training time is scheduled and how updates are
merged. The script prints each policy's accuracy trajectory against the
virtual clock plus the idle and communication ledgers, which is the whole
story: synchronous rounds waste the fast half of the cluster, the
semi-synchronous schedule keeps everyone busy and reaches the same accuracy
earlier in virtual time.
"""

import math

import numpy as np

from fedsim.controller import WeightingScheme
from fedsim.engine import (
    LearnerProfile,
    ProtocolConfig,
    plan_semisync,
    run_policy,
)
from fedsim.optimizers import OptimizerConfig
from fedsim.partition import (
    PartitionSpec,
    assign_classes,
    assign_to_devices,
    make_sizes,
)
from fedsim.tasks import TaskModel, gen_synthetic, init_params


def build_world(seed):
    task = TaskModel("softmax_regression", input_dim=16, num_classes=10)
    train = gen_synthetic(10, 150, 16, 3.5, seed)
    test = gen_synthetic(10, 50, 16, 3.5, seed, sample_tag=1)
    spec = PartitionSpec(num_learners=10, size_dist="powerlaw",
                         class_dist="non_iid", classes_per_learner=3)
    sizes = make_sizes(spec, len(train.labels))
    res = assign_classes(spec, sizes, train)
    devices = assign_to_devices(res, ["fast"] * 5 + ["slow"] * 5)
    latency = {"fast": 30.0, "slow": 300.0}
    profiles = [LearnerProfile(k, devices[k], 20, latency[devices[k]],
                               res.indices[k]) for k in range(10)]
    initial = init_params(task, np.random.default_rng([seed, 4]))
    return task, train, test, profiles, initial


def summarize(name, log):
    idle = sum(a.commit_us - a.arrival_us for a in log.assignments)
    active = sum(a.arrival_us - a.fetch_us for a in log.assignments)
    total = idle + active
    share = idle / total if total else 0.0
    print(f"\n{name}: {log.update_requests} update requests, "
          f"{log.models_exchanged} models exchanged, "
          f"idle share {share:.1%}")
    print(f"  {'virtual s':>10} {'accuracy':>9}")
    for ev in log.evals:
        print(f"  {ev.t_us / 1e6:>10.1f} {ev.accuracy:>9.3f}")


def main():
    seed = 1
    task, train, test, profiles, initial = build_world(seed)
    opt = OptimizerConfig("momentum", eta=0.05, gamma=0.75)
    fedavg = WeightingScheme("fedavg_static")

    sync_cfg = ProtocolConfig("sync", opt, fedavg, epochs=4, rounds=8)
    sync_log = run_policy(sync_cfg, profiles, task, train, test, initial, seed)
    summarize("synchronous (4 epochs/round)", sync_log)

    plan = plan_semisync(2.0, profiles)
    rounds = math.ceil(sync_log.evals[-1].t_us / plan.t_max_us) + 1
    semi_cfg = ProtocolConfig("semisync", opt, fedavg, epochs=4, lam=2.0,
                              rounds=rounds)
    semi_log = run_policy(semi_cfg, profiles, task, train, test, initial,
                          seed)
    summarize(f"semi-synchronous (lambda=2, t_max={plan.t_max_us / 1e6:.1f}s)",
              semi_log)

    budget_ms = sync_log.evals[-1].t_us / 1000.0
    async_cfg = ProtocolConfig("async", opt,
                               WeightingScheme("fedrec_staleness"),
                               epochs=4, time_budget_ms=budget_ms)
    async_log = run_policy(async_cfg, profiles, task, train, test, initial,
                           seed)
    summarize("asynchronous (staleness-discounted)", async_log)

    threshold = 0.6 * sync_log.evals[-1].accuracy

    def crossing(log):
        for ev in log.evals:
            if ev.accuracy >= threshold:
                return ev.t_us / 1e6
        return float("nan")

    print(f"\ntime to reach accuracy {threshold:.3f}:")
    for name, log in (("sync", sync_log), ("semisync", semi_log),
                      ("async", async_log)):
        print(f"  {name:>9}: {crossing(log):.1f} virtual seconds")


if __name__ == "__main__":
    main()
