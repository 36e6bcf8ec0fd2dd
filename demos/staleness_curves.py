"""Tabulate the two staleness weighting rules.

Asynchronous federations merge contributions computed against old community
models. Two discounts are implemented. The recency discount scores a commit
by how many community steps landed while the learner was away beyond its
own contribution, shrinking as the inverse square root. The polynomial
mixing factor plays the same role for version-gap mixing: alpha halves at a
gap of 3 and keeps shrinking. Both tables below come straight from the
library functions, followed by the weights an actual asynchronous run
applied to its slow learner.
"""

import numpy as np

from fedsim.controller import WeightingScheme, poly_staleness, staleness_discount
from fedsim.engine import LearnerProfile, ProtocolConfig, run_policy
from fedsim.optimizers import OptimizerConfig
from fedsim.tasks import TaskModel, gen_synthetic, init_params


def main():
    print("recency discount (fetch at step 100, contribution of 5 steps):")
    print(f"  {'intervening':>11} {'weight':>8}")
    for extra in (0, 1, 3, 8, 15, 35, 99):
        w = staleness_discount(5 + extra, 5)
        print(f"  {extra:>11d} {w:>8.4f}")

    print("\npolynomial mixing factor (unit base mixing):")
    print(f"  {'version gap':>11} {'alpha':>8}")
    for gap in (0, 1, 3, 8, 15, 35, 99):
        print(f"  {gap:>11d} {poly_staleness(gap):>8.4f}")

    task = TaskModel("softmax_regression", input_dim=8, num_classes=5)
    train = gen_synthetic(5, 120, 8, 1.5, seed=23)
    test = gen_synthetic(5, 30, 8, 1.5, seed=23, sample_tag=1)
    profiles = [
        LearnerProfile(0, "fast", 20, 5.0, np.arange(200)),
        LearnerProfile(1, "fast", 20, 7.0, np.arange(200, 400)),
        LearnerProfile(2, "slow", 20, 60.0, np.arange(400, 600)),
    ]
    initial = init_params(task, np.random.default_rng([23, 4]))
    cfg = ProtocolConfig("async", OptimizerConfig("vanilla", eta=0.05),
                         WeightingScheme("fedrec_staleness"),
                         epochs=1, time_budget_ms=1500.0)
    log = run_policy(cfg, profiles, task, train, test, initial, seed=23)

    print("\nper-learner commit weights from a live run:")
    print(f"  {'learner':>7} {'ms/batch':>9} {'commits':>8} "
          f"{'first':>7} {'mean':>7}")
    for p in profiles:
        ws = [a.weight for a in log.assignments if a.learner == p.learner_id]
        mean = sum(ws) / len(ws) if ws else float("nan")
        first = ws[0] if ws else float("nan")
        print(f"  {p.learner_id:>7d} {p.time_per_batch_us / 1000:>9.0f} "
              f"{len(ws):>8d} {first:>7.3f} {mean:>7.3f}")
    print("\nThe fast pair commits against near-fresh community models, so")
    print("their weights stay high. Hundreds of steps land while the slow")
    print("learner trains, so even its first commit is heavily discounted.")


if __name__ == "__main__":
    main()
