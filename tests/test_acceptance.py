"""Acceptance suite.

Each test covers one numbered acceptance criterion, prints a single
``[criterion N] PASS/FAIL`` line (visible even under pytest capture), checks
its stated runtime limit, and fails with the collected problems if any
sub-check misses its tolerance.
"""

import itertools
import math
import time

import numpy as np
import pytest

from fedsim.config import parse_config_text
from fedsim.controller import (
    WeightingScheme,
    cached_update,
    fedasync_update,
    init_community,
    poly_staleness,
    staleness_discount,
)
from fedsim.engine import (
    LearnerProfile,
    ProtocolConfig,
    plan_semisync,
    run_policy,
)
from fedsim.optimizers import OptimizerConfig
from fedsim.params import ParamSet, weighted_average
from fedsim.partition import (
    PartitionSpec,
    assign_classes,
    assign_to_devices,
    make_sizes,
)
from fedsim.runner import run_experiment
from fedsim.tasks import TaskModel, gen_synthetic, init_params, stacked_grad
from oracles import (
    central_diff, digest_tree, equal, load_tool, loss_and_grad, max_abs_diff,
    rel_err, run_client_opt, step_fedprox, step_momentum, step_vanilla, unflat,
    zeros_like,
)


@pytest.fixture
def announce(capsys):
    def _print(line):
        with capsys.disabled():
            print(line, flush=True)
    return _print


def run_criterion(announce, num, name, limit_s, body):
    t0 = time.perf_counter()
    problems = []

    def check(cond, msg):
        if not cond:
            problems.append(msg)

    error = None
    try:
        body(check)
    except Exception as exc:  # report, then re-raise with the line printed
        error = exc
        problems.append(f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    if elapsed >= limit_s:
        problems.append(f"runtime {elapsed:.1f}s over the {limit_s:g}s limit")
    status = "PASS" if not problems else "FAIL"
    detail = f" :: {problems[0]}" if problems else ""
    announce(f"[criterion {num:2d}] {status} {name} "
             f"({elapsed:.2f}s < {limit_s:g}s){detail}")
    if error is not None:
        raise error
    assert not problems, "; ".join(problems)


def profiles_fast_slow(num_fast, num_slow, per_learner, t_fast_ms, t_slow_ms,
                       batch_size=20):
    out = []
    for k in range(num_fast + num_slow):
        device = "fast" if k < num_fast else "slow"
        t_ms = t_fast_ms if device == "fast" else t_slow_ms
        out.append(LearnerProfile(
            k, device, batch_size, t_ms,
            np.arange(k * per_learner, (k + 1) * per_learner)))
    return out


def test_criterion_1_schedule_arithmetic(announce):
    def body(check):
        # 114 batches per shard: 2280 examples at batch size 20
        profs = [LearnerProfile(0, "fast", 20, 30.0, np.arange(2280)),
                 LearnerProfile(1, "slow", 20, 300.0, np.arange(2280, 4560))]
        plan = plan_semisync(2.0, profs)
        check(plan.batches == {0: 2280, 1: 228},
              f"lambda=2 budgets {plan.batches} != {{0: 2280, 1: 228}}")
        profs = [LearnerProfile(0, "fast", 20, 60.0, np.arange(2280)),
                 LearnerProfile(1, "slow", 20, 2000.0, np.arange(2280, 4560))]
        plan = plan_semisync(0.5, profs)
        check(plan.batches == {0: 1900, 1: 57},
              f"lambda=0.5 budgets {plan.batches} != {{0: 1900, 1: 57}}")

    run_criterion(announce, 1, "schedule arithmetic pinned", 1.0, body)


def test_criterion_2_cache_equals_recompute(announce):
    def body(check):
        shapes = {"W1": (50, 100), "b1": (100,), "W2": (100, 49)}
        names = list(shapes)

        def rand_model(rng):
            return ParamSet(names, [rng.standard_normal(shapes[n])
                                    for n in names])

        rng = np.random.default_rng(2024)
        proto = rand_model(rng)
        check(proto.num_entries == 10_000,
              f"model carries {proto.num_entries} entries, wanted 10000")
        state = init_community(proto)
        latest = {}
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(0, 10))
            w = rand_model(rng)
            p = float(rng.uniform(0.5, 20.0))
            rng.integers(1, 9)  # a local step count, which the cache ignores
            out = cached_update(state, k, w, p)
            latest[k] = (w, p)
            oracle = weighted_average(
                [latest[j][0] for j in sorted(latest)],
                [latest[j][1] for j in sorted(latest)])
            worst = max(worst, max_abs_diff(out, oracle))
        check(worst <= 1e-9,
              f"cache drifted {worst:.3e} from the recompute oracle")

    run_criterion(announce, 2, "cache equals full recompute", 5.0, body)


def test_criterion_3_cache_scaling(announce):
    tool = load_tool("bench_cache")

    def body(check):
        fits = None
        for attempt_seed in (7, 1013):  # one retry for the stochastic fit
            rows, fits = tool.bench_cache(
                learner_counts=(10, 100, 1000), model_entries=(10_000,),
                repeats=5, inner=20, seed=attempt_seed)
            if fits[("cached", 10_000)]["slope_pvalue"] > 0.05:
                break
        cached = fits[("cached", 10_000)]
        recompute = fits[("recompute", 10_000)]
        check(cached["slope_pvalue"] > 0.05,
              f"cached slope p={cached['slope_pvalue']:.3f} rejects flatness")
        check(recompute["r_squared"] >= 0.9,
              f"recompute R^2={recompute['r_squared']:.3f} < 0.9")
        check(recompute["slope"] > 0.0,
              f"recompute slope {recompute['slope']:.3e} not positive")

    run_criterion(announce, 3, "cache cost flat, recompute linear", 60.0, body)


def test_criterion_4_optimizer_correctness(announce):
    def body(check):
        task = TaskModel("softmax_regression", input_dim=6, num_classes=4)
        data = gen_synthetic(4, 6, 6, 2.0, seed=42)
        X, y = data.features, data.labels

        def solve(cfg, start, budget, grad_fn):
            """``budget`` full-batch steps of the production solver."""
            stream = itertools.repeat(np.arange(len(y)))
            return run_client_opt([start], [budget], [stream], cfg,
                                  grad_fn)[0]

        def ones(W, rows, out):
            for g in out:
                g.fill(1.0)

        # momentum, hand-unrolled, through the oracle and the solver
        cfg = OptimizerConfig("momentum", eta=1.0, gamma=0.5)
        w = u = ParamSet(["w"], [np.array([[0.0]])])
        g = ParamSet(["w"], [np.array([[1.0]])])
        w, u = step_momentum(w, u, g, cfg)
        check((w.arrays[0][0, 0], u.arrays[0][0, 0]) == (-1.0, 1.0),
              "first momentum step is not (-1, 1)")
        w, u = step_momentum(w, u, g, cfg)
        check((w.arrays[0][0, 0], u.arrays[0][0, 0]) == (-2.5, 1.5),
              "second momentum step is not (-2.5, 1.5)")
        for budget, expect in ((1, -1.0), (2, -2.5)):
            got = solve(cfg, ParamSet(["w"], [np.array([[0.0]])]), budget,
                        ones).flat[0]
            check(got == expect,
                  f"solver momentum step {budget} is {got}, not {expect}")

        # proximal step against finite differences of the augmented objective
        rng = np.random.default_rng(8)
        w0 = init_params(task, rng)
        anchor = init_params(task, rng)
        eta, mu = 0.2, 0.1
        cfg_p = OptimizerConfig("fedprox", eta=eta, mu=mu)

        def prox_step_rel(w, anchor, stepped):
            """Relative gap of ``stepped`` from one finite-difference step
            from ``w`` on the objective augmented toward ``anchor``."""
            def objective(vec):
                loss, _ = loss_and_grad(task, unflat(w, vec), X, y)
                return loss + 0.5 * mu * float(
                    np.sum((vec - anchor.flat) ** 2))

            return rel_err(stepped.flat,
                           w.flat - eta * central_diff(objective, w.flat))

        _, g_ce = loss_and_grad(task, w0, X, y)
        rel = prox_step_rel(w0, anchor, step_fedprox(w0, anchor, g_ce, cfg_p))
        check(rel <= 1e-5,
              f"proximal step off finite differences by rel {rel:.3e}")

        # the solver's anchor is its start: step 2 from step 1's weights
        def ce(W, rows, out):
            stacked_grad(task, W, X[rows], y[rows], out)

        w1, w2 = (solve(cfg_p, w0, budget, ce) for budget in (1, 2))
        rel = prox_step_rel(w1, w0, w2)
        check(rel <= 1e-5,
              f"solver proximal step off finite differences by rel {rel:.3e}")

        # degeneracies collapse to vanilla bitwise
        rng = np.random.default_rng(9)
        w = ParamSet(["w"], [rng.standard_normal((7, 3))])
        a = ParamSet(["w"], [rng.standard_normal((7, 3))])
        g = ParamSet(["w"], [rng.standard_normal((7, 3))])
        v = step_vanilla(w, g, OptimizerConfig("vanilla", eta=0.05))
        m, _ = step_momentum(w, zeros_like(w), g,
                             OptimizerConfig("momentum", eta=0.05, gamma=0.0))
        p = step_fedprox(w, a, g, OptimizerConfig("fedprox", eta=0.05, mu=0.0))
        check(equal(m, v), "gamma=0 momentum is not bitwise vanilla")
        check(equal(p, v), "mu=0 proximal step is not bitwise vanilla")
        v, m, p = (solve(OptimizerConfig(kind, eta=0.05), w0, 3, ce)
                   for kind in ("vanilla", "momentum", "fedprox"))
        check(equal(m, v), "solver gamma=0 momentum is not bitwise vanilla")
        check(equal(p, v), "solver mu=0 proximal step is not bitwise vanilla")

    run_criterion(announce, 4, "optimizer steps match oracles", 5.0, body)


def idle_world(policy, rounds, lam=2.0):
    num, per = 10, 500
    total = num * per
    train = gen_synthetic(10, total // 10, 8, 1.5, seed=6)
    test = gen_synthetic(10, 20, 8, 1.5, seed=6, sample_tag=1)
    task = TaskModel("softmax_regression", input_dim=8, num_classes=10)
    profs = profiles_fast_slow(5, 5, per, 30.0, 300.0)
    initial = init_params(task, np.random.default_rng([6, 4]))
    opt = OptimizerConfig("vanilla", eta=0.05)
    scheme = WeightingScheme("fedavg_static")
    cfg = ProtocolConfig(policy, opt, scheme, epochs=4, lam=lam,
                         rounds=rounds)
    runner = run_policy
    return runner(cfg, profs, task, train, test, initial, seed=6), profs


def test_criterion_5_idle_accounting(announce):
    def body(check):
        log, profs = idle_world("sync", rounds=3)
        rows = {}
        for a in log.assignments:
            rows[(a.learner, a.index)] = (a.arrival_us - a.fetch_us,
                                          a.commit_us - a.arrival_us)
        for r in range(3):
            round_span = max(a + i for (lid2, r2), (a, i) in rows.items()
                             if r2 == r)
            for lid in range(5):  # the fast half
                _, idle = rows[(lid, r)]
                check(idle >= 0.85 * round_span,
                      f"fast learner {lid} idle {idle} < 0.85 of round "
                      f"{round_span} in sync round {r}")

        log, profs = idle_world("semisync", rounds=4)
        slowest_batch_us = max(p.time_per_batch_us for p in profs)
        for a in log.assignments:
            lid, r, idle = a.learner, a.index, a.commit_us - a.arrival_us
            if r == 0:
                continue  # profiling round is unaligned by design
            check(idle <= slowest_batch_us,
                  f"learner {lid} idled {idle}us > one batch "
                  f"({slowest_batch_us}us) in scheduled round {r}")

    run_criterion(announce, 5, "idle spans: sync barrier vs aligned rounds",
                  10.0, body)


def test_criterion_6_communication_accounting(announce):
    def body(check):
        train = gen_synthetic(4, 300, 6, 1.5, seed=4)
        test = gen_synthetic(4, 15, 6, 1.5, seed=4, sample_tag=1)
        task = TaskModel("softmax_regression", input_dim=6, num_classes=4)
        initial = init_params(task, np.random.default_rng([4, 4]))
        opt = OptimizerConfig("vanilla", eta=0.05)
        scheme = WeightingScheme("fedavg_static")
        profs = profiles_fast_slow(3, 3, 200, 10.0, 100.0)

        for policy, extra in (("sync", {"rounds": 4}),
                              ("semisync", {"rounds": 4, "lam": 2.0})):
            cfg = ProtocolConfig(policy, opt, scheme, epochs=2, **extra)
            runner = run_policy
            log = runner(cfg, profs, task, train, test, initial, seed=4)
            check(log.update_requests == 4 * 6,
                  f"{policy} made {log.update_requests} requests, not 24")
            check(log.models_exchanged == 48,
                  f"{policy} exchanged {log.models_exchanged} models, not 48")
            check(log.federation_rounds == 4,
                  f"{policy} counted {log.federation_rounds} rounds, not 4")

        # async: floor(budget / cycle) commits per learner
        profs = [LearnerProfile(0, "fast", 20, 3.0, np.arange(200)),
                 LearnerProfile(1, "fast", 20, 7.0, np.arange(200, 400)),
                 LearnerProfile(2, "slow", 20, 12.0, np.arange(400, 800))]
        budget_ms = 2000.0
        cfg = ProtocolConfig("async", opt, scheme, epochs=1,
                             time_budget_ms=budget_ms)
        log = run_policy(cfg, profs, task, train, test, initial, seed=4)
        counts = {0: 0, 1: 0, 2: 0}
        for a in log.assignments:
            counts[a.learner] += 1
        for p in profs:
            cycle_us = p.batches_per_epoch * p.time_per_batch_us
            oracle = int(budget_ms * 1000.0) // cycle_us
            check(abs(counts[p.learner_id] - oracle) <= 1,
                  f"async learner {p.learner_id} committed "
                  f"{counts[p.learner_id]}, oracle {oracle}")
        check(log.federation_rounds == 0,
              "async reported nonzero federation rounds")

    run_criterion(announce, 6, "communication counters exact", 10.0, body)


def test_criterion_7_staleness_weights(announce):
    def body(check):
        values = [staleness_discount(5 + i, 5) for i in range(0, 60)]
        check(all(b < a for a, b in zip(values, values[1:])),
              "discount is not strictly decreasing in intervening steps")
        gaps = {0: 1.0, 3: 0.5, 8: 1.0 / 3.0}
        for gap, expect in gaps.items():
            got = poly_staleness(gap)
            check(abs(got - expect) <= 1e-12,
                  f"alpha at gap {gap} is {got!r}, wanted {expect!r}")
        # and through the mixing path itself
        rng = np.random.default_rng(12)
        proto = ParamSet(["w"], [rng.standard_normal((4, 4))])
        for gap, expect in gaps.items():
            state = init_community(proto)
            _, alpha = fedasync_update(
                state, ParamSet(["w"], [rng.standard_normal((4, 4))]),
                1.0, gap=gap)
            check(abs(alpha - expect) <= 1e-12,
                  f"mixing path alpha at gap {gap} is {alpha!r}")

    run_criterion(announce, 7, "staleness weight formulas", 1.0, body)


def trend_world(seed):
    spread = 3.5
    task = TaskModel("softmax_regression", input_dim=16, num_classes=10)
    train = gen_synthetic(10, 150, 16, spread, seed)
    test = gen_synthetic(10, 50, 16, spread, seed, sample_tag=1)
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


def test_criterion_8_convergence_trend(announce):
    def body(check):
        opt = OptimizerConfig("momentum", eta=0.05, gamma=0.75)
        scheme = WeightingScheme("fedavg_static")
        for seed in (1, 2, 3):
            task, train, test, profiles, initial = trend_world(seed)
            sync_cfg = ProtocolConfig("sync", opt, scheme, epochs=4,
                                      rounds=12)
            sync_log = run_policy(sync_cfg, profiles, task, train, test,
                                  initial, seed)
            threshold = 0.6 * sync_log.evals[-1].accuracy
            plan = plan_semisync(2.0, profiles)
            rounds = math.ceil(sync_log.evals[-1].t_us / plan.t_max_us) + 2
            semi_cfg = ProtocolConfig("semisync", opt, scheme, epochs=4,
                                      lam=2.0, rounds=rounds)
            semi_log = run_policy(semi_cfg, profiles, task, train, test,
                                  initial, seed)

            def crossing(log):
                for ev in log.evals:
                    if ev.accuracy >= threshold:
                        return ev.t_us
                return None

            t_sync, t_semi = crossing(sync_log), crossing(semi_log)
            check(t_sync is not None,
                  f"seed {seed}: sync never reached {threshold:.3f}")
            check(t_semi is not None,
                  f"seed {seed}: semisync never reached {threshold:.3f}")
            if t_sync is not None and t_semi is not None:
                check(t_semi <= t_sync,
                      f"seed {seed}: semisync crossed at {t_semi}us, "
                      f"after sync at {t_sync}us")

    run_criterion(announce, 8, "semisync reaches the threshold first",
                  300.0, body)


def test_criterion_9_partition_reproduction(announce):
    def body(check):
        data10 = gen_synthetic(10, 100, 4, 1.0, seed=13)
        for x, expect in ((5, [8, 7, 6, 5, 5, 5, 5, 5, 5, 5]),
                          (3, [8, 4, 3, 3, 3, 3, 3, 3, 3, 3])):
            spec = PartitionSpec(num_learners=10, size_dist="powerlaw",
                                 class_dist="non_iid", classes_per_learner=x)
            sizes = make_sizes(spec, 1000)
            res = assign_classes(spec, sizes, data10)
            got = [len(c) for c in res.owned_classes]
            check(got == expect, f"non_iid({x}) class counts {got}")

        rng = np.random.default_rng(99)
        pool = {c: gen_synthetic(c, 60, 4, 1.0, seed=100 + c)
                for c in range(2, 9)}
        size_dists = ["uniform", "powerlaw", "skewed"]
        valid = 0
        attempts = 0
        while valid < 1000 and attempts < 20_000:
            attempts += 1
            n = int(rng.integers(2, 9))
            num_classes = int(rng.integers(2, 9))
            class_dist = "iid" if rng.random() < 0.5 else "non_iid"
            x = (int(rng.integers(1, num_classes + 1))
                 if class_dist == "non_iid" else 0)
            spec = PartitionSpec(
                num_learners=n,
                size_dist=size_dists[int(rng.integers(0, 3))],
                class_dist=class_dist,
                classes_per_learner=x,
                ratio=float(rng.uniform(1.1, 3.0)),
                exponent=float(rng.uniform(0.5, 2.5)),
            )
            data = pool[num_classes]
            sizes = make_sizes(spec, len(data.labels))
            owned = num_classes if class_dist == "iid" else x
            if min(sizes) < owned:
                continue
            if class_dist == "non_iid" and n * x < num_classes:
                continue
            res = assign_classes(spec, sizes, data)
            allocated = np.concatenate(res.indices)
            if len(allocated) != len(np.unique(allocated)):
                check(False, f"overlapping partitions for {spec}")
                return
            if len(allocated) != len(data.labels):
                check(False, f"lost examples for {spec}")
                return
            if sum(res.sizes) != len(data.labels):
                check(False, f"size total mismatch for {spec}")
                return
            valid += 1
        check(valid >= 1000, f"only {valid} feasible random specs exercised")

    run_criterion(announce, 9, "partition quotas and conservation", 30.0, body)


DETERMINISM_SEMISYNC = """
[experiment]
seed = 31
output = {out}
[task]
input_dim = 8
num_classes = 5
per_class = 80
test_per_class = 20
[partition]
size_dist = powerlaw
class_dist = non_iid
classes_per_learner = 2
[learners]
num_fast = 2
num_slow = 2
t_beta_fast_ms = 10
t_beta_slow_ms = 100
batch_size = 20
[protocol]
policy = semisync
lambda = 2
rounds = 3
epochs = 2
[optimizer]
kind = momentum
eta = 0.05
gamma = 0.75
"""

DETERMINISM_ASYNC = """
[experiment]
seed = 37
output = {out}
[task]
input_dim = 8
num_classes = 5
per_class = 80
test_per_class = 20
[learners]
num_fast = 2
num_slow = 2
t_beta_fast_ms = 5
t_beta_slow_ms = 50
batch_size = 20
[protocol]
policy = async
epochs = 1
time_budget_ms = 1500
[weighting]
scheme = fedrec_staleness
"""


def test_criterion_10_byte_determinism(announce, tmp_path):
    def body(check):
        for label, template in (("semisync", DETERMINISM_SEMISYNC),
                                ("async", DETERMINISM_ASYNC)):
            digests = []
            for run in ("a", "b"):
                out = tmp_path / f"{label}-{run}"
                cfg = parse_config_text(template.format(out=out))
                rc = run_experiment(cfg)
                check(rc == 0, f"{label} run {run} exited {rc}")
                # config.txt embeds the differing output path
                digests.append(digest_tree(out, skip=("config.txt",)))
            check(digests[0] == digests[1],
                  f"{label} reruns differ: " + ", ".join(
                      sorted(k for k in set(digests[0]) | set(digests[1])
                             if digests[0].get(k) != digests[1].get(k))))
            check("metrics.csv" in digests[0],
                  f"{label} produced no metrics.csv")

    run_criterion(announce, 10, "byte-identical reruns", 60.0, body)
