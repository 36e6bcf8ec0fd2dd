"""Time the aggregation cache against full recomputation.

A naive aggregator rebuilds the weighted average over all N learner models
on every commit, an O(N * M) walk for M model entries. fedsim's controller
subtracts the learner's previous contribution and adds the new one
(``fedsim.controller.cached_update``), touching a single model whatever N
is. This script times both on growing federations and fits a
seconds-versus-N line to each; the cached slope should be statistically
flat (p > 0.05) while the recompute slope grows linearly (R^2 >= 0.9).

    python tools/bench_cache.py [--out FILE]

sweeps 10, 100 and 1000 learners at 10,000 model entries, 5 repeats, seed
7, and prints the per-N medians, the fits and a verdict per mode; ``--out``
also writes every timing to FILE as CSV. Needs numpy, scipy and fedsim.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np
from scipy import stats

# The checkout's package comes first, as the test suite's pythonpath puts
# it, so the script runs from a plain checkout.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fedsim import params  # noqa: E402
from fedsim.controller import cached_update, init_community  # noqa: E402
from fedsim.params import ParamSet  # noqa: E402

# The sweep main runs.
LEARNERS = (10, 100, 1000)
SIZES = (10_000,)
REPEATS = 5
SEED = 7


def bench_cache(
    learner_counts,
    model_entries,
    repeats: int,
    inner: int = 20,
    seed: int = SEED,
    out_path: str | None = None,
):
    """Time contribution replacement against full re-aggregation.

    For every (number of learners, model size) pair the benchmark saturates
    a controller state, then measures (a) the per-call cost of replacing one
    learner's contribution through the incremental cache and (b) the cost of
    re-averaging every stored model. Returns (rows, fits) where rows are
    ``(mode, n_learners, model_entries, repeat, seconds)`` and fits hold a
    least-squares line of seconds against learner count per mode and model
    size. Seconds are CPU seconds of this process: a busy neighbour
    stretches a call's wall time, but not the CPU time the call takes.
    """
    if repeats < 2:
        raise ValueError("need at least two repeats to fit a line")
    rng = np.random.default_rng(seed)
    rows = []
    for entries in model_entries:
        shapes = _three_layer_shapes(entries)
        fresh = [
            ParamSet(
                [f"layer{i}" for i in range(len(shapes))],
                [rng.standard_normal(s) for s in shapes],
            )
            for _ in range(8)
        ]
        saturated = []
        for n in learner_counts:
            state = init_community(fresh[0])
            weights = rng.uniform(1.0, 100.0, size=n)
            for k in range(n):
                cached_update(state, k, fresh[k % len(fresh)], float(weights[k]))
            saturated.append((n, state, weights))
        # Each repeat visits every learner count in turn, so drift in host
        # speed spreads over all counts instead of lining up with one.
        for rep in range(repeats):
            for n, state, weights in saturated:
                # One untimed commit first: the first call after switching
                # states runs on cold caches, and at ~50 us a call that
                # alone can read as a slope in N.
                cached_update(state, 0, fresh[0], float(weights[0]))
                t0 = time.process_time()
                for i in range(inner):
                    cached_update(
                        state, i % n, fresh[i % len(fresh)],
                        float(weights[i % n]),
                    )
                dt = (time.process_time() - t0) / inner
                rows.append(("cached", n, entries, rep, dt))
        for rep in range(repeats):
            for n, state, _ in saturated:
                # At least three calls per point: one ~10 ms call at
                # N = 1000 reads a stall of the process as the whole point.
                recompute_inner = max(3, 200 // n)
                t0 = time.process_time()
                for _ in range(recompute_inner):
                    models = [rec.model for rec in state.records.values()]
                    values = [rec.value for rec in state.records.values()]
                    params.weighted_average(models, values)
                dt = (time.process_time() - t0) / recompute_inner
                rows.append(("recompute", n, entries, rep, dt))
    fits = fit_bench(rows)
    if out_path:
        lines = ["mode,n_learners,model_entries,repeat,seconds"]
        lines += [
            f"{mode},{n},{entries},{rep},{dt!r}"
            for mode, n, entries, rep, dt in rows
        ]
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return rows, fits


def _three_layer_shapes(entries: int) -> list[tuple[int, ...]]:
    a = entries // 2
    b = entries // 4
    return [(a,), (b,), (entries - a - b,)]


def fit_bench(rows) -> dict:
    """Least-squares seconds-vs-learners line per (mode, model size)."""
    fits: dict = {}
    keys = sorted({(mode, entries) for mode, _, entries, _, _ in rows})
    for mode, entries in keys:
        xs = [n for m, n, e, _, _ in rows if m == mode and e == entries]
        ys = [dt for m, _, e, _, dt in rows if m == mode and e == entries]
        line = stats.linregress(xs, ys)
        fits[(mode, entries)] = {
            "slope": float(line.slope),
            "intercept": float(line.intercept),
            "r_squared": float(line.rvalue) ** 2,
            "slope_pvalue": float(line.pvalue),
        }
    return fits


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=None, help="write the timing table to this CSV file"
    )
    args = parser.parse_args(argv)
    rows, fits = bench_cache(LEARNERS, SIZES, REPEATS, seed=SEED,
                             out_path=args.out)

    print(f"{'mode':>10} {'entries':>8} {'N':>6} {'median s':>10}")
    print("-" * 38)
    for mode, entries in sorted(fits):
        for n in LEARNERS:
            vals = sorted(dt for m, nn, e, _, dt in rows
                          if (m, nn, e) == (mode, n, entries))
            print(f"{mode:>10} {entries:>8} {n:>6} "
                  f"{vals[len(vals) // 2]:>10.5f}")

    print()
    for (mode, entries), fit in sorted(fits.items()):
        print(f"{mode} ({entries} entries): slope={fit['slope']:.3e} "
              f"s/learner, p={fit['slope_pvalue']:.3f}, "
              f"R^2={fit['r_squared']:.3f}")

    print()
    for entries in SIZES:
        cached = fits[("cached", entries)]
        recompute = fits[("recompute", entries)]
        flat = cached["slope_pvalue"] > 0.05
        print(f"cached ({entries} entries): slope "
              + ("indistinguishable from zero, cost independent of N"
                 if flat else "differs from zero (p <= 0.05)"))
        linear = recompute["r_squared"] >= 0.9
        print(f"recompute ({entries} entries): time "
              + ("grows linearly in N as expected"
                 if linear else "fits a line poorly (R^2 < 0.9)"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
