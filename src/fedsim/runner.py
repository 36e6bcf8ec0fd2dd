"""Experiment assembly: config in, metrics files out.

Turns a parsed :class:`ExperimentConfig` into datasets, partitions, learner
profiles and a protocol run, then writes every artifact needed to reproduce
and inspect the run: each file a cell or a run writes is written here, the
run's log files by :func:`export_metrics`. Also hosts the aggregation-cost
microbenchmark behind the ``bench-cache`` CLI subcommand.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import params
from .config import ConfigError, ExperimentConfig, cell_name
from .controller import init_community, cached_update, snapshot
from .engine import LearnerProfile, MetricsLog, run_policy
from .params import ParamSet
from .partition import assign_classes, assign_to_devices, make_sizes
from .tasks import gen_synthetic, init_params

OUTPUT_ROOT_ENV = "FEDSIM_OUTPUT_ROOT"

# Every file a cell directory can hold. A cell moving into place removes
# the ones it did not write, so no earlier run's file outlives a rerun.
CELL_FILES = (
    "config.txt", "partition_report.json", "metrics.csv", "idle.csv",
    "events.jsonl", "contributions.csv", "summary.json",
    "controller_snapshot.json", "final_model.json",
)

# Seed-stream tag for model initialization (dataset generation uses 0..2,
# per-assignment batch shuffles use 3).
_INIT_STREAM = 4


def resolve_out_dir(configured: str, override: str | None = None) -> str:
    """Apply the --out override and the output-root environment variable;
    an empty result is a :class:`ConfigError`."""
    out = configured if override is None else override
    root = os.environ.get(OUTPUT_ROOT_ENV, "")
    if root and not os.path.isabs(out):
        out = os.path.join(root, out)
    if not out:
        raise ConfigError(["the output path is empty: set [experiment] "
                           "output or pass --out"])
    return out


def build_world(cfg: ExperimentConfig, seed: int):
    """Train and test sets, the partition and the learner profiles (each
    with its device class) for a run."""
    train = gen_synthetic(
        cfg.task.num_classes, cfg.per_class, cfg.task.input_dim,
        cfg.cluster_spread, seed, sample_tag=0,
    )
    test = gen_synthetic(
        cfg.task.num_classes, cfg.test_per_class, cfg.task.input_dim,
        cfg.cluster_spread, seed, sample_tag=1,
    )
    sizes = make_sizes(cfg.partition, len(train))
    result = assign_classes(cfg.partition, sizes, train)
    device_order = ["fast"] * cfg.num_fast + ["slow"] * cfg.num_slow
    devices = assign_to_devices(result, device_order)
    latency = {"fast": cfg.t_beta_fast_ms, "slow": cfg.t_beta_slow_ms}
    profiles = [
        LearnerProfile(
            learner_id=k,
            device_class=devices[k],
            batch_size=cfg.batch_size,
            time_per_batch_ms=latency[devices[k]],
            indices=result.indices[k],
        )
        for k in range(cfg.num_learners)
    ]
    return train, test, result, profiles


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def export_metrics(log: MetricsLog, out_dir: str) -> None:
    """Write every file of the run's log into ``out_dir``.

    Output is formatted so identical logs serialize to identical bytes:
    metrics.csv (one row per evaluation), idle.csv (per learner and round),
    events.jsonl (the ordered event stream), contributions.csv,
    summary.json, controller_snapshot.json (when the run kept a controller
    state) and final_model.json (when it holds a model).
    """
    os.makedirs(out_dir, exist_ok=True)

    def path(name: str) -> str:
        return os.path.join(out_dir, name)

    lines = ["virtual_ms,update_requests,round,accuracy,loss"]
    for ev in log.evals:
        lines.append(
            f"{ev.t_us / 1000.0:.3f},{ev.update_requests},{ev.round_index},"
            f"{ev.accuracy!r},{ev.loss!r}"
        )
    _write_text(path("metrics.csv"), "\n".join(lines) + "\n")

    lines = ["learner_id,round,active_ms,idle_ms"]
    for lid, r, active_us, idle_us in log.utilization:
        lines.append(
            f"{lid},{r},{active_us / 1000.0:.3f},{idle_us / 1000.0:.3f}"
        )
    _write_text(path("idle.csv"), "\n".join(lines) + "\n")

    # The text json.dumps(..., sort_keys=True) gives, without its per-call
    # cost: keys in sorted order, float repr for the time.
    lines = [
        f'{{"kind": "{kind}", "learner": {lid}, "virtual_ms": {t / 1000.0!r}}}'
        for t, kind, lid in log.sorted_events()
    ]
    _write_text(path("events.jsonl"), "\n".join(lines) + "\n")

    lines = ["virtual_ms,learner_id,weight"]
    for t, lid, value in log.contributions:
        lines.append(f"{t / 1000.0:.3f},{lid},{value!r}")
    _write_text(path("contributions.csv"), "\n".join(lines) + "\n")

    summary = {
        "schema_version": 1,
        "policy": log.policy,
        "seed": log.seed,
        "update_requests": log.update_requests,
        "models_exchanged": log.models_exchanged,
        "federation_rounds": log.federation_rounds,
        "evaluations": len(log.evals),
        "final_accuracy": log.evals[-1].accuracy if log.evals else None,
        "final_loss": log.evals[-1].loss if log.evals else None,
        # The last group is always evaluated and no event is later than its
        # close; a run with no group has only its t = 0 fetches.
        "total_virtual_ms": log.evals[-1].t_us / 1000.0 if log.evals else 0.0,
    }
    if log.schedule is not None:
        summary["schedule"] = {
            "t_max_ms": log.schedule.t_max_us / 1000.0,
            "batches": {str(k): v for k, v in sorted(log.schedule.batches.items())},
        }
    _write_json(path("summary.json"), summary)
    if log.final_state is not None:
        _write_json(path("controller_snapshot.json"), snapshot(log.final_state))
    if log.final_model is not None:
        # Compact JSON holds no newline, so the text mode changes no byte.
        text = json.dumps(params.to_obj(log.final_model))
        _write_text(path("final_model.json"), text)


def run_experiment(
    cfg: ExperimentConfig,
    out_override: str | None = None,
    seed_override: int | None = None,
    partitions_only: bool = False,
) -> int:
    """Run every requested cell; returns 0 iff all of them completed.

    A semisync lambda list fans out into one output directory per value
    (matrix mode); otherwise the run writes directly into the output
    directory. Each cell directory contains the byte-exact config echo, the
    partition report and the run's log files (:func:`export_metrics`); a
    cell's files replace every :data:`CELL_FILES` entry of an earlier run
    in its directory. A cell that fails writes no file and ends the run;
    ``manifest.json`` is written last, once every cell has completed.
    """
    seed = cfg.seed if seed_override is None else seed_override
    base = resolve_out_dir(cfg.out_dir, out_override)
    train, test, result, profiles = build_world(cfg, seed)

    matrix = cfg.protocol.policy == "semisync" and len(cfg.lambda_values) > 1
    cells = (
        [(cell_name(lam), lam) for lam in cfg.lambda_values]
        if matrix
        else [("", cfg.lambda_values[0])]
    )

    report = result.to_obj(train)
    for entry, p in zip(report["learners"], profiles):
        entry["device_class"] = p.device_class

    completed = []
    for cell, lam in cells:
        out_dir = os.path.join(base, cell) if cell else base
        try:
            # Every file is built in a temp directory and moved into the
            # cell only once all of them exist, so a failed cell writes none.
            os.makedirs(base, exist_ok=True)
            with tempfile.TemporaryDirectory(prefix=".cell-", dir=base) as tmp:
                _write_text(os.path.join(tmp, "config.txt"), cfg.source_text)
                _write_json(os.path.join(tmp, "partition_report.json"), report)
                if not partitions_only:
                    initial = init_params(
                        cfg.task, np.random.default_rng([seed, _INIT_STREAM])
                    )
                    protocol = dataclasses.replace(cfg.protocol, lam=lam)
                    log = run_policy(
                        protocol, profiles, cfg.task, train, test, initial, seed
                    )
                    export_metrics(log, tmp)
                os.makedirs(out_dir, exist_ok=True)
                written = os.listdir(tmp)
                for name in set(CELL_FILES).difference(written):
                    stale = os.path.join(out_dir, name)
                    if os.path.isfile(stale):
                        os.remove(stale)
                for name in written:
                    os.replace(
                        os.path.join(tmp, name), os.path.join(out_dir, name)
                    )
            completed.append(cell or ".")
        except Exception as exc:
            print(
                json.dumps(
                    {"error": type(exc).__name__, "cell": cell or ".",
                     "detail": str(exc)},
                    sort_keys=True,
                ),
                file=sys.stderr,
            )
            return 1
    manifest = {
        "schema_version": 1,
        "seed": seed,
        "policy": cfg.protocol.policy,
        "cells": completed,
        "partitions_only": partitions_only,
    }
    _write_json(os.path.join(base, "manifest.json"), manifest)
    return 0


def bench_cache(
    learner_counts=(10, 100, 1000),
    model_entries=(10_000,),
    repeats: int = 5,
    inner: int = 20,
    seed: int = 7,
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
                cached_update(
                    state, k, fresh[k % len(fresh)], float(weights[k]), 1, 0
                )
            saturated.append((n, state, weights))
        # Each repeat visits every learner count in turn, so drift in host
        # speed spreads over all counts instead of lining up with one.
        for rep in range(repeats):
            for n, state, weights in saturated:
                # One untimed commit first: the first call after switching
                # states runs on cold caches, and at ~50 us a call that
                # alone can read as a slope in N.
                cached_update(state, 0, fresh[0], float(weights[0]), 1, 0)
                t0 = time.process_time()
                for i in range(inner):
                    cached_update(
                        state, i % n, fresh[i % len(fresh)],
                        float(weights[i % n]), 1, 0,
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
        _write_text(out_path, "\n".join(lines) + "\n")
    return rows, fits


def _three_layer_shapes(entries: int) -> list[tuple[int, ...]]:
    a = entries // 2
    b = entries // 4
    return [(a,), (b,), (entries - a - b,)]


def fit_bench(rows) -> dict:
    """Least-squares seconds-vs-learners line per (mode, model size)."""
    # Imported here: scipy is most of the package's import time, and only
    # the benchmark fit needs it.
    from scipy import stats

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
