"""Experiment assembly: config in, metrics files out.

Turns a parsed :class:`ExperimentConfig` into datasets, partitions, learner
profiles and a protocol run, then writes every artifact needed to reproduce
and inspect the run. Each file a cell or a run writes is built and written
here, its format included: the run's log files by :func:`export_metrics`,
mostly as views of the log's one record per assignment, and the config
echo, partition report and manifest by :func:`run_experiment`. The
simulation modules hold state only and write nothing.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

import numpy as np

from .config import ExperimentConfig
from .engine import LearnerProfile, MetricsLog, run_policy
from .partition import (
    PartitionError, assign_classes, assign_to_devices, make_sizes,
)
from .tasks import gen_synthetic, init_params

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

# Line order of events.jsonl within one virtual time, then by learner: an
# async learner's refetch comes before its own commit at the same instant.
_EVENT_RANK = {kind: rank for rank, kind in enumerate((
    "fetch", "train_start", "train_end", "update_request",
    "community_commit", "eval"))}


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
    metrics.csv (one row per evaluation), summary.json,
    controller_snapshot.json (when the run kept a controller state) and
    final_model.json (when it holds a model). idle.csv and
    contributions.csv (one row per committed assignment) and events.jsonl
    (the ordered event stream) are views of the log's assignment records,
    as are the snapshot's per-learner steps and fetch version, taken from
    each learner's last commit, and its ``version`` and ``committed_steps``:
    the number of commits and, when the state keeps records, their steps.
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
    for a in log.assignments:
        lines.append(f"{a.learner},{a.index},"
                     f"{(a.arrival_us - a.fetch_us) / 1000.0:.3f},"
                     f"{(a.commit_us - a.arrival_us) / 1000.0:.3f}")
    _write_text(path("idle.csv"), "\n".join(lines) + "\n")

    # Each assignment's events; a barrier group's commits are one server
    # line (learner -1), which the set keeps once since groups close at
    # distinct times.
    events = {(ev.t_us, "eval", -1) for ev in log.evals}
    for a in log.assignments + log.in_flight:
        events.add((a.fetch_us, "fetch", a.learner))
        events.add((a.fetch_us, "train_start", a.learner))
    for a in log.assignments:
        events.add((a.arrival_us, "train_end", a.learner))
        events.add((a.arrival_us, "update_request", a.learner))
        events.add((a.commit_us, "community_commit",
                    a.learner if log.policy == "async" else -1))
    # The text json.dumps(..., sort_keys=True) gives, without its per-call
    # cost: keys in sorted order, float repr for the time.
    lines = [
        f'{{"kind": "{kind}", "learner": {lid}, "virtual_ms": {t / 1000.0!r}}}'
        for t, kind, lid in sorted(
            events, key=lambda e: (e[0], _EVENT_RANK[e[1]], e[2]))
    ]
    _write_text(path("events.jsonl"), "\n".join(lines) + "\n")

    lines = ["virtual_ms,learner_id,weight"]
    for a in log.assignments:
        lines.append(f"{a.commit_us / 1000.0:.3f},{a.learner},{a.weight!r}")
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
    state = log.final_state
    if state is not None:
        last = {a.learner: a for a in log.assignments}
        _write_json(path("controller_snapshot.json"), {
            "format_version": 1,
            # fedasync_poly keeps no records, and its snapshot counts no
            # steps.
            "version": len(log.assignments),
            "committed_steps": (sum(a.steps for a in log.assignments)
                                if state.records else 0),
            "normalizer": state.normalizer,
            "learners": {
                # The key says steps but the value is the fetch version
                # (ROADMAP item 6).
                str(k): {"value": rec.value, "local_steps": last[k].steps,
                         "fetch_steps": last[k].fetch_version}
                for k, rec in sorted(state.records.items())
            },
        })
    if log.final_model is not None:
        # A layer-name header and each layer's flat data. Compact JSON
        # holds no newline, so the text mode changes no byte.
        layers = [
            {"name": n, "shape": list(a.shape), "data": a.ravel().tolist()}
            for n, a in log.final_model
        ]
        text = json.dumps({"format_version": 1, "layers": layers})
        _write_text(path("final_model.json"), text)


def run_experiment(cfg: ExperimentConfig, partitions_only: bool = False) -> int:
    """Run every cell of ``cfg.cells`` at ``cfg.seed``; returns 0 iff all
    of them completed.

    A cell named ``""`` writes directly into ``cfg.out_dir``, and a named
    one (a semisync lambda list's) into its directory under it. Each cell
    directory contains the byte-exact config echo, the partition report and
    the run's log files (:func:`export_metrics`); a cell's files replace
    every :data:`CELL_FILES` entry of an earlier run in its directory, and a
    named cell also removes those an earlier single-cell run left in the
    output directory. ``manifest.json`` is written last, once every cell
    has completed.

    A world that cannot be built, or a cell that fails, writes no file and
    ends the run: one JSON line on stderr names the error and the cell
    (``"."`` for the world or the unnamed cell), and the run returns 1. A
    :class:`PartitionError`, a config that asks for a partition the dataset
    cannot realize, propagates instead, for the caller to report as a
    config fault.
    """
    seed, base = cfg.seed, cfg.out_dir
    completed, cell = [], ""
    try:
        train, test, result, profiles = build_world(cfg, seed)
        learners = []
        for p, owned in zip(profiles, result.owned_classes):
            hist = np.unique(train.labels[p.indices], return_counts=True)
            learners.append({
                "learner_id": p.learner_id, "size": p.data_size,
                "owned_classes": list(owned), "device_class": p.device_class,
                "class_histogram": {str(c): int(n) for c, n in zip(*hist)},
            })
        report = {"format_version": 1, "learners": learners}

        for cell, lam in cfg.cells:
            out_dir = os.path.join(base, cell) if cell else base
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
                stale = [os.path.join(out_dir, name)
                         for name in set(CELL_FILES).difference(written)]
                if cell:  # a single-cell run wrote its files into the base
                    stale += [os.path.join(base, name) for name in CELL_FILES]
                for path in stale:
                    if os.path.isfile(path):
                        os.remove(path)
                for name in written:
                    os.replace(
                        os.path.join(tmp, name), os.path.join(out_dir, name)
                    )
            completed.append(cell or ".")
    except PartitionError:
        raise
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
