"""The benchmark's workloads: fedsim configs, smoke sizes and pinned digests.

Each workload is a complete ``fedsim run`` config. The experiment seed comes
from the benchmark's ``--seed`` and reaches the program as ``fedsim run
--seed``; the configs below only record the default.

Why these three:

* ``semisync_mlp``: two barrier rounds with a 10x per-batch latency skew
  between fast and slow learners; almost all host time is local training.
  It never touches the aggregation cache and evaluates once per round, so
  controller or ``evaluate`` work should leave it unchanged.
* ``async_fedrec``: the same world, free-running commits through the cache
  and an evaluation after every timestamp group on a small model; this is
  where ``evaluate`` cost shows.
* ``async_wide``: many learners, a 51,300-parameter model and one local step
  per commit, so the O(model) cache and fetch take a large share of host
  time and output is large (the write-heavy case).

``sync`` shares the barrier loop with ``semisync`` and ``fedasync_poly`` /
``fedprox`` exercise no layer the three above leave unmeasured, so they are
left out.

The sizes (200 samples per class, 2 rounds, 10 s and 0.2 s of virtual
time) keep one run to 0.3-0.6 s of host time on a quiet 2-core Xeon VM.
Short runs are what make the benchmark steady on a shared host: the
fastest of many short runs lands in a stretch without interference far
more often than the fastest of a few long ones. At seed 11 they make
2,059 / 1,540 / 300 local steps.
"""

from __future__ import annotations

DEFAULT_SEED = 11

_MLP_WORLD = {
    "task": {
        "kind": "mlp1",
        "input_dim": "32",
        "hidden_dim": "64",
        "num_classes": "10",
        "per_class": "200",
        "test_per_class": "50",
    },
    "partition": {
        "size_dist": "powerlaw",
        "class_dist": "non_iid",
        "classes_per_learner": "3",
    },
    "learners": {
        "num_fast": "5",
        "num_slow": "5",
        "t_beta_fast_ms": "30",
        "t_beta_slow_ms": "300",
        "batch_size": "20",
    },
    "optimizer": {"kind": "momentum", "eta": "0.05", "gamma": "0.75"},
}

WORKLOADS = {
    "semisync_mlp": {
        **_MLP_WORLD,
        "protocol": {"policy": "semisync", "lambda": "2", "rounds": "2"},
    },
    "async_fedrec": {
        **_MLP_WORLD,
        "protocol": {"policy": "async", "epochs": "4",
                     "time_budget_ms": "10000"},
        "weighting": {"scheme": "fedrec_staleness"},
    },
    "async_wide": {
        "task": {
            "kind": "softmax_regression",
            "input_dim": "512",
            "num_classes": "100",
            "per_class": "20",
            "test_per_class": "5",
        },
        "partition": {
            "size_dist": "uniform",
            "class_dist": "non_iid",
            "classes_per_learner": "10",
        },
        "learners": {
            "num_fast": "50",
            "num_slow": "50",
            "t_beta_fast_ms": "30",
            "t_beta_slow_ms": "300",
            "batch_size": "20",
        },
        "protocol": {"policy": "async", "epochs": "1",
                     "time_budget_ms": "200"},
        "optimizer": {"kind": "vanilla", "eta": "0.05"},
        "weighting": {"scheme": "fedrec_staleness"},
    },
}

# Reduced sizes for the harness smoke check: same layers, a second or less.
SMOKE = {
    "semisync_mlp": {"task": {"per_class": "50"}, "protocol": {"rounds": "1"}},
    "async_fedrec": {"task": {"per_class": "50"},
                     "protocol": {"time_budget_ms": "5000"}},
    "async_wide": {"protocol": {"time_budget_ms": "100"}},
}

# The frozen baseline copy's (baseline/fedsim_base) run_s, cpu_s and
# setup_s on a quiet 2-core Xeon VM (fastest of many runs). run.py reports
# the checkout's times as its ratio to the baseline, measured run by run in
# the same invocation, times these; they set the scale, not the ratio.
BASELINE_QUIET = {
    "semisync_mlp": {"run_s": 0.28, "cpu_s": 0.28, "setup_s": 0.80},
    "async_fedrec": {"run_s": 0.30, "cpu_s": 0.30, "setup_s": 0.80},
    "async_wide": {"run_s": 0.38, "cpu_s": 0.38, "setup_s": 0.80},
}

# sha256 over every file ``fedsim run`` writes (see run.py: tree_digest) at
# DEFAULT_SEED. Change one only for an intended behaviour change.
GOLDEN = {
    "semisync_mlp":
        "f4150addd693d8d37b07d4be132562fcb0cd38f6cf280289009a97ed245e0c76",
    "async_fedrec":
        "4491cf84e4d5c1c5c808ce74f55ca66cee72c9a4fc060e1e284ff7d68e2b2131",
    "async_wide":
        "59b464b288433b7201112e0d91cd845082c9499c2eaf8cb7d40a83c876a5f333",
}


def config_text(name: str, smoke: bool = False) -> str:
    """Render workload ``name`` as a fedsim INI config."""
    sections = {s: dict(kv) for s, kv in WORKLOADS[name].items()}
    if smoke:
        for section, kv in SMOKE[name].items():
            sections[section].update(kv)
    sections = {
        "experiment": {"seed": str(DEFAULT_SEED), "output": "runs/perfbench"},
        **sections,
    }
    lines = []
    for section, kv in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in kv.items()]
    return "\n".join(lines) + "\n"
