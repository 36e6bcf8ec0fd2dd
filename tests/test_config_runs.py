"""A config that parses runs: the CLI contract over configs drawn from
``config.SCHEMA``.

Every key is drawn from its parser's domain and its boundary values, and
one config in four gets one key just outside its domain. Worlds stay small
(at most 4 classes of 6 examples, 4 learners, 2 rounds). Latencies are one
base value and a skew of at most 10, and the async budget is a small
multiple of the slower latency: the work a run asks for grows with both
ratios, not with any one key's domain.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fedsim.cli import main
from fedsim.config import SCHEMA
from fedsim.controller import WEIGHTING_KINDS
from fedsim.engine import POLICIES
from fedsim.optimizers import OPTIMIZER_KINDS
from fedsim.partition import CLASS_DISTS, SIZE_DISTS
from fedsim.tasks import ACTIVATIONS, TASK_KINDS
from oracles import digest_tree


def ints(low, high):
    """Integer text in [low, high], and low - 1, just outside."""
    return st.integers(low, high).map(str), [str(low - 1)]


def choices(options):
    return st.sampled_from(options), ["none"]


def texts(valid, invalid):
    return st.sampled_from(valid), invalid


# (section, key) -> (strategy of valid text, texts its parser rejects).
# configs() redraws the keys whose valid range depends on other keys.
KEYS = {
    ("experiment", "seed"): texts(["0", "7", str(2**64)], ["-1"]),
    ("experiment", "output"): texts(["runs/x", ""], []),
    ("task", "kind"): choices(TASK_KINDS),
    ("task", "input_dim"): ints(1, 3),
    ("task", "num_classes"): ints(2, 4),
    ("task", "hidden_dim"): ints(1, 3),
    ("task", "activation"): choices(ACTIVATIONS),
    ("task", "per_class"): ints(1, 6),
    ("task", "test_per_class"): ints(1, 3),
    ("task", "cluster_spread"): texts(
        ["0", "-0.0", "5e-324", "1.5", "1e300"], ["-5e-324", "nan", "inf"]),
    ("partition", "size_dist"): choices(SIZE_DISTS),
    ("partition", "class_dist"): choices(CLASS_DISTS),
    ("partition", "classes_per_learner"): ints(0, 3),
    ("partition", "ratio"): texts(["1.0000000000000002", "1.3", "50"], ["1"]),
    ("partition", "exponent"): texts(["5e-324", "1.5", "50"], ["0"]),
    ("partition", "class_count_override"): texts([""], ["x", "1, 1, 1, 1, 1"]),
    ("learners", "num_fast"): ints(0, 2),
    ("learners", "num_slow"): ints(0, 2),
    # The smallest latency the clock counts (0.5 us, rounded half up) and
    # the largest whose microsecond count is still a finite float.
    ("learners", "t_beta_fast_ms"): texts(
        ["0.0005", "0.03", "300", "1.7976931348623157e305"],
        ["0.00049", "inf"]),
    ("learners", "t_beta_slow_ms"): texts(["0.0005"], ["0"]),  # redrawn
    ("learners", "batch_size"): ints(1, 4),
    ("protocol", "policy"): choices(POLICIES),
    ("protocol", "epochs"): ints(1, 2),
    ("protocol", "lambda"): texts(["5e-324", "0.5", "1", "2"],
                                  ["0", "", "1, 1.0"]),
    ("protocol", "rounds"): ints(1, 2),
    ("protocol", "time_budget_ms"): texts(["0.0004"], ["0"]),  # redrawn
    ("protocol", "eval_every"): ints(1, 3),
    ("optimizer", "kind"): choices(OPTIMIZER_KINDS),
    ("optimizer", "eta"): texts(["5e-324", "0.05", "1e300"], ["0"]),
    ("optimizer", "gamma"): texts(["0", "-0.0", "0.75", "0.9999999999999999"],
                                  ["1", "-5e-324"]),
    ("optimizer", "mu"): texts(["0", "0.001", "1e300"], ["-1"]),
    ("weighting", "scheme"): choices(WEIGHTING_KINDS),
    ("weighting", "mixing"): texts(["5e-324", "0.5", "1"],
                                   ["0", "1.0000000000000002"]),
    ("weighting", "rho"): texts(["0", "0.005", "1e300"], ["-1"]),
    ("weighting", "staleness_adaptive"): texts(["true", "off"], ["maybe"]),
}


def test_every_schema_key_is_drawn():
    assert set(KEYS) == {(s, k) for s, keys in SCHEMA.items() for k in keys}


@st.composite
def configs(draw, policy, scheme):
    values = {key: draw(valid) for key, (valid, _) in KEYS.items()}
    values["protocol", "policy"] = policy
    values["weighting", "scheme"] = scheme
    fast, slow = draw(st.sampled_from([(0, 1), (1, 0), (1, 1), (2, 1),
                                       (1, 2), (2, 2)]))
    values["learners", "num_fast"] = str(fast)
    values["learners", "num_slow"] = str(slow)
    if values["partition", "class_dist"] == "non_iid":
        values["partition", "classes_per_learner"] = draw(ints(1, 3)[0])
    if values["protocol", "policy"] == "semisync":  # matrix mode
        values["protocol", "lambda"] = ", ".join(draw(st.lists(
            KEYS["protocol", "lambda"][0], min_size=1, max_size=2,
            unique=True)))
    if draw(st.booleans()):  # one quota per learner
        values["partition", "class_count_override"] = ", ".join(
            draw(st.lists(ints(1, 3)[0], min_size=fast + slow,
                          max_size=fast + slow)))
    # One latency and a skew of at most 10 either way, and an async budget
    # of a few assignments: the work a run asks for grows with both ratios.
    latency = float(values["learners", "t_beta_fast_ms"])
    wide = latency * 200 < 1e305  # room for the skew and the budget factor
    other = repr(latency * draw(st.sampled_from([1, 2, 10] if wide else [1])))
    key = draw(st.sampled_from(["t_beta_fast_ms", "t_beta_slow_ms"]))
    values["learners", key] = other
    values["learners", "t_beta_slow_ms" if key == "t_beta_fast_ms"
           else "t_beta_fast_ms"] = repr(latency)
    factor = draw(st.sampled_from([0.4, 1, 3, 20] if wide else [0.4, 1]))
    values["protocol", "time_budget_ms"] = repr(factor * float(other))
    if draw(st.sampled_from([False, False, False, True])):
        # One key just outside its domain.
        key = draw(st.sampled_from([k for k, (_, bad) in KEYS.items() if bad]))
        values[key] = draw(st.sampled_from(KEYS[key][1]))
    lines = []
    for section in SCHEMA:
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for (s, k), v in values.items() if s == section]
    return "\n".join(lines) + "\n"


def run_cli(config_path, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), np.errstate(all="ignore"):
        code = main(["run", config_path, "--out", out])
    return code, err.getvalue()


CELL_FILES = {"config.txt", "partition_report.json", "metrics.csv",
              "idle.csv", "events.jsonl", "contributions.csv", "summary.json",
              "final_model.json"}


def listing(root):
    return sorted(
        os.path.relpath(os.path.join(d, f), root)
        for d, _, files in os.walk(root) for f in files
    ) if os.path.exists(root) else None


# Each policy, and each weighting the async commit path branches on, gets
# its own examples: hypothesis tries the first choice of a key most.
@pytest.mark.parametrize("policy, scheme", [
    ("sync", "fedavg_static"), ("semisync", "fedrec_staleness"),
    *(("async", kind) for kind in WEIGHTING_KINDS),
])
@settings(max_examples=16, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_config_that_parses_runs(policy, scheme, data):
    text = data.draw(configs(policy, scheme), label="config")
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "run.ini")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        outs = [os.path.join(tmp, "a"), os.path.join(tmp, "b")]
        (code, err), again = [run_cli(config_path, out) for out in outs]
        assert again == (code, err)  # a rerun fails or succeeds alike
        assert digest_tree(outs[0]) == digest_tree(outs[1])
        files = listing(outs[0])
        if code == 0:
            with open(os.path.join(outs[0], "manifest.json")) as fh:
                cells = json.load(fh)["cells"]
            per_cell = CELL_FILES | (
                {"controller_snapshot.json"} if "policy = async" in text
                else set())
            assert files == sorted({"manifest.json"} | {
                os.path.normpath(os.path.join(cell, name))
                for cell in cells for name in per_cell})
        elif code == 2:
            assert err.strip()
            assert files is None
        else:
            assert code == 1
            failure = json.loads(err)
            assert failure["error"] == "NonFiniteError" or (
                failure["error"] == "ValueError"
                and ("past the float range" in failure["detail"]
                     or "overflows the microsecond clock" in failure["detail"])
            ), failure
            assert "manifest.json" not in files
            cell = failure["cell"]
            assert not [f for f in files
                        if cell == "." or f.startswith(cell + os.sep)]
