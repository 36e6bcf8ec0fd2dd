"""Host-independent counts of the benchmark's gradient kernel calls and
training pool steps.

Wall time on a shared host is too noisy to guard a kernel-sharing gain in
the suite; the call counts are not. ``tools/kernel_calls.py`` runs a
perfbench workload's config through ``fedsim run`` at its default seed
with counting wrappers on ``fedsim.engine.stacked_grad`` and
``fedsim.optimizers.TrainingPool.step``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import load_tool

TOOL = Path(__file__).resolve().parent.parent / "tools" / "kernel_calls.py"


# workload -> (learner-steps, most kernel calls, fewest kernel calls, pool
# steps). The learner-steps are the workload's own; async_fedrec's
# learners train in one pool across arrival groups (1,043 calls when each
# group trained as its own lockstep cohort), semisync_mlp's barrier rounds
# are already one lockstep cohort each, and async_wide's 100 learners
# train one step each, alone, in a pool of one.
EXPECTED = {
    "async_fedrec": (1540, 600, 1, 320),
    "async_wide": (300, 300, 300, 300),
    "semisync_mlp": (2059, 712, 712, 397),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_workload_kernel_calls(name):
    tool = load_tool("kernel_calls")
    workloads = tool.load_workloads()
    assert workloads.DEFAULT_SEED == 11
    calls, steps, pool_steps = tool.kernel_calls(workloads.config_text(name))
    learner_steps, most, fewest, expected_pool_steps = EXPECTED[name]
    assert steps == learner_steps
    assert fewest <= calls <= most
    assert pool_steps == expected_pool_steps


def test_tool_runs_from_a_plain_checkout(tmp_path):
    # With no PYTHONPATH, run from elsewhere, the script still finds the
    # checkout's package, whether or not fedsim is installed.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(TOOL), "async_wide"],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    (row,) = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert row[0] == "async_wide" and row[1:3] == ["300", "300"]
    assert row[4] == "300"  # pool steps
