"""Count the gradient kernel calls of the benchmark's workloads.

Runs each workload of ``perfbench/workloads.py`` once through ``fedsim run``
at its default seed, in this process, with a counting wrapper on the
gradient kernel the engine calls (``fedsim.engine.stacked_grad``), and
prints per workload the kernel calls, the learner-steps they trained and
the learner-steps per call. The counts depend on the code and the seed
only, not on the host, so they show how well local training shares its
kernel calls where wall time is too noisy to.

    python tools/kernel_calls.py [WORKLOAD ...]

prints every workload when none is named.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

_ROOT = Path(__file__).resolve().parent.parent
_WORKLOADS = _ROOT / "perfbench" / "workloads.py"
# The checkout's package comes first, as the test suite's pythonpath puts
# it, so the script runs from a plain checkout.
sys.path.insert(0, str(_ROOT / "src"))


def load_workloads():
    """The ``perfbench/workloads.py`` module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def kernel_calls(config_text: str) -> tuple[int, int]:
    """(kernel calls, learner-steps) of one ``fedsim run`` of
    ``config_text``; raises RuntimeError when the run fails."""
    from fedsim import cli, engine

    calls = steps = 0
    kernel = engine.stacked_grad

    def counting(model, layers, X, y, grads):
        nonlocal calls, steps
        calls += 1
        steps += len(y)
        return kernel(model, layers, X, y, grads)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config_text)
        with mock.patch.object(engine, "stacked_grad", counting):
            code = cli.main(["run", path, "--out", os.path.join(tmp, "out")])
    if code != 0:
        raise RuntimeError(f"fedsim run exited {code}")
    return calls, steps


def main(argv: list[str]) -> int:
    workloads = load_workloads()
    names = argv or list(workloads.WORKLOADS)
    print(f"{'workload':<14} {'calls':>7} {'learner-steps':>14} {'per call':>9}")
    for name in names:
        calls, steps = kernel_calls(workloads.config_text(name))
        print(f"{name:<14} {calls:7d} {steps:14d} {steps / calls:9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
