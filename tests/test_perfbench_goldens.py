"""Each perfbench workload, run as perfbench runs it, still writes the
outputs its pinned digest names.

perfbench refuses a run whose output tree misses ``workloads.GOLDEN``; this
test checks the same digest in the suite, so a refactor that changes any
benchmark output fails here first. The workloads, the run function, the
digest function and the pins are perfbench's own, imported unchanged from
``perfbench/``; the run goes through ``child.run_once``, which reads
``parse_config``, ``build_world`` and ``init_params`` from the package root
before it calls ``fedsim run``, so a root that loses one of them fails too.
"""

import importlib.util
import os
import sys

import pytest

from fedsim.config import OUTPUT_ROOT_ENV

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(PERFBENCH, filename)
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# run.py imports the workload table as ``workloads``.
workloads = _load("workloads", "workloads.py")
perfbench_run = _load("perfbench_run", "run.py")
child = _load("perfbench_child", "child.py")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)
    config = tmp_path / "config.ini"
    config.write_text(workloads.config_text(name), encoding="utf-8")
    out = tmp_path / "out"
    result = child.run_once(str(config), str(out), workloads.DEFAULT_SEED)
    assert result["rc"] == 0
    assert perfbench_run.tree_digest(str(out)) == workloads.GOLDEN[name]
