"""``src/`` keeps only what ``fedsim run`` executes.

A fresh interpreter sets a profile hook before ``import fedsim``, then runs
the CLI on a few tiny configs that between them reach every policy, task,
partition, optimizer and weighting scheme, one seed override, one
partition report and one invalid config. Every ``def`` under
``src/fedsim`` must have been entered: a function only tests call belongs
in the tests (``tests/oracles.py``), not in the package.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedsim

PACKAGE = Path(fedsim.__file__).resolve().parent

COMMON = {
    "task": {"input_dim": 3, "num_classes": 3, "hidden_dim": 4,
             "per_class": 6, "test_per_class": 2},
    "learners": {"num_fast": 2, "num_slow": 1, "t_beta_fast_ms": 1,
                 "t_beta_slow_ms": 3, "batch_size": 4},
}
ASYNC = {"policy": "async", "time_budget_ms": 20, "epochs": 1}

# (keys over COMMON's, extra CLI arguments, exit code) of each run.
RUNS = [
    ({"task": {"kind": "softmax_regression"},
      "protocol": {"policy": "sync", "rounds": 2, "epochs": 1}},
     ["--seed", "3"], 0),
    ({"task": {"kind": "mlp1", "activation": "relu"},
      "partition": {"size_dist": "powerlaw", "class_dist": "non_iid",
                    "classes_per_learner": 2},
      "protocol": {"policy": "semisync", "lambda": "1, 2", "rounds": 2},
      "optimizer": {"kind": "momentum"}}, [], 0),
    ({"task": {"kind": "mlp1", "activation": "tanh"},
      "partition": {"size_dist": "skewed"},
      "protocol": ASYNC, "optimizer": {"kind": "fedprox"},
      "weighting": {"scheme": "fedrec_staleness"}}, [], 0),
    ({"protocol": ASYNC, "weighting": {"scheme": "fedasync_poly"}}, [], 0),
    ({}, ["--report-partitions-only"], 0),
    ({"protocol": {"policy": "nope"}}, [], 2),
]

# Records (file, first line) of every Python function the CLI calls enter.
CHILD = r"""
import json, sys

entered = set()


def note(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(note)
import fedsim
from fedsim.cli import main

argvs, out_path = json.loads(sys.argv[1]), sys.argv[2]
codes = [main(argv) for argv in argvs]
sys.setprofile(None)
with open(out_path, "w") as fh:
    json.dump({"codes": codes, "entered": sorted(entered)}, fh)
"""


def unentered_defs(sources, entered):
    """(path, first line, name) of each ``def`` in ``sources``, a map of
    path to source text, whose (path, first line) is not in ``entered``.
    A decorated def starts at its first decorator, as its code object's
    first line does."""
    missing = []
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                if (path, first) not in entered:
                    missing.append((path, first, node.name))
    return missing


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    work = tmp_path_factory.mktemp("every-def")
    argvs = []
    for i, (body, extra, _) in enumerate(RUNS):
        config = work / f"c{i}.ini"
        sections = {name: {**COMMON.get(name, {}), **body.get(name, {})}
                    for name in {**COMMON, **body}}
        config.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in sections.items()))
        argvs.append(["run", str(config), "--out", str(work / f"out{i}"),
                      *extra])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p
    )
    out_path = work / "entered.json"
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs), str(out_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(out_path.read_text())
    assert result["codes"] == [code for _, _, code in RUNS]
    return {(os.path.realpath(f), line) for f, line in result["entered"]}


def package_sources():
    return {os.path.realpath(path): path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_package_def_runs_under_the_cli(entered):
    missing = [f"{Path(path).name}:{line} {name}"
               for path, line, name in unentered_defs(package_sources(),
                                                      entered)]
    assert missing == []


def test_scan_finds_an_unused_helper(entered):
    sources = package_sources()
    path = os.path.realpath(PACKAGE / "params.py")
    sources[path] += "\n\ndef unused_helper():\n    return 1\n"
    missing = unentered_defs(sources, entered)
    assert [name for _, _, name in missing] == ["unused_helper"]
