"""The README's examples run as written.

Every ``ini`` block runs through ``fedsim run``, with and without
``--report-partitions-only``, each run in its own directory. Every
``python`` block runs in a fresh interpreter beside the Quick start's
``config.ini``, and its output meets its own check in ``PYTHON_CHECKS``.
"""

import json
import math
import os
import re
import subprocess
import sys

import fedsim
from fedsim.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fedsim.__file__)))
README = os.path.join(os.path.dirname(SRC), "README.md")


def blocks(lang):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def run_ini(config, out_dir, *flags):
    """Run one config through ``fedsim run``; its parse and output path."""
    out_dir.mkdir()
    path = out_dir / "config.ini"
    path.write_text(config)
    out = out_dir / "out"
    assert main(["run", str(path), "--out", str(out), *flags]) == 0
    return fedsim.parse_config(str(path)), out


def read(path):
    return json.loads(path.read_text())


def test_quick_start_config_runs(tmp_path):
    """A semisync cell's schedule follows the README's rules: ``t_max`` is
    lambda times the slowest epoch, ``B_k = round(t_max / t_k)``."""
    for i, config in enumerate(blocks("ini")):
        cfg, out = run_ini(config, tmp_path / str(i))
        manifest = read(out / "manifest.json")
        assert manifest["policy"] == cfg.protocol.policy
        assert manifest["cells"] == [name or "." for name, _ in cfg.cells]
        t_k = {"fast": cfg.t_beta_fast_ms, "slow": cfg.t_beta_slow_ms}
        semisync = cfg.protocol.policy == "semisync"
        for name, lam in cfg.cells if semisync else ():
            schedule = read(out / name / "summary.json")["schedule"]
            learners = read(out / name / "partition_report.json")["learners"]
            slowest = max(ln["size"] / cfg.batch_size * t_k[ln["device_class"]]
                          for ln in learners)
            t_max = schedule["t_max_ms"]
            assert math.isclose(t_max, lam * slowest, abs_tol=5e-4)
            assert schedule["batches"] == {
                str(ln["learner_id"]):
                    max(1, math.floor(t_max / t_k[ln["device_class"]] + 0.5))
                for ln in learners
            }


def test_report_partitions_only_runs(tmp_path):
    for i, config in enumerate(blocks("ini")):
        cfg, out = run_ini(config, tmp_path / str(i), "--report-partitions-only")
        written = {p.name for p in out.rglob("*") if p.is_file()}
        assert written == {"config.txt", "partition_report.json", "manifest.json"}
        for name, _ in cfg.cells:
            learners = read(out / name / "partition_report.json")["learners"]
            assert [ln["learner_id"] for ln in learners] == list(
                range(cfg.num_learners))
            assert sorted(ln["device_class"] for ln in learners) == (
                ["fast"] * cfg.num_fast + ["slow"] * cfg.num_slow)
            for ln in learners:
                assert sum(ln["class_histogram"].values()) == ln["size"]
                assert set(map(int, ln["class_histogram"])) <= set(
                    ln["owned_classes"])


def library_use(stdout):
    lines = stdout.splitlines()
    assert len(lines) == 5  # one evaluation per round, rounds=5
    assert all(re.fullmatch(r"\d+\.\d ms  acc=\d\.\d{3}", ln) for ln in lines)


def three_policies(stdout):
    """The paper's idle and communication orderings (ROADMAP item 19).
    Accuracy is printed, not compared: a barrier run is evaluated once per
    round and an async one after every commit."""
    rows = re.findall(r"^(\w+) +(\d+) update requests  idle +(\d+\.\d)%  "
                      r"accuracy \d\.\d{3}$", stdout, re.M)
    assert len(rows) == len(stdout.splitlines())
    requests = {name: int(n) for name, n, _ in rows}
    idle = {name: float(share) for name, _, share in rows}
    assert list(idle) == ["sync", "semisync", "async"]
    assert idle["sync"] > idle["semisync"] > idle["async"] == 0.0
    assert requests["async"] > requests["semisync"] > requests["sync"]


# One check per python block, in README order.
PYTHON_CHECKS = (library_use, three_policies)


def test_library_use_runs(tmp_path):
    (tmp_path / "config.ini").write_text(blocks("ini")[0])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    for code, check in zip(blocks("python"), PYTHON_CHECKS, strict=True):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        check(done.stdout)
