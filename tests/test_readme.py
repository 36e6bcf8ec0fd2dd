"""The README's examples run as written."""

import json
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


def test_quick_start_config_runs(tmp_path):
    (config,) = blocks("ini")
    cfg_path = tmp_path / "config.ini"
    cfg_path.write_text(config)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["policy"] == "semisync" and manifest["cells"] == ["."]


def test_library_use_runs():
    (code,) = blocks("python")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 5  # one evaluation per round, rounds=5
    assert all(re.fullmatch(r"\d+\.\d ms  acc=\d\.\d{3}", ln) for ln in lines)
