"""``python -m fedsim`` and ``python -m fedsim.cli`` run a config.

Each runs in a fresh interpreter with the checkout's ``src`` as its only
added path, as from a plain checkout, and must exit 0 having written the
run's ``manifest.json``. Needs numpy and pytest alone.
"""

import os
import subprocess
import sys

import pytest

import fedsim

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fedsim.__file__)))

CONFIG = """\
[task]
input_dim = 2
num_classes = 2
per_class = 10
test_per_class = 5

[learners]
num_fast = 1
num_slow = 1
batch_size = 5

[protocol]
epochs = 1
rounds = 1
"""


@pytest.mark.parametrize("module", ["fedsim", "fedsim.cli"])
def test_module_entry_point_runs_a_config(module, tmp_path):
    config = tmp_path / "config.ini"
    config.write_text(CONFIG)
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", module, "run", str(config), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (out / "manifest.json").is_file()
