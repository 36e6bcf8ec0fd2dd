"""The failure-parity grid of ``tools/failure_parity.py``."""

import configparser
import json
from pathlib import Path

from oracles import load_tool

SRC = str(Path(__file__).resolve().parent.parent / "src")
tool = load_tool("failure_parity")

OK = "sync-softmax_regression-vanilla-eta0.1-slow3-batch4-fedavg_static"
# Round 0's model is finite, but its evaluation's loss is NaN.
FAILS = "semisync-mlp1-vanilla-eta1e300-slow3-batch100-fedavg_static"


def test_grid_covers_every_axis_once():
    configs = tool.grid()
    assert len(configs) == 3 * 2 * 3 * 3 * 2 * 2 + 2 * 3 * 3 * 2 * 2
    assert sum(cid.endswith("-fedasync_poly") for cid in configs) == 72
    assert all(cid.startswith("async-") for cid in configs
               if cid.endswith("-fedasync_poly"))
    assert "eta = 1e300\n" in configs[FAILS]


def test_refusals_each_replace_one_setting_of_the_base_world():
    rows = tool.refusals()
    assert len(rows) == 15 and not set(rows) & set(tool.grid())
    for cid, text in rows.items():
        # A repeated section would fail in configparser, not in fedsim.
        configparser.ConfigParser(interpolation=None).read_string(text)
        old, new = tool.EDITS[cid]
        assert text != tool.BASE and "seed" not in text
        assert text.replace(new + "\n", old + "\n", 1) == tool.BASE


def test_a_refusal_row_exits_2_with_its_violation(capsys):
    cid = "semisync-lambdas-share-a-cell"
    assert tool.main([SRC, "--only", cid]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == {
        "id": cid, "exit": 2,
        "last": "  - [protocol] lambda: 1.0 and 1.0000001 share the cell "
                "lam-1"}
    assert err == f"{SRC}: 1 configs, 1 exit 2\n"


def test_one_tree_prints_one_row_per_config(capsys):
    assert tool.main([SRC, "--only", OK, "--only", FAILS]) == 0
    out, err = capsys.readouterr()
    assert [json.loads(line) for line in out.splitlines()] == [
        {"id": OK, "exit": 0, "last": ""},
        {"id": FAILS, "exit": 1, "last": json.dumps(
            {"cell": ".", "detail": "evaluation at 3.0 ms: loss is nan",
             "error": "NonFiniteError"})},
    ]
    assert err == f"{SRC}: 2 configs, 1 exit 0, 1 exit 1\n"


def test_two_trees_print_only_the_rows_that_differ(capsys):
    assert tool.main([SRC, SRC, "--only", OK]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("0 of 1 configs differ\n")
