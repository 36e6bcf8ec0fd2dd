"""End-to-end experiment runner, output layout, CLI, and the cache bench
(``tools/bench_cache.py``)."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fedsim.cli import main
from fedsim.config import OUTPUT_ROOT_ENV, ConfigError, parse_config_text
from fedsim.runner import build_world, run_experiment
from oracles import digest_tree, load, load_tool

SRC = str(Path(__file__).resolve().parent.parent / "src")

SMALL_SYNC = """
[experiment]
seed = 17
output = {out}
[task]
input_dim = 6
num_classes = 4
per_class = 60
test_per_class = 15
[learners]
num_fast = 2
num_slow = 1
t_beta_fast_ms = 10
t_beta_slow_ms = 60
batch_size = 20
[protocol]
policy = sync
epochs = 1
rounds = 3
"""

SMALL_ASYNC = """
[experiment]
seed = 23
output = {out}
[task]
input_dim = 6
num_classes = 4
per_class = 60
test_per_class = 15
[learners]
num_fast = 1
num_slow = 1
t_beta_fast_ms = 5
t_beta_slow_ms = 40
batch_size = 20
[protocol]
policy = async
epochs = 1
time_budget_ms = 400
[weighting]
scheme = fedrec_staleness
"""

MATRIX = """
[experiment]
seed = 9
output = {out}
[task]
input_dim = 5
num_classes = 3
per_class = 40
test_per_class = 10
[learners]
num_fast = 1
num_slow = 1
t_beta_fast_ms = 10
t_beta_slow_ms = 50
batch_size = 20
[protocol]
policy = semisync
lambda = 0.5, 1, 2, 4
rounds = 2
epochs = 1
"""


def test_run_experiment_output_layout(tmp_path):
    out = tmp_path / "run"
    cfg = parse_config_text(SMALL_SYNC.format(out=out))
    assert run_experiment(cfg) == 0
    files = set(os.listdir(out))
    assert {"config.txt", "partition_report.json", "metrics.csv", "idle.csv",
            "events.jsonl", "contributions.csv", "summary.json",
            "final_model.json", "manifest.json"} <= files
    # config echo is byte-exact
    assert open(out / "config.txt").read() == cfg.source_text
    summary = json.load(open(out / "summary.json"))
    assert summary["policy"] == "sync"
    assert summary["update_requests"] == 9  # 3 rounds * 3 learners
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["cells"] == ["."]
    assert manifest["seed"] == 17
    # the saved model parses back into a ParamSet
    model = load(out / "final_model.json")
    assert model.names


def test_partition_report_contents(tmp_path):
    out = tmp_path / "run"
    cfg = parse_config_text(SMALL_SYNC.format(out=out))
    run_experiment(cfg)
    report = json.load(open(out / "partition_report.json"))
    assert len(report["learners"]) == 3
    devices = [e["device_class"] for e in report["learners"]]
    assert sorted(devices) == ["fast", "fast", "slow"]
    assert sum(e["size"] for e in report["learners"]) == 240


def test_partitions_only_skips_training(tmp_path):
    out = tmp_path / "run"
    cfg = parse_config_text(SMALL_SYNC.format(out=out))
    assert run_experiment(cfg, partitions_only=True) == 0
    files = set(os.listdir(out))
    assert "partition_report.json" in files
    assert "metrics.csv" not in files
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["partitions_only"] is True


def test_run_experiment_byte_identical_reruns(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = parse_config_text(SMALL_ASYNC.format(out=out_a))
    cfg_b = parse_config_text(SMALL_ASYNC.format(out=out_b))
    assert run_experiment(cfg_a) == 0
    assert run_experiment(cfg_b) == 0
    da, db = digest_tree(out_a), digest_tree(out_b)
    # config echo differs (it embeds the output path); all else matches
    da.pop("config.txt"), db.pop("config.txt")
    assert da == db
    assert "controller_snapshot.json" in da


def test_seed_override_changes_results(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = parse_config_text(SMALL_SYNC.format(out=out_a))
    cfg_b = parse_config_text(SMALL_SYNC.format(out=out_b), seed="99")
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    ma = open(out_a / "metrics.csv").read()
    mb = open(out_b / "metrics.csv").read()
    assert ma != mb
    assert json.load(open(out_b / "manifest.json"))["seed"] == 99


def test_matrix_mode_one_cell_per_lambda(tmp_path):
    out = tmp_path / "matrix"
    cfg = parse_config_text(MATRIX.format(out=out))
    assert run_experiment(cfg) == 0
    cells = sorted(d for d in os.listdir(out)
                   if os.path.isdir(out / d))
    assert cells == ["lam-0.5", "lam-1", "lam-2", "lam-4"]
    for cell in cells:
        files = set(os.listdir(out / cell))
        assert {"config.txt", "metrics.csv", "summary.json"} <= files
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["cells"] == ["lam-0.5", "lam-1", "lam-2", "lam-4"]
    # different lambdas produce different schedules
    s1 = json.load(open(out / "lam-0.5" / "summary.json"))
    s2 = json.load(open(out / "lam-4" / "summary.json"))
    assert s1["schedule"]["t_max_ms"] != s2["schedule"]["t_max_ms"]


def test_divergent_eta_fails_the_run(tmp_path, capsys):
    text = SMALL_SYNC.format(out=tmp_path / "run").replace(
        "[protocol]", "[optimizer]\nkind = vanilla\neta = 1e300\n[protocol]"
    ).replace("input_dim = 6", "kind = mlp1\nhidden_dim = 5\ninput_dim = 6")
    cfg = parse_config_text(text)
    with np.errstate(all="ignore"):
        assert run_experiment(cfg) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "NonFiniteError"
    assert os.listdir(tmp_path) == ["run"]
    assert os.listdir(tmp_path / "run") == []


@pytest.mark.parametrize("task, eta, batch_size, detail", [
    # An MLP in a pool shared with the other learner: its weights overflow
    # within its first steps, and it trains on to the end of its budget.
    ("kind = mlp1\nhidden_dim = 5\ninput_dim = 6\nnum_classes = 4\n"
     "per_class = 60\ntest_per_class = 15", "1e300", 20,
     "learner 0, assignment 0, arrival at 30.0 ms: "
     "layer 'W1' has NaN/Inf entries"),
    # A 20,100-entry softmax, past half of engine._COHORT_ENTRIES, in a
    # pool of capacity 1, and batches larger than any shard: the one step
    # overflows, and the pool checks the result it hands back uncopied.
    ("input_dim = 200\nnum_classes = 100\nper_class = 4\n"
     "test_per_class = 2\ncluster_spread = 100", "1e308", 1000,
     "learner 0, assignment 0, arrival at 5.0 ms: "
     "layer 'W' has NaN/Inf entries"),
], ids=["mlp_pool", "softmax_lone_step"])
def test_a_diverging_run_prints_one_line_naming_the_learner(
    tmp_path, task, eta, batch_size, detail
):
    # No numpy warning reaches stderr: the failure's one JSON line says
    # which learner diverged, in which assignment and when it arrived, and
    # the first layer of its trained weights that holds NaN or Inf.
    cfg_path = tmp_path / "run.ini"
    text = SMALL_ASYNC.format(out=tmp_path / "run").replace(
        "[protocol]", f"[optimizer]\neta = {eta}\n[protocol]"
    ).replace("batch_size = 20", f"batch_size = {batch_size}")
    cfg_path.write_text(text.replace(
        "input_dim = 6\nnum_classes = 4\nper_class = 60\ntest_per_class = 15",
        task))
    proc = subprocess.run(
        [sys.executable, "-m", "fedsim", "run", str(cfg_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 1
    (line,) = proc.stderr.splitlines()
    assert json.loads(line) == {
        "cell": ".", "error": "NonFiniteError", "detail": detail,
    }
    assert os.listdir(tmp_path / "run") == []


def test_a_non_finite_evaluation_fails_its_group(tmp_path):
    # Round 0's community model is finite, but its logits overflow on the
    # test set: the loss is NaN, and the run fails at that evaluation
    # instead of writing it.
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        f"[experiment]\noutput = {tmp_path / 'run'}\n"
        "[task]\nkind = mlp1\nhidden_dim = 8\nper_class = 20\n"
        "[learners]\nnum_fast = 3\nnum_slow = 2\nbatch_size = 100\n"
        "t_beta_slow_ms = 3\n[protocol]\npolicy = semisync\nrounds = 1\n"
        "[optimizer]\nkind = vanilla\neta = 1e300\n")
    proc = subprocess.run(
        [sys.executable, "-m", "fedsim", "run", str(cfg_path), "--seed", "11"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 1
    (line,) = proc.stderr.splitlines()
    assert json.loads(line) == {
        "cell": ".", "error": "NonFiniteError",
        "detail": "evaluation at 30.0 ms: loss is nan",
    }
    assert os.listdir(tmp_path / "run") == []


@pytest.mark.parametrize("text", [
    # The semisync horizon overflows the clock.
    "[protocol]\npolicy = semisync\nlambda = 1e306\n",
    # A sync round of many 1e305 ms batches ends past the float range.
    "[learners]\nt_beta_slow_ms = 1e305\n[protocol]\nrounds = 1\n",
])
def test_cli_failed_cell_writes_nothing(tmp_path, capsys, text):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert sorted(os.listdir(tmp_path)) == ["out", "run.ini"]
    assert os.listdir(out) == []


@pytest.mark.parametrize("per_class, error, detail", [
    # 4 x 10**12 x 6 float64s is 175 TiB, more than a 47-bit address
    # space holds, so numpy's allocation fails whatever the host's
    # overcommit setting.
    ("1000000000000", "MemoryError", "Unable to allocate 175. TiB"),
    ("9" * 400, "ValueError", "Maximum allowed dimension exceeded"),
], ids=["unallocatable", "past_max_dimension"])
def test_cli_world_that_cannot_be_built_prints_one_line(
        tmp_path, capsys, per_class, error, detail):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(SMALL_SYNC.format(out=tmp_path / "run").replace(
        "per_class = 60", f"per_class = {per_class}"))
    assert main(["run", str(cfg_path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    got = json.loads(line)
    assert (got["cell"], got["error"]) == (".", error)
    assert got["detail"].startswith(detail)
    assert os.listdir(tmp_path) == ["run.ini"]


def test_cli_async_arrival_past_the_float_range_exits_0(tmp_path):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        "[learners]\nt_beta_slow_ms = 1e305\n"
        "[protocol]\npolicy = async\ntime_budget_ms = 2000\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    summary = json.load(open(out / "summary.json"))
    assert summary["total_virtual_ms"] <= 2000.0
    assert sorted(os.listdir(tmp_path)) == ["out", "run.ini"]
    assert not [name for name in os.listdir(out) if name.startswith(".")]


def test_cli_config_echo_is_the_file_byte_for_byte(tmp_path):
    out = tmp_path / "run"
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_bytes(SMALL_SYNC.format(out=out).replace("\n", "\r\n")
                         .encode())
    assert main(["run", str(cfg_path), "--report-partitions-only"]) == 0
    assert (out / "config.txt").read_bytes() == cfg_path.read_bytes()


@pytest.mark.parametrize("text", [SMALL_SYNC, SMALL_ASYNC],
                         ids=["sync", "async"])
def test_total_virtual_ms_is_the_last_evaluation(tmp_path, text):
    out = tmp_path / "run"
    assert run_experiment(parse_config_text(text.format(out=out))) == 0
    summary = json.load(open(out / "summary.json"))
    last = (out / "metrics.csv").read_text().splitlines()[-1]
    events = [json.loads(line) for line in open(out / "events.jsonl")]
    total = summary["total_virtual_ms"]
    assert total == float(last.split(",")[0])
    assert total == max(e["virtual_ms"] for e in events) > 0.0


def test_async_run_with_no_group_has_zero_virtual_ms(tmp_path):
    # The fast learner's first arrival, 6 batches of 5 ms, lands past the
    # 10 ms budget: the run commits and evaluates nothing.
    out = tmp_path / "run"
    text = SMALL_ASYNC.format(out=out).replace("time_budget_ms = 400",
                                               "time_budget_ms = 10")
    assert run_experiment(parse_config_text(text)) == 0
    summary = json.load(open(out / "summary.json"))
    assert summary["total_virtual_ms"] == 0.0
    assert summary["evaluations"] == summary["update_requests"] == 0
    assert (out / "metrics.csv").read_text().splitlines() == [
        "virtual_ms,update_requests,round,accuracy,loss"]


def test_cli_sub_microsecond_semisync_horizon_exits_0(tmp_path):
    # Tiny shards, 0.5 us batches and lambda 0.25 plan a horizon under half
    # a microsecond; it is floored at 1 us, as budgets are at one batch.
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        "[task]\nper_class = 2\nnum_classes = 2\n"
        "[learners]\nnum_fast = 1\nnum_slow = 1\nt_beta_fast_ms = 0.0005\n"
        "t_beta_slow_ms = 0.0005\nbatch_size = 100\n"
        "[protocol]\npolicy = semisync\nlambda = 0.25\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == [
        "config.txt", "contributions.csv", "events.jsonl", "final_model.json",
        "idle.csv", "manifest.json", "metrics.csv", "partition_report.json",
        "summary.json",
    ]
    summary = json.load(open(out / "summary.json"))
    assert summary["schedule"]["t_max_ms"] == 0.001


def test_build_world_shapes():
    cfg = parse_config_text(SMALL_SYNC.format(out="unused"))
    train, test, result, profiles = build_world(cfg, cfg.seed)
    assert len(train.labels) == 240
    assert len(test.labels) == 60
    assert len(profiles) == 3
    devices = [p.device_class for p in profiles]
    assert sorted(devices) == ["fast", "fast", "slow"]
    for prof in profiles:
        assert prof.time_per_batch_ms in (10.0, 60.0)
        assert prof.batch_size == 20
    total = sum(p.data_size for p in profiles)
    assert total == 240


def test_output_root_joins_relative_outputs(tmp_path, monkeypatch):
    # The root applies to the key and to --out alike; an absolute path is
    # left as it is, and an empty --out under a set root is the root.
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    text = "[experiment]\noutput = runs/x\n"

    def out_dir(output=None, text=text):
        return parse_config_text(text, output=output).out_dir

    assert out_dir() == str(tmp_path / "runs" / "x")
    assert out_dir("o") == str(tmp_path / "o")
    assert out_dir("/abs/path") == "/abs/path"
    assert out_dir(text="[experiment]\noutput = /abs/path\n") == "/abs/path"
    assert out_dir("") == os.path.join(str(tmp_path), "")


def test_flags_replace_the_keys_text_before_it_is_parsed():
    # The file's own text for a key a flag replaces is never parsed.
    text = "[experiment]\nseed = abc\noutput =\n"
    cfg = parse_config_text(text, seed="5", output="runs/y")
    assert (cfg.seed, cfg.out_dir) == (5, "runs/y")
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    assert info.value.violations == [
        "[experiment] seed: 'abc' is not an integer", EMPTY_OUTPUT_MESSAGE]


def test_cli_run_and_exit_codes(tmp_path):
    out = tmp_path / "cli"
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(SMALL_SYNC.format(out=out))
    assert main(["run", str(cfg_path)]) == 0
    assert (out / "summary.json").exists()


def test_cli_out_and_seed_flags(tmp_path):
    out = tmp_path / "flagged"
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(SMALL_SYNC.format(out=tmp_path / "ignored"))
    assert main(["run", str(cfg_path), "--out", str(out), "--seed", "5"]) == 0
    assert json.load(open(out / "manifest.json"))["seed"] == 5
    assert not (tmp_path / "ignored").exists()


def test_seed_flag_and_seed_key_write_the_same_cells(tmp_path):
    # --seed 5 is [experiment] seed = 5: every file but the config echo,
    # the file's own text, is the same.
    flagged, keyed = tmp_path / "flagged", tmp_path / "keyed"
    for name, seed in (("flagged", "17"), ("keyed", "5")):
        (tmp_path / f"{name}.ini").write_text(
            SMALL_ASYNC.replace("seed = 23", f"seed = {seed}")
            .format(out=tmp_path / name))
    assert main(["run", str(tmp_path / "flagged.ini"), "--seed", "5"]) == 0
    assert main(["run", str(tmp_path / "keyed.ini")]) == 0
    assert (digest_tree(flagged, skip=("config.txt",))
            == digest_tree(keyed, skip=("config.txt",)))
    assert (flagged / "config.txt").read_text() != (
        keyed / "config.txt").read_text()


def test_cli_config_error_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[protocol]\npolicy = warp\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "policy" in err
    assert main(["run", str(tmp_path / "missing.ini")]) == 2


def test_cli_unparseable_config_names_its_file(tmp_path, capsys):
    bad = tmp_path / "words.ini"
    bad.write_text("just some words\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"file: {str(bad)!r}, line: 1" in err and "<string>" not in err


@pytest.mark.parametrize("old, new, violation", [
    ("rounds = 3", "rounds = 3\n[optimizer]\nkind = momentum\n"
                   "eta_in_velocity = true",
     "[optimizer] unknown key 'eta_in_velocity'"),
    ("seed = 17", "seed = 17\npreset = cifar10-like",
     "[experiment] unknown key 'preset'"),
], ids=["eta_in_velocity", "preset"])
def test_cli_removed_key_is_exit_2(tmp_path, capsys, old, new, violation):
    # Momentum has one form and hyperparameters one spelling, their own
    # keys; a config that still names a removed key, at any value, is a
    # config error and writes nothing.
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(SMALL_SYNC.format(out=tmp_path / "run")
                        .replace(old, new))
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert violation in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["run.ini"]


# Learner 3 owns only class 0, whose three examples learners 0-2 draw first.
EMPTY_LEARNER = [
    ("input_dim = 6", "input_dim = 2"), ("num_classes = 4", "num_classes = 3"),
    ("per_class = 60", "per_class = 3"), ("num_slow = 1", "num_slow = 2"),
    ("batch_size = 20", "batch_size = 2"),
    ("[learners]", "[partition]\nsize_dist = skewed\nclass_dist = non_iid\n"
                   "classes_per_learner = 3\nclass_count_override = 3, 3, 2, 1\n"
                   "[learners]"),
]
EMPTY_LEARNER_MESSAGE = ("learner 3 gets no examples: the learners before it "
                         "leave no example of its classes [0]")
EMPTY_OUTPUT_MESSAGE = ("the output path is empty: set [experiment] output "
                        "or pass --out")


@pytest.mark.parametrize("edits, argv, message", [
    ([], ["--seed", "-1"],
     "invalid config:\n  - [experiment] seed: must satisfy seed >= 0, got -1"),
    ([], ["--seed", "abc"], "[experiment] seed: 'abc' is not an integer"),
    ([("[learners]", "[partition]\nclass_dist = non_iid\n"
                     "class_count_override = 11, 1, 1\n[learners]")], [],
     "class quota 11 outside [1, 4]"),
    ([("per_class = 60", "per_class = 1"), ("num_fast = 2", "num_fast = 8")],
     [], "cannot split 4 examples across 9 learners"),
    ([("t_beta_fast_ms = 10", "t_beta_fast_ms = 1e306")], [],
     "t_beta_fast_ms: 1e+306 ms is not a finite number of microseconds"),
    ([("policy = sync", "policy = semisync\nlambda = 2, 2.0000001")], [],
     "[protocol] lambda: 2.0 and 2.0000001 share the cell lam-2"),
    (EMPTY_LEARNER, [], EMPTY_LEARNER_MESSAGE),
    (EMPTY_LEARNER, ["--report-partitions-only"], EMPTY_LEARNER_MESSAGE),
    ([("output = {out}", "output =")], [], EMPTY_OUTPUT_MESSAGE),
    ([], ["--out", ""], EMPTY_OUTPUT_MESSAGE),
], ids=["negative_seed", "seed_not_int", "class_quota", "too_few_examples",
        "latency_past_clock", "lambdas_share_a_cell", "empty_learner",
        "empty_learner_report_only", "empty_output", "empty_out_flag"])
def test_cli_setup_failures_exit_2(tmp_path, capsys, monkeypatch, edits, argv,
                                   message):
    # Failures found before the run starts are reported like config
    # errors: one message, exit 2, no traceback and no output directory.
    # The run starts in tmp_path, so a relative path would write there.
    monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run"
    text = SMALL_SYNC
    for old, new in edits:
        text = text.replace(old, new)
    text = text.format(out=out)
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(text)
    assert main(["run", str(cfg_path), *argv]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["run.ini"]


@pytest.mark.parametrize("first, second, argv", [
    (SMALL_ASYNC, SMALL_SYNC, []),
    (SMALL_SYNC, SMALL_SYNC, ["--report-partitions-only"]),
], ids=["async_then_sync", "full_then_partitions_only"])
def test_rerun_replaces_the_cell(tmp_path, first, second, argv):
    # A rerun into a cell leaves exactly the files the same run writes into
    # an empty directory. Files that are not fedsim's stay.
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(second.format(out=out))
    assert main(["run", str(cfg_path), *argv, "--out", str(fresh)]) == 0
    cfg_path.write_text(first.format(out=out))
    assert main(["run", str(cfg_path)]) == 0
    assert set(os.listdir(out)) > set(os.listdir(fresh))
    (out / "notes.txt").write_text("kept\n")
    (out / "plots").mkdir()
    cfg_path.write_text(second.format(out=out))
    assert main(["run", str(cfg_path), *argv]) == 0
    assert digest_tree(out, skip=("notes.txt",)) == digest_tree(fresh)
    assert (out / "notes.txt").read_text() == "kept\n"
    assert (out / "plots").is_dir()


def test_matrix_rerun_removes_a_single_cell_runs_files(tmp_path):
    # A one-lambda semisync run writes its files into the output directory;
    # a lambda = 1, 2 run into the same directory then leaves exactly what
    # it writes into an empty one: the cells and the manifest.
    semisync = SMALL_SYNC.replace("policy = sync", "policy = semisync")
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(semisync.format(out=out) + "lambda = 1\n")
    assert main(["run", str(cfg_path)]) == 0
    assert (out / "config.txt").is_file()
    cfg_path.write_text(semisync.format(out=out) + "lambda = 1, 2\n")
    assert main(["run", str(cfg_path), "--out", str(fresh)]) == 0
    assert main(["run", str(cfg_path)]) == 0
    assert sorted(os.listdir(out)) == ["lam-1", "lam-2", "manifest.json"]
    assert digest_tree(out) == digest_tree(fresh)


@pytest.mark.parametrize("head", [
    b"# caf\xe9 config\n",  # Latin-1, not UTF-8
    b"\xff\xfe",  # a UTF-16 byte-order mark
])
def test_cli_config_not_utf8_is_exit_2(tmp_path, capsys, head):
    out = tmp_path / "run"
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_bytes(head + SMALL_SYNC.format(out=out).encode())
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot read config: ") and "Traceback" not in err
    assert os.listdir(tmp_path) == ["run.ini"]


def test_cli_partition_report_flag(tmp_path):
    out = tmp_path / "parts"
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(SMALL_SYNC.format(out=out))
    assert main(["run", str(cfg_path), "--report-partitions-only"]) == 0
    assert (out / "partition_report.json").exists()
    assert not (out / "metrics.csv").exists()


def test_bench_cache_rows_and_fits(tmp_path):
    out_csv = tmp_path / "bench.csv"
    rows, fits = load_tool("bench_cache").bench_cache(
        learner_counts=(4, 8, 16),
        model_entries=(300,),
        repeats=3,
        inner=4,
        out_path=str(out_csv),
    )
    modes = {r[0] for r in rows}
    assert modes == {"cached", "recompute"}
    assert len(rows) == 2 * 3 * 3  # modes * counts * repeats
    assert all(r[4] > 0 for r in rows)
    assert ("cached", 300) in fits and ("recompute", 300) in fits
    for fit in fits.values():
        assert set(fit) == {"slope", "intercept", "r_squared", "slope_pvalue"}
    lines = open(out_csv).read().strip().splitlines()
    assert lines[0] == "mode,n_learners,model_entries,repeat,seconds"
    assert len(lines) == 1 + len(rows)


def test_fit_bench_detects_linear_growth():
    # synthetic timings: recompute grows linearly, cached stays flat
    rows = []
    rng = np.random.default_rng(3)
    for n in (10, 100, 1000):
        for rep in range(5):
            rows.append(("cached", n, 100, rep,
                         1e-4 * (1.0 + 0.01 * rng.standard_normal())))
            rows.append(("recompute", n, 100, rep,
                         1e-6 * n * (1.0 + 0.01 * rng.standard_normal())))
    fits = load_tool("bench_cache").fit_bench(rows)
    assert fits[("recompute", 100)]["r_squared"] >= 0.99
    assert fits[("recompute", 100)]["slope"] > 0
    assert fits[("cached", 100)]["slope_pvalue"] > 0.05


def test_cli_bench_smoke(tmp_path, monkeypatch, capsys):
    # the bench's command line without --out: a median table, no file
    tool = load_tool("bench_cache")
    monkeypatch.chdir(tmp_path)
    with mock.patch.object(tool, "LEARNERS", (4, 8)), \
            mock.patch.object(tool, "SIZES", (200,)), \
            mock.patch.object(tool, "REPEATS", 3):
        assert tool.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    medians = {(r[0], r[2]) for r in rows if len(r) == 4 and r[1] == "200"}
    assert medians == {(mode, n) for mode in ("cached", "recompute")
                       for n in ("4", "8")}
    assert os.listdir(tmp_path) == []


def test_bench_tool_prints_its_fits_and_writes_its_table(tmp_path, capsys):
    tool = load_tool("bench_cache")
    out_csv = tmp_path / "bench.csv"
    with mock.patch.object(tool, "LEARNERS", (4, 8)), \
            mock.patch.object(tool, "SIZES", (200,)), \
            mock.patch.object(tool, "REPEATS", 2):
        assert tool.main(["--out", str(out_csv)]) == 0
    out = capsys.readouterr().out
    for mode in ("cached", "recompute"):
        assert f"{mode} (200 entries): slope=" in out
    assert "cached (200 entries): slope " in out  # the verdict lines
    assert "recompute (200 entries): time " in out
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2  # header, modes * counts * repeats


def test_cli_has_no_bench_cache_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench-cache"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench-cache'" in capsys.readouterr().err
