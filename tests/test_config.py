"""Experiment config parsing: defaults, overrides, violation collection."""

import dataclasses
import os
import subprocess
import sys

import pytest

import fedsim
from fedsim.config import (
    DEFAULT_SEED,
    ConfigError,
    SCHEMA,
    parse_config,
    parse_config_text,
)


def test_empty_config_gives_full_defaults():
    cfg = parse_config_text("")
    assert cfg.seed == DEFAULT_SEED == 1990
    assert cfg.protocol.policy == "sync"
    assert cfg.protocol.epochs == 4
    assert cfg.cells == (("", 2.0),)
    assert cfg.protocol.rounds == 10
    assert cfg.num_fast == 5 and cfg.num_slow == 5
    assert cfg.num_learners == 10
    assert cfg.t_beta_fast_ms == 30.0 and cfg.t_beta_slow_ms == 300.0
    assert cfg.batch_size == 100
    assert cfg.task.kind == "softmax_regression"
    assert cfg.protocol.optimizer.kind == "vanilla"
    assert cfg.protocol.weighting.kind == "fedavg_static"
    assert cfg.partition.size_dist == "uniform"
    assert cfg.protocol.eval_every == 1


def test_explicit_values_override_defaults():
    cfg = parse_config_text("""
[experiment]
seed = 7
[protocol]
policy = semisync
lambda = 0.5
rounds = 3
[optimizer]
kind = momentum
eta = 0.2
gamma = 0.9
""")
    assert cfg.seed == 7
    assert cfg.protocol.policy == "semisync"
    assert cfg.cells == (("", 0.5),)
    assert cfg.protocol.rounds == 3
    assert cfg.protocol.optimizer.kind == "momentum"
    assert cfg.protocol.optimizer.eta == 0.2
    assert cfg.protocol.optimizer.gamma == 0.9


def test_unknown_preset_reported():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[experiment]\npreset = imagenet\n")
    assert any("preset" in v for v in err.value.violations)


def test_lambda_zero_message():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[protocol]\npolicy = semisync\nlambda = 0\n")
    assert any("lambda > 0" in v for v in err.value.violations)


def test_all_violations_collected_at_once():
    with pytest.raises(ConfigError) as err:
        parse_config_text("""
[experiment]
seed = -3
[protocol]
policy = carrier-pigeon
epochs = 0
[optimizer]
eta = -1
[learners]
batch_size = 0
""")
    v = err.value.violations
    assert len(v) >= 5
    joined = "\n".join(v)
    assert "seed" in joined
    assert "policy" in joined
    assert "epochs" in joined
    assert "eta" in joined
    assert "batch_size" in joined


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[network]\nbandwidth = 10\n")
    assert any("unknown section" in v for v in err.value.violations)
    with pytest.raises(ConfigError) as err:
        parse_config_text("[protocol]\ncadence = 5\n")
    assert any("unknown key" in v for v in err.value.violations)
    with pytest.raises(ConfigError) as err:
        parse_config_text("[weighting]\nguarded = false\n")
    assert any("unknown key" in v and "guarded" in v
               for v in err.value.violations)


def test_lambda_list_only_for_semisync():
    cfg = parse_config_text(
        "[protocol]\npolicy = semisync\nlambda = 0.5, 1, 2, 4\n")
    assert cfg.cells == (("lam-0.5", 0.5), ("lam-1", 1.0), ("lam-2", 2.0),
                         ("lam-4", 4.0))
    with pytest.raises(ConfigError) as err:
        parse_config_text("[protocol]\npolicy = sync\nlambda = 1, 2\n")
    assert any("matrix" in v for v in err.value.violations)


@pytest.mark.parametrize("protocol, cells", [
    ("policy = async\nlambda = 3", (("", 3.0),)),
    ("policy = semisync\nlambda = 4, 0.25, 1",
     (("lam-4", 4.0), ("lam-0.25", 0.25), ("lam-1", 1.0))),
], ids=["async_one", "semisync_list_in_file_order"])
def test_cells_name_one_directory_per_lambda_of_a_semisync_list(
        protocol, cells):
    # One value runs in the output directory itself under any policy; a
    # semisync list runs one named cell per value, in file order.
    cfg = parse_config_text(f"[protocol]\n{protocol}\n")
    assert cfg.cells == cells
    assert cfg.protocol.lam == cells[0][1]


def test_an_int_past_the_float_range_parses():
    # Only a float is checked for finiteness: a float() of this count
    # would overflow.
    big = "9" * 400
    cfg = parse_config_text(
        f"[protocol]\neval_every = {big}\n[learners]\nbatch_size = {big}\n")
    assert cfg.protocol.eval_every == cfg.batch_size == int(big)


def test_gamma_upper_bound_checked():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[optimizer]\nkind = momentum\ngamma = 1.0\n")
    assert any("gamma < 1" in v for v in err.value.violations)


def test_non_iid_needs_classes_per_learner():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[partition]\nclass_dist = non_iid\n")
    assert any("classes_per_learner" in v for v in err.value.violations)
    cfg = parse_config_text(
        "[partition]\nclass_dist = non_iid\nclasses_per_learner = 3\n")
    assert cfg.partition.classes_per_learner == 3


def test_class_count_override_parsed():
    cfg = parse_config_text("""
[partition]
class_dist = non_iid
class_count_override = 8, 7, 6, 5, 5, 5, 5, 5, 5, 5
""")
    assert cfg.partition.class_count_override == (8, 7, 6, 5, 5, 5, 5, 5, 5, 5)


def test_at_least_one_learner_required():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[learners]\nnum_fast = 0\nnum_slow = 0\n")
    assert any("num_fast + num_slow" in v for v in err.value.violations)


def test_bool_parsing_variants():
    for raw, expect in (("true", True), ("yes", True), ("1", True),
                        ("on", True), ("false", False), ("no", False),
                        ("0", False), ("off", False)):
        cfg = parse_config_text(f"[weighting]\nstaleness_adaptive = {raw}\n")
        assert cfg.protocol.weighting.staleness_adaptive is expect
    with pytest.raises(ConfigError):
        parse_config_text("[weighting]\nstaleness_adaptive = maybe\n")


def test_mixing_bounds():
    cfg = parse_config_text("[weighting]\nscheme = fedasync_poly\nmixing = 1\n")
    assert cfg.protocol.weighting.mixing == 1.0
    with pytest.raises(ConfigError):
        parse_config_text("[weighting]\nmixing = 0\n")
    with pytest.raises(ConfigError):
        parse_config_text("[weighting]\nmixing = 1.5\n")


def test_unparseable_document():
    with pytest.raises(ConfigError) as err:
        parse_config_text("just some words\n")
    assert any("unparseable" in v for v in err.value.violations)


def test_protocol_builder_roundtrip():
    cfg = parse_config_text("""
[protocol]
policy = semisync
lambda = 1.5
rounds = 6
epochs = 2
""")
    proto = cfg.protocol
    assert proto.policy == "semisync"
    assert proto.lam == 1.5
    assert proto.rounds == 6
    assert proto.epochs == 2


def test_source_text_preserved_exactly():
    text = "[experiment]\nseed = 42\n\n# trailing comment\n"
    cfg = parse_config_text(text)
    assert cfg.source_text == text
    assert cfg.seed == 42


def test_parse_config_reads_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[experiment]\nseed = 11\n")
    cfg = parse_config(str(path))
    assert cfg.seed == 11


LF_CONFIG = ("[experiment]\noutput = runs/x\nseed = 3\n"
             "[protocol]\npolicy = semisync\nlambda = 1, 2\n")


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_parse_config_keeps_the_file_text_and_its_keys(tmp_path, newline):
    # The file's own line endings stay in source_text; the keys parse as
    # from the LF text, a lone-CR file included.
    path = tmp_path / "run.ini"
    path.write_bytes(LF_CONFIG.replace("\n", newline).encode())
    cfg = parse_config(str(path))
    assert cfg.source_text.encode() == path.read_bytes()
    lf = parse_config_text(LF_CONFIG)
    assert dataclasses.replace(cfg, source_text=lf.source_text) == lf


# Each bad config's exact violation list. A key that fails its own check
# is left out of the parsed values, so it never reports a second violation
# about a stand-in value, and checks across keys skip it.
_PINNED = [
    ("seed_not_int", "[experiment]\nseed = abc\n",
     ["[experiment] seed: 'abc' is not an integer"]),
    ("seed_negative", "[experiment]\nseed = -3\n",
     ["[experiment] seed: must satisfy seed >= 0, got -3"]),
    ("unknown_preset", "[experiment]\npreset = imagenet\n",
     ["[experiment] unknown key 'preset'"]),
    ("unknown_section", "[network]\nbandwidth = 10\n",
     ["unknown section [network]"]),
    # configparser would read [DEFAULT] as defaults for every section.
    ("default_section_alone", "[DEFAULT]\nseed = 5\n",
     ["unknown section [DEFAULT]"]),
    ("default_section_known_key", "[DEFAULT]\nkind = mlp1\n[task]\n",
     ["unknown section [DEFAULT]"]),
    ("default_section_unknown_key", "[DEFAULT]\nbogus = 1\n[task]\n",
     ["unknown section [DEFAULT]"]),
    ("unknown_key", "[protocol]\ncadence = 5\n",
     ["[protocol] unknown key 'cadence'"]),
    ("unparseable", "just some words\n",
     ["unparseable config: File contains no section headers.\n"
      "file: '<string>', line: 1\n'just some words\\n'"]),
    ("task_kind", "[task]\nkind = cnn\n",
     ["[task] kind: 'cnn' not one of ['mlp1', 'softmax_regression']"]),
    ("input_dim_zero", "[task]\ninput_dim = 0\n",
     ["[task] input_dim: must satisfy input_dim >= 1, got 0"]),
    ("num_classes_one", "[task]\nnum_classes = 1\n",
     ["[task] num_classes: must satisfy num_classes >= 2, got 1"]),
    ("activation", "[task]\nkind = mlp1\nactivation = sigmoid\n",
     ["[task] activation: 'sigmoid' not one of ['relu', 'tanh']"]),
    ("cluster_spread_text", "[task]\ncluster_spread = wide\n",
     ["[task] cluster_spread: 'wide' is not a number"]),
    ("cluster_spread_negative", "[task]\ncluster_spread = -0.5\n",
     ["[task] cluster_spread: must satisfy cluster_spread >= 0.0, "
      "got -0.5"]),
    ("size_dist", "[partition]\nsize_dist = zipf\n",
     ["[partition] size_dist: 'zipf' not one of "
      "['powerlaw', 'skewed', 'uniform']"]),
    ("class_dist_nope", "[partition]\nclass_dist = nope\n",
     ["[partition] class_dist: 'nope' not one of ['iid', 'non_iid']"]),
    ("classes_per_learner_negative",
     "[partition]\nclass_dist = non_iid\nclasses_per_learner = -2\n",
     ["[partition] classes_per_learner: must satisfy "
      "classes_per_learner >= 0, got -2"]),
    ("ratio_one", "[partition]\nsize_dist = skewed\nratio = 1\n",
     ["[partition] ratio: must satisfy ratio > 1.0, got 1.0"]),
    ("exponent_zero", "[partition]\nexponent = 0\n",
     ["[partition] exponent: must satisfy exponent > 0.0, got 0.0"]),
    ("override_not_int",
     "[partition]\nclass_dist = non_iid\nclass_count_override = 3, x, 4\n",
     ["[partition] class_count_override: 'x' is not an integer"]),
    ("override_wrong_length",
     "[partition]\nclass_dist = non_iid\nclass_count_override = 3, 3\n",
     ["[partition] class_count_override: must list one quota per learner "
      "(10), got 2"]),
    ("override_wrong_length_and_eta",
     "[partition]\nclass_dist = non_iid\nclass_count_override = 2, 3\n"
     "[optimizer]\neta = -1\n",
     ["[optimizer] eta: must satisfy eta > 0.0, got -1.0",
      "[partition] class_count_override: must list one quota per learner "
      "(10), got 2"]),
    ("non_iid_without_quota", "[partition]\nclass_dist = non_iid\n",
     ["[partition] classes_per_learner: non_iid needs a value >= 1"]),
    ("num_fast_text", "[learners]\nnum_fast = x\nnum_slow = 0\n",
     ["[learners] num_fast: 'x' is not an integer"]),
    ("num_fast_negative", "[learners]\nnum_fast = -1\nnum_slow = 0\n",
     ["[learners] num_fast: must satisfy num_fast >= 0, got -1"]),
    ("no_learners", "[learners]\nnum_fast = 0\nnum_slow = 0\n",
     ["[learners] num_fast + num_slow must be >= 1"]),
    ("t_beta_fast_zero", "[learners]\nt_beta_fast_ms = 0\n",
     ["[learners] t_beta_fast_ms: must satisfy t_beta_fast_ms > 0.0, "
      "got 0.0"]),
    ("t_beta_slow_text", "[learners]\nt_beta_slow_ms = slow\n",
     ["[learners] t_beta_slow_ms: 'slow' is not a number"]),
    ("batch_size_zero", "[learners]\nbatch_size = 0\n",
     ["[learners] batch_size: must satisfy batch_size >= 1, got 0"]),
    ("policy", "[protocol]\npolicy = warp\n",
     ["[protocol] policy: 'warp' not one of ['async', 'semisync', 'sync']"]),
    ("policy_with_lambda_list", "[protocol]\npolicy = bogus\nlambda = 1, 2\n",
     ["[protocol] policy: 'bogus' not one of ['async', 'semisync', 'sync']"]),
    ("lambda_list_sync", "[protocol]\npolicy = sync\nlambda = 1, 2\n",
     ["[protocol] lambda: a lambda list (matrix mode) requires "
      "policy = semisync"]),
    ("lambda_list_with_bad_item",
     "[protocol]\npolicy = sync\nlambda = 1, 2, x\n",
     ["[protocol] lambda: 'x' is not a number"]),
    ("lambda_zero", "[protocol]\npolicy = semisync\nlambda = 0\n",
     ["[protocol] lambda: must satisfy lambda > 0.0, got 0",
      "[protocol] lambda: needs at least one value"]),
    ("lambda_bad_items", "[protocol]\npolicy = semisync\nlambda = 1, x, -2\n",
     ["[protocol] lambda: 'x' is not a number",
      "[protocol] lambda: must satisfy lambda > 0.0, got -2"]),
    ("lambda_empty", "[protocol]\nlambda = ,\n",
     ["[protocol] lambda: needs at least one value"]),
    ("lambdas_share_a_cell",
     "[protocol]\npolicy = semisync\nlambda = 1, 2, 2.0000001\n",
     ["[protocol] lambda: 2.0 and 2.0000001 share the cell lam-2"]),
    ("lambdas_repeated", "[protocol]\npolicy = semisync\nlambda = 2, 2\n",
     ["[protocol] lambda: 2.0 and 2.0 share the cell lam-2"]),
    ("epochs_rounds_eval_zero",
     "[protocol]\nepochs = 0\nrounds = 0\neval_every = 0\n",
     ["[protocol] epochs: must satisfy epochs >= 1, got 0",
      "[protocol] rounds: must satisfy rounds >= 1, got 0",
      "[protocol] eval_every: must satisfy eval_every >= 1, got 0"]),
    ("time_budget_negative",
     "[protocol]\npolicy = async\ntime_budget_ms = -5\n",
     ["[protocol] time_budget_ms: must satisfy time_budget_ms > 0.0, "
      "got -5.0"]),
    ("optimizer_kind", "[optimizer]\nkind = adam\n",
     ["[optimizer] kind: 'adam' not one of "
      "['fedprox', 'momentum', 'vanilla']"]),
    ("eta_negative", "[optimizer]\neta = -1\n",
     ["[optimizer] eta: must satisfy eta > 0.0, got -1.0"]),
    ("gamma_negative", "[optimizer]\nkind = momentum\ngamma = -1\n",
     ["[optimizer] gamma: must satisfy gamma >= 0.0, got -1.0"]),
    ("gamma_text", "[optimizer]\ngamma = abc\n",
     ["[optimizer] gamma: 'abc' is not a number"]),
    ("gamma_one", "[optimizer]\nkind = momentum\ngamma = 1.0\n",
     ["[optimizer] gamma: must satisfy gamma < 1, got 1.0"]),
    ("gamma_one_and_mu_negative", "[optimizer]\ngamma = 1.0\nmu = -1\n",
     ["[optimizer] gamma: must satisfy gamma < 1, got 1.0",
      "[optimizer] mu: must satisfy mu >= 0.0, got -1.0"]),
    ("scheme", "[weighting]\nscheme = fedbuff\n",
     ["[weighting] scheme: 'fedbuff' not one of "
      "['fedasync_poly', 'fedavg_static', 'fedrec_staleness']"]),
    ("mixing_zero", "[weighting]\nmixing = 0\n",
     ["[weighting] mixing: must satisfy mixing > 0.0, got 0.0"]),
    ("mixing_above_one", "[weighting]\nscheme = fedasync_poly\nmixing = 1.5\n",
     ["[weighting] mixing: must satisfy mixing <= 1, got 1.5"]),
    ("rho_negative", "[weighting]\nrho = -0.1\n",
     ["[weighting] rho: must satisfy rho >= 0.0, got -0.1"]),
    ("staleness_adaptive", "[weighting]\nstaleness_adaptive = sometimes\n",
     ["[weighting] staleness_adaptive: 'sometimes' is not a boolean"]),
    ("staleness_adaptive_maybe", "[weighting]\nstaleness_adaptive = maybe\n",
     ["[weighting] staleness_adaptive: 'maybe' is not a boolean"]),
    ("many_at_once",
     "[experiment]\nseed = -3\n[protocol]\npolicy = carrier-pigeon\n"
     "epochs = 0\n[optimizer]\neta = -1\n[learners]\nbatch_size = 0\n",
     ["[experiment] seed: must satisfy seed >= 0, got -3",
      "[learners] batch_size: must satisfy batch_size >= 1, got 0",
      "[protocol] policy: 'carrier-pigeon' not one of "
      "['async', 'semisync', 'sync']",
      "[protocol] epochs: must satisfy epochs >= 1, got 0",
      "[optimizer] eta: must satisfy eta > 0.0, got -1.0"]),
    ("preset_and_unknowns",
     "[experiment]\npreset = nope\n[bogus]\nx = 1\n"
     "[task]\ncolour = red\ninput_dim = 0\n",
     ["[experiment] unknown key 'preset'",
      "unknown section [bogus]",
      "[task] unknown key 'colour'",
      "[task] input_dim: must satisfy input_dim >= 1, got 0"]),
    ("cluster_spread_nan", "[task]\ncluster_spread = nan\n",
     ["[task] cluster_spread: must be a finite number, got nan"]),
    ("latency_nan", "[learners]\nt_beta_fast_ms = nan\n",
     ["[learners] t_beta_fast_ms: must be a finite number, got nan"]),
    ("time_budget_inf", "[protocol]\npolicy = async\ntime_budget_ms = inf\n",
     ["[protocol] time_budget_ms: must be a finite number, got inf"]),
    ("lambda_minus_inf", "[protocol]\npolicy = semisync\nlambda = 1, -inf\n",
     ["[protocol] lambda: must be a finite number, got -inf"]),
    ("latency_past_clock", "[learners]\nt_beta_slow_ms = 1e306\n",
     ["[learners] t_beta_slow_ms: 1e+306 ms is not a finite number of "
      "microseconds"]),
    ("time_budget_past_clock",
     "[protocol]\npolicy = async\ntime_budget_ms = 1e306\n",
     ["[protocol] time_budget_ms: 1e+306 ms is not a finite number of "
      "microseconds"]),
]


@pytest.mark.parametrize(
    "text, expected", [p[1:] for p in _PINNED], ids=[p[0] for p in _PINNED]
)
def test_violation_messages_pinned(text, expected):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert err.value.violations == expected


def test_violations_do_not_depend_on_hash_seed():
    # Set iteration order changes with the string hash seed; the violation
    # list must not.
    code = (
        "from fedsim.config import ConfigError, parse_config_text\n"
        "for text in ('[partition]\\nclass_dist = nope\\n',\n"
        "             '[protocol]\\npolicy = bogus\\nlambda = 1, 2\\n'):\n"
        "    try:\n"
        "        parse_config_text(text)\n"
        "    except ConfigError as exc:\n"
        "        print(exc.violations)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedsim.__file__)))
    outputs = set()
    for hash_seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        outputs.add(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=60,
        ).stdout)
    assert len(outputs) == 1
    assert outputs.pop().count("not one of") == 2


@pytest.mark.parametrize("key", ["t_beta_fast_ms", "t_beta_slow_ms"])
def test_sub_microsecond_latency_rejected(key):
    # 0.0005 ms is half a microsecond and rounds up to one clock tick;
    # anything smaller would be a batch that takes no virtual time.
    cfg = parse_config_text(f"[learners]\n{key} = 0.0005\n")
    assert getattr(cfg, key) == 0.0005
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"[learners]\n{key} = 0.0004\n")
    assert err.value.violations == [
        f"[learners] {key}: must round to at least 1 us (0.0005 ms), "
        f"got 0.0004"
    ]


def _readme_config_table():
    """(section, key, default) rows of README's "Config reference" table,
    with ``a / b`` rows split in two."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("### Config reference", 1)[1].split("\n\n###", 1)[0]
    rows, section = [], None
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|") or cells[0] in ("section", "---"):
            continue
        section = cells[0] or section
        keys, defaults = cells[1].split(" / "), cells[2].split(" / ")
        assert len(keys) == len(defaults), line
        rows += [(section, k, d) for k, d in zip(keys, defaults)]
    return rows


def test_readme_config_table_matches_schema():
    assert _readme_config_table() == [
        (section, key, default)
        for section, keys in SCHEMA.items()
        for key, (default, _) in keys.items()
    ]
