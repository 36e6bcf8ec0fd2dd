"""Experiment config parsing: defaults, presets, violation collection."""

import pytest

from fedsim.config import (
    DEFAULT_SEED,
    ConfigError,
    PRESETS,
    parse_config,
    parse_config_text,
)


def test_empty_config_gives_full_defaults():
    cfg = parse_config_text("")
    assert cfg.seed == DEFAULT_SEED == 1990
    assert cfg.policy == "sync"
    assert cfg.epochs == 4
    assert cfg.lambda_values == (2.0,)
    assert cfg.rounds == 10
    assert cfg.num_fast == 5 and cfg.num_slow == 5
    assert cfg.num_learners == 10
    assert cfg.t_beta_fast_ms == 30.0 and cfg.t_beta_slow_ms == 300.0
    assert cfg.batch_size == 100
    assert cfg.task.kind == "softmax_regression"
    assert cfg.optimizer.kind == "vanilla"
    assert cfg.weighting.kind == "fedavg_static"
    assert cfg.partition.size_dist == "uniform"
    assert cfg.eval_every == 1


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
    assert cfg.policy == "semisync"
    assert cfg.lambda_values == (0.5,)
    assert cfg.rounds == 3
    assert cfg.optimizer.kind == "momentum"
    assert cfg.optimizer.eta == 0.2
    assert cfg.optimizer.gamma == 0.9


def test_preset_applies_and_explicit_wins():
    cfg = parse_config_text("""
[experiment]
preset = cifar10-like
""")
    assert cfg.preset == "cifar10-like"
    assert cfg.optimizer.eta == 0.05
    assert cfg.optimizer.gamma == 0.75
    assert cfg.optimizer.mu == 0.001
    assert cfg.batch_size == 100

    cfg = parse_config_text("""
[experiment]
preset = cifar100-like
[optimizer]
eta = 0.3
""")
    assert cfg.optimizer.eta == 0.3  # explicit key beats the preset
    assert cfg.optimizer.gamma == 0.9


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
    assert cfg.lambda_values == (0.5, 1.0, 2.0, 4.0)
    with pytest.raises(ConfigError) as err:
        parse_config_text("[protocol]\npolicy = sync\nlambda = 1, 2\n")
    assert any("matrix" in v for v in err.value.violations)


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
        cfg = parse_config_text(f"[optimizer]\neta_in_velocity = {raw}\n")
        assert cfg.optimizer.eta_in_velocity is expect
    with pytest.raises(ConfigError):
        parse_config_text("[optimizer]\neta_in_velocity = maybe\n")


def test_mixing_bounds():
    cfg = parse_config_text("[weighting]\nscheme = fedasync_poly\nmixing = 1\n")
    assert cfg.weighting.mixing == 1.0
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
    proto = cfg.protocol(1.5)
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


def test_presets_registry_contents():
    assert set(PRESETS) == {"cifar10-like", "cifar100-like"}
