"""Experiment configuration: flat INI-style key-value files with sections.

Parsing is strict but total: every unknown section or key, failed cast, and
domain violation is collected, and :class:`ConfigError` reports the whole
list at once instead of stopping at the first problem. Every key has a
default, so an empty file is a valid experiment.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .controller import WeightingScheme
from .engine import ProtocolConfig
from .optimizers import OptimizerConfig
from .partition import PartitionSpec
from .tasks import TaskModel

DEFAULT_SEED = 1990

# Named hyperparameter bundles; explicit keys override preset values.
PRESETS = {
    "cifar10-like": {
        ("optimizer", "eta"): "0.05",
        ("optimizer", "gamma"): "0.75",
        ("optimizer", "mu"): "0.001",
        ("learners", "batch_size"): "100",
    },
    "cifar100-like": {
        ("optimizer", "eta"): "0.1",
        ("optimizer", "gamma"): "0.9",
        ("optimizer", "mu"): "0.001",
        ("learners", "batch_size"): "100",
    },
}

_SCHEMA: dict[str, dict[str, str]] = {
    "experiment": {"seed": str(DEFAULT_SEED), "output": "runs/experiment",
                   "preset": ""},
    "task": {
        "kind": "softmax_regression",
        "input_dim": "20",
        "num_classes": "10",
        "hidden_dim": "32",
        "activation": "relu",
        "per_class": "100",
        "test_per_class": "50",
        "cluster_spread": "1.0",
    },
    "partition": {
        "size_dist": "uniform",
        "class_dist": "iid",
        "classes_per_learner": "0",
        "ratio": "1.3",
        "exponent": "1.5",
        "class_count_override": "",
    },
    "learners": {
        "num_fast": "5",
        "num_slow": "5",
        "t_beta_fast_ms": "30",
        "t_beta_slow_ms": "300",
        "batch_size": "100",
    },
    "protocol": {
        "policy": "sync",
        "epochs": "4",
        "lambda": "2",
        "rounds": "10",
        "time_budget_ms": "60000",
        "eval_every": "1",
    },
    "optimizer": {
        "kind": "vanilla",
        "eta": "0.05",
        "gamma": "0.75",
        "mu": "0.001",
        "eta_in_velocity": "false",
    },
    "weighting": {
        "scheme": "fedavg_static",
        "mixing": "0.5",
        "rho": "0.005",
        "staleness_adaptive": "true",
    },
}


class ConfigError(ValueError):
    """Invalid experiment config; ``violations`` lists every problem."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__(
            "invalid config:\n" + "\n".join(f"  - {v}" for v in violations)
        )


@dataclass
class ExperimentConfig:
    seed: int
    out_dir: str
    task: TaskModel
    per_class: int
    test_per_class: int
    cluster_spread: float
    partition: PartitionSpec
    num_fast: int
    num_slow: int
    t_beta_fast_ms: float
    t_beta_slow_ms: float
    batch_size: int
    policy: str
    epochs: int
    lambda_values: tuple[float, ...]
    rounds: int
    time_budget_ms: float
    eval_every: int
    optimizer: OptimizerConfig
    weighting: WeightingScheme
    preset: str = ""
    source_text: str = ""

    @property
    def num_learners(self) -> int:
        return self.num_fast + self.num_slow

    def protocol(self, lam: float) -> ProtocolConfig:
        return ProtocolConfig(
            policy=self.policy,
            optimizer=self.optimizer,
            weighting=self.weighting,
            epochs=self.epochs,
            lam=lam,
            rounds=self.rounds,
            time_budget_ms=self.time_budget_ms,
            eval_every=self.eval_every,
        )


class _Reader:
    """Pulls typed values out of raw section/key strings, collecting every
    violation instead of raising on the first."""

    def __init__(self, values: dict[tuple[str, str], str]):
        self.values = values
        self.violations: list[str] = []

    def _raw(self, section: str, key: str) -> str:
        return self.values[(section, key)]

    def str_choice(self, section, key, choices=None) -> str:
        raw = self._raw(section, key).strip()
        if choices is not None and raw not in choices:
            self.violations.append(
                f"[{section}] {key}: {raw!r} not one of {sorted(choices)}"
            )
            return next(iter(choices))
        return raw

    def int_at_least(self, section, key, floor) -> int:
        raw = self._raw(section, key)
        try:
            value = int(raw)
        except ValueError:
            self.violations.append(f"[{section}] {key}: {raw!r} is not an integer")
            return floor
        if value < floor:
            self.violations.append(
                f"[{section}] {key}: must satisfy {key} >= {floor}, got {value}"
            )
            return floor
        return value

    def float_value(self, section, key, minimum=None, exclusive=False) -> float:
        raw = self._raw(section, key)
        try:
            value = float(raw)
        except ValueError:
            self.violations.append(f"[{section}] {key}: {raw!r} is not a number")
            return 1.0 if minimum is None else minimum + 1.0
        if minimum is not None:
            bad = value <= minimum if exclusive else value < minimum
            if bad:
                op = ">" if exclusive else ">="
                self.violations.append(
                    f"[{section}] {key}: must satisfy {key} {op} {minimum}, "
                    f"got {value}"
                )
                return minimum + 1.0
        return value

    def bool_value(self, section, key) -> bool:
        raw = self._raw(section, key).strip().lower()
        if raw in ("true", "yes", "1", "on"):
            return True
        if raw in ("false", "no", "0", "off"):
            return False
        self.violations.append(f"[{section}] {key}: {raw!r} is not a boolean")
        return False

    def float_list(self, section, key, minimum=None, exclusive=False):
        raw = self._raw(section, key)
        out = []
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                value = float(part)
            except ValueError:
                self.violations.append(
                    f"[{section}] {key}: {part!r} is not a number"
                )
                continue
            if minimum is not None:
                bad = value <= minimum if exclusive else value < minimum
                if bad:
                    op = ">" if exclusive else ">="
                    self.violations.append(
                        f"[{section}] {key}: must satisfy {key} {op} {minimum}, "
                        f"got {value:g}"
                    )
                    continue
            out.append(value)
        if not out:
            self.violations.append(f"[{section}] {key}: needs at least one value")
            out = [1.0]
        return tuple(out)

    def int_list(self, section, key):
        raw = self._raw(section, key)
        out = []
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                out.append(int(part))
            except ValueError:
                self.violations.append(
                    f"[{section}] {key}: {part!r} is not an integer"
                )
        return tuple(out)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate a config document; raises :class:`ConfigError`
    carrying all violations if anything is wrong."""
    violations: list[str] = []
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"unparseable config: {exc}"]) from None

    values = {
        (section, key): default
        for section, keys in _SCHEMA.items()
        for key, default in keys.items()
    }
    preset_name = ""
    if parser.has_option("experiment", "preset"):
        preset_name = parser.get("experiment", "preset").strip()
        if preset_name and preset_name not in PRESETS:
            violations.append(
                f"[experiment] preset: unknown preset {preset_name!r}, "
                f"known: {sorted(PRESETS)}"
            )
            preset_name = ""
    values.update(PRESETS.get(preset_name, {}))

    for section in parser.sections():
        if section not in _SCHEMA:
            violations.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                violations.append(f"[{section}] unknown key {key!r}")
            else:
                values[(section, key)] = raw

    r = _Reader(values)
    seed = r.int_at_least("experiment", "seed", 0)
    out_dir = r._raw("experiment", "output").strip()

    task_kind = r.str_choice("task", "kind", {"softmax_regression", "mlp1"})
    input_dim = r.int_at_least("task", "input_dim", 1)
    num_classes = r.int_at_least("task", "num_classes", 2)
    hidden_dim = r.int_at_least("task", "hidden_dim", 1)
    activation = r.str_choice("task", "activation", {"relu", "tanh"})
    per_class = r.int_at_least("task", "per_class", 1)
    test_per_class = r.int_at_least("task", "test_per_class", 1)
    cluster_spread = r.float_value("task", "cluster_spread", minimum=0.0)

    size_dist = r.str_choice(
        "partition", "size_dist", {"uniform", "skewed", "powerlaw"}
    )
    class_dist = r.str_choice("partition", "class_dist", {"iid", "non_iid"})
    classes_per_learner = r.int_at_least("partition", "classes_per_learner", 0)
    ratio = r.float_value("partition", "ratio", minimum=1.0, exclusive=True)
    exponent = r.float_value("partition", "exponent", minimum=0.0, exclusive=True)
    override = r.int_list("partition", "class_count_override")

    num_fast = r.int_at_least("learners", "num_fast", 0)
    num_slow = r.int_at_least("learners", "num_slow", 0)
    t_fast = r.float_value("learners", "t_beta_fast_ms", minimum=0.0, exclusive=True)
    t_slow = r.float_value("learners", "t_beta_slow_ms", minimum=0.0, exclusive=True)
    batch_size = r.int_at_least("learners", "batch_size", 1)

    policy = r.str_choice("protocol", "policy", {"sync", "semisync", "async"})
    epochs = r.int_at_least("protocol", "epochs", 1)
    lambda_values = r.float_list("protocol", "lambda", minimum=0.0, exclusive=True)
    rounds = r.int_at_least("protocol", "rounds", 1)
    time_budget_ms = r.float_value(
        "protocol", "time_budget_ms", minimum=0.0, exclusive=True
    )
    eval_every = r.int_at_least("protocol", "eval_every", 1)

    opt_kind = r.str_choice(
        "optimizer", "kind", {"vanilla", "momentum", "fedprox"}
    )
    eta = r.float_value("optimizer", "eta", minimum=0.0, exclusive=True)
    gamma = r.float_value("optimizer", "gamma", minimum=0.0)
    mu = r.float_value("optimizer", "mu", minimum=0.0)
    eta_in_velocity = r.bool_value("optimizer", "eta_in_velocity")

    scheme = r.str_choice(
        "weighting", "scheme",
        {"fedavg_static", "fedrec_staleness", "fedasync_poly"},
    )
    mixing = r.float_value("weighting", "mixing", minimum=0.0, exclusive=True)
    rho = r.float_value("weighting", "rho", minimum=0.0)
    staleness_adaptive = r.bool_value("weighting", "staleness_adaptive")

    violations.extend(r.violations)

    if num_fast + num_slow < 1:
        violations.append("[learners] num_fast + num_slow must be >= 1")
    if class_dist == "non_iid" and classes_per_learner < 1 and not override:
        violations.append(
            "[partition] classes_per_learner: non_iid needs a value >= 1"
        )
    if gamma >= 1.0:
        violations.append(
            f"[optimizer] gamma: must satisfy gamma < 1, got {gamma}"
        )
    if mixing > 1.0:
        violations.append(
            f"[weighting] mixing: must satisfy mixing <= 1, got {mixing}"
        )
    if policy != "semisync" and len(lambda_values) > 1:
        violations.append(
            "[protocol] lambda: a lambda list (matrix mode) requires "
            "policy = semisync"
        )

    if violations:
        raise ConfigError(violations)

    try:
        task = TaskModel(
            kind=task_kind,
            input_dim=input_dim,
            num_classes=num_classes,
            hidden_dim=hidden_dim,
            activation=activation,
        )
        partition = PartitionSpec(
            num_learners=num_fast + num_slow,
            size_dist=size_dist,
            class_dist=class_dist,
            classes_per_learner=classes_per_learner,
            ratio=ratio,
            exponent=exponent,
            class_count_override=override if override else None,
        )
        optimizer = OptimizerConfig(
            kind=opt_kind, eta=eta, gamma=gamma, mu=mu,
            eta_in_velocity=eta_in_velocity,
        )
        weighting = WeightingScheme(
            kind=scheme, mixing=mixing, rho=rho,
            staleness_adaptive=staleness_adaptive,
        )
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None
    return ExperimentConfig(
        seed=seed,
        out_dir=out_dir,
        task=task,
        per_class=per_class,
        test_per_class=test_per_class,
        cluster_spread=cluster_spread,
        partition=partition,
        num_fast=num_fast,
        num_slow=num_slow,
        t_beta_fast_ms=t_fast,
        t_beta_slow_ms=t_slow,
        batch_size=batch_size,
        policy=policy,
        epochs=epochs,
        lambda_values=lambda_values,
        rounds=rounds,
        time_budget_ms=time_budget_ms,
        eval_every=eval_every,
        optimizer=optimizer,
        weighting=weighting,
        preset=preset_name,
        source_text=text,
    )


def parse_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
