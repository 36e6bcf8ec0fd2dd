"""Experiment configuration: flat INI-style key-value files with sections.

Every key is declared once, in :data:`SCHEMA`, with its default and the
parser that types and bounds it. Parsing is strict but total: every unknown
section or key, failed cast, and domain violation is collected, and
:class:`ConfigError` reports the whole list at once instead of stopping at
the first problem. A key that fails its parser is left out of the parsed
values, and a check across keys runs only when every key it reads parsed,
so one bad value never reports a second, made-up one. Every key has a
default, so an empty file is a valid experiment.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .controller import WEIGHTING_KINDS, WeightingScheme
from .engine import POLICIES, ProtocolConfig, ms_to_us
from .optimizers import OPTIMIZER_KINDS, OptimizerConfig
from .partition import CLASS_DISTS, SIZE_DISTS, PartitionSpec
from .tasks import ACTIVATIONS, TASK_KINDS, TaskModel

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


# Parsers take (key, raw text) and return a typed value, or raise ValueError
# whose args are the violation texts, without the "[section] key: " prefix.

def _int(low=None):
    def parse(key, raw):
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{raw!r} is not an integer") from None
        if low is not None and value < low:
            raise ValueError(f"must satisfy {key} >= {low}, got {value}")
        return value
    return parse


def _float(low, strict=False, below=None, upto=None, spec=""):
    """A finite number ``>= low`` (``> low`` if strict), optionally
    ``< below`` or ``<= upto``; ``spec`` formats the value in the
    lower-bound message."""
    def parse(key, raw):
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"{raw!r} is not a number") from None
        if not math.isfinite(value):
            raise ValueError(f"must be a finite number, got {value}")
        if value <= low if strict else value < low:
            op = ">" if strict else ">="
            raise ValueError(
                f"must satisfy {key} {op} {low}, got {value:{spec}}"
            )
        if below is not None and value >= below:
            raise ValueError(f"must satisfy {key} < {below}, got {value}")
        if upto is not None and value > upto:
            raise ValueError(f"must satisfy {key} <= {upto}, got {value}")
        return value
    return parse


def _choice(options):
    def parse(key, raw):
        raw = raw.strip()
        if raw not in options:
            raise ValueError(f"{raw!r} not one of {sorted(options)}")
        return raw
    return parse


def _bool(key, raw):
    raw = raw.strip().lower()
    if raw in ("true", "yes", "1", "on"):
        return True
    if raw in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"{raw!r} is not a boolean")


def _text(key, raw):
    return raw.strip()


def _list(item, nonempty=False):
    """Comma-separated ``item`` values; blank entries are skipped, and
    every bad entry is reported."""
    def parse(key, raw):
        values, errors = [], []
        for part in raw.split(","):
            part = part.strip()
            if part:
                try:
                    values.append(item(key, part))
                except ValueError as exc:
                    errors.extend(exc.args)
        if nonempty and not values:
            errors.append("needs at least one value")
        if errors:
            raise ValueError(*errors)
        return tuple(values)
    return parse


def _latency(key, raw):
    """Per-batch milliseconds; at least one whole clock microsecond."""
    value = _float(0.0, strict=True)(key, raw)
    if ms_to_us(value) < 1:
        raise ValueError(
            f"must round to at least 1 us (0.0005 ms), got {value}"
        )
    return value


# section -> key -> (default text, parser)
SCHEMA = {
    "experiment": {
        "seed": (str(DEFAULT_SEED), _int(0)),
        "output": ("runs/experiment", _text),
        "preset": ("", _text),
    },
    "task": {
        "kind": ("softmax_regression", _choice(TASK_KINDS)),
        "input_dim": ("20", _int(1)),
        "num_classes": ("10", _int(2)),
        "hidden_dim": ("32", _int(1)),
        "activation": ("relu", _choice(ACTIVATIONS)),
        "per_class": ("100", _int(1)),
        "test_per_class": ("50", _int(1)),
        "cluster_spread": ("1.0", _float(0.0)),
    },
    "partition": {
        "size_dist": ("uniform", _choice(SIZE_DISTS)),
        "class_dist": ("iid", _choice(CLASS_DISTS)),
        "classes_per_learner": ("0", _int(0)),
        "ratio": ("1.3", _float(1.0, strict=True)),
        "exponent": ("1.5", _float(0.0, strict=True)),
        "class_count_override": ("", _list(_int())),
    },
    "learners": {
        "num_fast": ("5", _int(0)),
        "num_slow": ("5", _int(0)),
        "t_beta_fast_ms": ("30", _latency),
        "t_beta_slow_ms": ("300", _latency),
        "batch_size": ("100", _int(1)),
    },
    "protocol": {
        "policy": ("sync", _choice(POLICIES)),
        "epochs": ("4", _int(1)),
        "lambda": ("2", _list(_float(0.0, strict=True, spec="g"),
                              nonempty=True)),
        "rounds": ("10", _int(1)),
        "time_budget_ms": ("60000", _float(0.0, strict=True)),
        "eval_every": ("1", _int(1)),
    },
    "optimizer": {
        "kind": ("vanilla", _choice(OPTIMIZER_KINDS)),
        "eta": ("0.05", _float(0.0, strict=True)),
        "gamma": ("0.75", _float(0.0, below=1)),
        "mu": ("0.001", _float(0.0)),
        "eta_in_velocity": ("false", _bool),
    },
    "weighting": {
        "scheme": ("fedavg_static", _choice(WEIGHTING_KINDS)),
        "mixing": ("0.5", _float(0.0, strict=True, upto=1)),
        "rho": ("0.005", _float(0.0)),
        "staleness_adaptive": ("true", _bool),
    },
}

# Checks across keys of one section: (section, keys, rule, violation).
# Each runs only when every key it reads parsed.
_CHECKS = (
    ("learners", ("num_fast", "num_slow"),
     lambda fast, slow: fast + slow >= 1,
     "[learners] num_fast + num_slow must be >= 1"),
    ("partition", ("class_dist", "classes_per_learner", "class_count_override"),
     lambda dist, count, override: dist != "non_iid" or count >= 1 or override,
     "[partition] classes_per_learner: non_iid needs a value >= 1"),
    ("protocol", ("policy", "lambda"),
     lambda policy, lams: policy == "semisync" or len(lams) == 1,
     "[protocol] lambda: a lambda list (matrix mode) requires "
     "policy = semisync"),
)


class ConfigError(ValueError):
    """Invalid experiment config; ``violations`` lists every problem."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__(
            "invalid config:\n" + "\n".join(f"  - {v}" for v in violations)
        )


@dataclass
class ExperimentConfig:
    """A parsed experiment. ``protocol`` holds the first lambda value; a
    semisync run with several values runs one cell per value."""

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
    protocol: ProtocolConfig
    lambda_values: tuple[float, ...]
    preset: str = ""
    source_text: str = ""

    @property
    def num_learners(self) -> int:
        return self.num_fast + self.num_slow


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate a config document; raises :class:`ConfigError`
    carrying all violations if anything is wrong."""
    violations: list[str] = []
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"unparseable config: {exc}"]) from None

    raw = {
        section: {key: default for key, (default, _) in keys.items()}
        for section, keys in SCHEMA.items()
    }
    preset = parser.get("experiment", "preset", fallback="").strip()
    if preset and preset not in PRESETS:
        violations.append(
            f"[experiment] preset: unknown preset {preset!r}, "
            f"known: {sorted(PRESETS)}"
        )
    for (section, key), value in PRESETS.get(preset, {}).items():
        raw[section][key] = value

    for section in parser.sections():
        if section not in SCHEMA:
            violations.append(f"unknown section [{section}]")
            continue
        for key, value in parser.items(section):
            if key not in SCHEMA[section]:
                violations.append(f"[{section}] unknown key {key!r}")
            else:
                raw[section][key] = value

    values: dict[str, dict] = {}
    for section, keys in SCHEMA.items():
        got = values[section] = {}
        for key, (_, parse) in keys.items():
            try:
                got[key] = parse(key, raw[section][key])
            except ValueError as exc:
                violations.extend(f"[{section}] {key}: {m}" for m in exc.args)
    for section, keys, rule, message in _CHECKS:
        got = values[section]
        if all(k in got for k in keys) and not rule(*(got[k] for k in keys)):
            violations.append(message)
    if violations:
        raise ConfigError(violations)

    experiment, task, learners, partition, protocol, weighting = (
        values[s] for s in ("experiment", "task", "learners", "partition",
                            "protocol", "weighting")
    )
    data = {k: task.pop(k)
            for k in ("per_class", "test_per_class", "cluster_spread")}
    lambda_values = protocol.pop("lambda")
    try:
        task_model = TaskModel(**task)
        partition_spec = PartitionSpec(
            num_learners=learners["num_fast"] + learners["num_slow"],
            **{**partition, "class_count_override":
               partition["class_count_override"] or None},
        )
        protocol_config = ProtocolConfig(
            optimizer=OptimizerConfig(**values["optimizer"]),
            weighting=WeightingScheme(kind=weighting.pop("scheme"),
                                      **weighting),
            lam=lambda_values[0], **protocol,
        )
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None
    return ExperimentConfig(
        seed=experiment["seed"], out_dir=experiment["output"],
        preset=experiment["preset"], task=task_model,
        partition=partition_spec, protocol=protocol_config,
        lambda_values=lambda_values, source_text=text, **data, **learners,
    )


def parse_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
