"""Experiment configuration: flat INI-style key-value files with sections.

Every key is declared once, in :data:`SCHEMA`, with its default and the
parser that types and bounds it; one number parser serves every int and
float key. Parsing is strict but total: every unknown section or key,
failed cast, and domain violation is collected, and :class:`ConfigError`
reports the whole list at once instead of stopping at the first problem.
A key that fails its parser is left out of the parsed values, and a check
across keys runs only when every key it reads parsed, so one bad value
never reports a second, made-up one. Every key has a default, so an empty
file is a valid experiment.

The command line's ``--seed`` and ``--out`` are parsed here too: a flag's
text replaces its ``[experiment]`` key's before the schema parses it. A
relative output path is joined to ``$FEDSIM_OUTPUT_ROOT`` when that is set,
so the parsed seed and output directory are the ones the run uses.
The run's cells are parsed here as well: the loop that refuses two lambda
values sharing a cell builds the ``(name, lambda)`` list the runner
iterates.
"""

from __future__ import annotations

import configparser
import io
import math
import os
from dataclasses import dataclass

from .controller import WEIGHTING_KINDS, WeightingScheme
from .engine import POLICIES, ProtocolConfig, ms_to_us
from .optimizers import OPTIMIZER_KINDS, OptimizerConfig
from .partition import CLASS_DISTS, SIZE_DISTS, PartitionSpec
from .tasks import ACTIVATIONS, TASK_KINDS, TaskModel

DEFAULT_SEED = 1990
OUTPUT_ROOT_ENV = "FEDSIM_OUTPUT_ROOT"


# Parsers take (key, raw text) and return a typed value, or raise ValueError
# whose args are the violation texts, without the "[section] key: " prefix.

def _number(cast, low=None, strict=False, below=None, upto=None, spec="",
            min_us=None):
    """An ``int`` or ``float`` (``cast``) ``>= low`` (``> low`` if strict),
    optionally ``< below`` or ``<= upto``; ``spec`` formats the value in
    the lower-bound message. A float must be finite. With ``min_us`` the
    value is milliseconds that round to at least that many whole clock
    microseconds; a count past the float range fails in ``ms_to_us``."""
    def parse(key, raw):
        try:
            value = cast(raw)
        except ValueError:
            kind = "an integer" if cast is int else "a number"
            raise ValueError(f"{raw!r} is not {kind}") from None
        # Only a float: an int past the float range is a valid count.
        if cast is float and not math.isfinite(value):
            raise ValueError(f"must be a finite number, got {value}")
        if low is not None and (value <= low if strict else value < low):
            op = ">" if strict else ">="
            raise ValueError(
                f"must satisfy {key} {op} {low}, got {value:{spec}}"
            )
        if below is not None and value >= below:
            raise ValueError(f"must satisfy {key} < {below}, got {value}")
        if upto is not None and value > upto:
            raise ValueError(f"must satisfy {key} <= {upto}, got {value}")
        if min_us is not None and ms_to_us(value) < min_us:
            raise ValueError(
                f"must round to at least {min_us} us "
                f"({(min_us - 0.5) / 1000:g} ms), got {value}"
            )
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


def _output(key, raw):
    """A path; a relative one is joined to the output root when it is set."""
    out, root = raw.strip(), os.environ.get(OUTPUT_ROOT_ENV, "")
    return os.path.join(root, out) if root and not os.path.isabs(out) else out


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


# section -> key -> (default text, parser)
SCHEMA = {
    "experiment": {
        "seed": (str(DEFAULT_SEED), _number(int, 0)),
        "output": ("runs/experiment", _output),
    },
    "task": {
        "kind": ("softmax_regression", _choice(TASK_KINDS)),
        "input_dim": ("20", _number(int, 1)),
        "num_classes": ("10", _number(int, 2)),
        "hidden_dim": ("32", _number(int, 1)),
        "activation": ("relu", _choice(ACTIVATIONS)),
        "per_class": ("100", _number(int, 1)),
        "test_per_class": ("50", _number(int, 1)),
        "cluster_spread": ("1.0", _number(float, 0.0)),
    },
    "partition": {
        "size_dist": ("uniform", _choice(SIZE_DISTS)),
        "class_dist": ("iid", _choice(CLASS_DISTS)),
        "classes_per_learner": ("0", _number(int, 0)),
        "ratio": ("1.3", _number(float, 1.0, strict=True)),
        "exponent": ("1.5", _number(float, 0.0, strict=True)),
        "class_count_override": ("", _list(_number(int))),
    },
    "learners": {
        "num_fast": ("5", _number(int, 0)),
        "num_slow": ("5", _number(int, 0)),
        "t_beta_fast_ms": ("30", _number(float, 0.0, strict=True, min_us=1)),
        "t_beta_slow_ms": ("300", _number(float, 0.0, strict=True, min_us=1)),
        "batch_size": ("100", _number(int, 1)),
    },
    "protocol": {
        "policy": ("sync", _choice(POLICIES)),
        "epochs": ("4", _number(int, 1)),
        "lambda": ("2", _list(_number(float, 0.0, strict=True, spec="g"),
                              nonempty=True)),
        "rounds": ("10", _number(int, 1)),
        "time_budget_ms": ("60000", _number(float, 0.0, strict=True, min_us=0)),
        "eval_every": ("1", _number(int, 1)),
    },
    "optimizer": {
        "kind": ("vanilla", _choice(OPTIMIZER_KINDS)),
        "eta": ("0.05", _number(float, 0.0, strict=True)),
        "gamma": ("0.75", _number(float, 0.0, below=1)),
        "mu": ("0.001", _number(float, 0.0)),
    },
    "weighting": {
        "scheme": ("fedavg_static", _choice(WEIGHTING_KINDS)),
        "mixing": ("0.5", _number(float, 0.0, strict=True, upto=1)),
        "rho": ("0.005", _number(float, 0.0)),
        "staleness_adaptive": ("true", _bool),
    },
}

# Checks of parsed keys of one section: (section, keys, rule, violation).
# Each runs only when every key it reads parsed.
_CHECKS = (
    ("experiment", ("output",), bool,
     "the output path is empty: set [experiment] output or pass --out"),
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


def cell_name(lam: float) -> str:
    """The output directory of the semisync matrix cell run at ``lam``."""
    return f"lam-{lam:g}"


class ConfigError(ValueError):
    """Invalid experiment config; ``violations`` lists every problem."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__(
            "invalid config:\n" + "\n".join(f"  - {v}" for v in violations)
        )


@dataclass
class ExperimentConfig:
    """A parsed experiment. ``cells`` lists the run's ``(name, lambda)``
    cells: ``(("", lam),)`` for one lambda value, written straight into
    ``out_dir``, and one ``(cell_name(lam), lam)`` per value of a semisync
    lambda list, in file order. ``protocol`` holds the first value.
    ``seed`` and ``out_dir`` are the run's own, flags and output root
    applied."""

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
    cells: tuple[tuple[str, float], ...]
    source_text: str = ""

    @property
    def num_learners(self) -> int:
        return self.num_fast + self.num_slow


def parse_config_text(
    text: str, source: str = "<string>", seed: str | None = None,
    output: str | None = None,
) -> ExperimentConfig:
    """Parse and validate a config document; raises :class:`ConfigError`
    carrying all violations if anything is wrong. ``source`` names the
    document in a syntax error; ``seed`` and ``output``, when given, are the
    text of ``[experiment] seed`` and ``output`` in place of the
    document's."""
    violations: list[str] = []
    # No header can spell a newline, so [DEFAULT] is an ordinary section
    # (an unknown one) instead of defaults for every other section.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        # Universal newlines, as a text-mode read of the file would give.
        parser.read_file(io.StringIO(text, newline=None), source=source)
    except configparser.Error as exc:
        raise ConfigError([f"unparseable config: {exc}"]) from None

    raw = {
        section: {key: default for key, (default, _) in keys.items()}
        for section, keys in SCHEMA.items()
    }
    for section in parser.sections():
        if section not in SCHEMA:
            violations.append(f"unknown section [{section}]")
            continue
        for key, value in parser.items(section):
            if key not in SCHEMA[section]:
                violations.append(f"[{section}] unknown key {key!r}")
            else:
                raw[section][key] = value
    for key, flag in (("seed", seed), ("output", output)):
        if flag is not None:
            raw["experiment"][key] = flag

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
    got, cells = values["protocol"], {}
    if got.get("policy") == "semisync":  # one cell per lambda value
        for lam in got.get("lambda", ()):
            name = cell_name(lam)
            if name in cells:
                violations.append(f"[protocol] lambda: {cells[name]!r} and "
                                  f"{lam!r} share the cell {name}")
            cells.setdefault(name, lam)
    # One quota per learner: a check across sections, also made by
    # PartitionSpec for library callers, here so it joins the list.
    override = values["partition"].get("class_count_override")
    learners = values["learners"]
    if override and "num_fast" in learners and "num_slow" in learners:
        n = learners["num_fast"] + learners["num_slow"]
        if len(override) != n:
            violations.append(
                f"[partition] class_count_override: must list one quota per "
                f"learner ({n}), got {len(override)}")
    if violations:
        raise ConfigError(violations)

    experiment, task, learners, partition, protocol, weighting = (
        values[s] for s in ("experiment", "task", "learners", "partition",
                            "protocol", "weighting")
    )
    data = {k: task.pop(k)
            for k in ("per_class", "test_per_class", "cluster_spread")}
    lams = protocol.pop("lambda")
    # Every dataclass check below is implied by a SCHEMA bound or choice or
    # a _CHECKS rule, so none raises here.
    task_model = TaskModel(**task)
    partition_spec = PartitionSpec(
        num_learners=learners["num_fast"] + learners["num_slow"],
        **{**partition, "class_count_override":
           partition["class_count_override"] or None},
    )
    protocol_config = ProtocolConfig(
        optimizer=OptimizerConfig(**values["optimizer"]),
        weighting=WeightingScheme(kind=weighting.pop("scheme"), **weighting),
        lam=lams[0], **protocol,
    )
    return ExperimentConfig(
        seed=experiment["seed"], out_dir=experiment["output"],
        task=task_model, partition=partition_spec, protocol=protocol_config,
        cells=tuple(cells.items()) if len(lams) > 1 else (("", lams[0]),),
        source_text=text, **data, **learners,
    )


def parse_config(
    path: str, seed: str | None = None, output: str | None = None
) -> ExperimentConfig:
    # newline="" keeps the file's line endings in ``source_text``, so the
    # cell's config.txt echoes the file byte for byte.
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_config_text(fh.read(), path, seed, output)
