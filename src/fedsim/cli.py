"""Command line entry point.

One subcommand::

    fedsim run <config> [--out DIR] [--seed N] [--report-partitions-only]

Relative output paths resolve under $FEDSIM_OUTPUT_ROOT when it is set.
The aggregation cache's microbenchmark is ``tools/bench_cache.py``.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, parse_config
from .partition import PartitionError
from .runner import run_experiment


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic federation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment described by a config file")
    run_p.add_argument("config", help="path to the experiment config")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument(
        "--seed", type=_int_at_least(0), default=None, help="seed override"
    )
    run_p.add_argument(
        "--report-partitions-only",
        action="store_true",
        help="emit the partition report without training",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        return run_experiment(
            cfg,
            out_override=args.out,
            seed_override=args.seed,
            partitions_only=args.report_partitions_only,
        )
    except ConfigError as exc:
        # An output path that resolves to nothing.
        print(str(exc), file=sys.stderr)
        return 2
    except PartitionError as exc:
        # Raised while building the world, before any output is written:
        # the config asks for a partition this dataset cannot realize.
        print(str(ConfigError([str(exc)])), file=sys.stderr)
        return 2
