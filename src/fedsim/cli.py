"""Command line entry point.

One subcommand::

    fedsim run <config> [--out DIR] [--seed N] [--report-partitions-only]

``--seed`` and ``--out`` replace ``[experiment] seed`` and ``output``
before the config is parsed, so they are checked as those keys are, and a
relative output path resolves under $FEDSIM_OUTPUT_ROOT when it is set.
The aggregation cache's microbenchmark is ``tools/bench_cache.py``.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, parse_config
from .partition import PartitionError
from .runner import run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic federation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment described by a config file")
    run_p.add_argument("config", help="path to the experiment config")
    run_p.add_argument("--out", help="replaces [experiment] output")
    run_p.add_argument("--seed", help="replaces [experiment] seed")
    run_p.add_argument(
        "--report-partitions-only",
        action="store_true",
        help="emit the partition report without training",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.seed, args.out)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        return run_experiment(cfg, partitions_only=args.report_partitions_only)
    except PartitionError as exc:
        # Raised while building the world, before any output is written:
        # the config asks for a partition this dataset cannot realize.
        print(str(ConfigError([str(exc)])), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
