"""Command line entry points.

Two subcommands::

    fedsim run <config> [--out DIR] [--seed N] [--report-partitions-only]
    fedsim bench-cache [--learners N ...] [--sizes M ...] [--repeats K]
                       [--out FILE]

Relative output paths resolve under $FEDSIM_OUTPUT_ROOT when it is set.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, parse_config
from .partition import PartitionError
from .runner import bench_cache, resolve_out_dir, run_experiment


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

    bench_p = sub.add_parser(
        "bench-cache",
        help="time incremental aggregation against full recomputation",
    )
    bench_p.add_argument(
        "--learners", type=_int_at_least(1), nargs="+",
        default=[10, 100, 1000],
        help="learner counts to sweep, at least two distinct",
    )
    bench_p.add_argument(
        "--sizes", type=_int_at_least(3), nargs="+", default=[10_000],
        help="total model entries to sweep (three layers, so at least 3)",
    )
    bench_p.add_argument(
        "--repeats", type=_int_at_least(2), default=5,
        help="timed repeats per point (a line fit needs two)",
    )
    bench_p.add_argument(
        "--out", default=None, help="write the timing table to this CSV file"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
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
    if len(set(args.learners)) < 2:
        parser.error("bench-cache: --learners needs at least two distinct "
                     "counts to fit a line")
    out_path = resolve_out_dir(args.out) if args.out else None
    _, fits = bench_cache(
        learner_counts=tuple(args.learners),
        model_entries=tuple(args.sizes),
        repeats=args.repeats,
        out_path=out_path,
    )
    for (mode, entries), fit in sorted(fits.items()):
        print(
            f"{mode:>9}  entries={entries:<8d} "
            f"slope={fit['slope']:.3e} s/learner  "
            f"p={fit['slope_pvalue']:.3f}  R^2={fit['r_squared']:.3f}"
        )
    return 0
