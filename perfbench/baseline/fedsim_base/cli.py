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
from .runner import bench_cache, resolve_out_dir, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic federation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment described by a config file")
    run_p.add_argument("config", help="path to the experiment config")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--seed", type=int, default=None, help="seed override")
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
        "--learners", type=int, nargs="+", default=[10, 100, 1000],
        help="learner counts to sweep",
    )
    bench_p.add_argument(
        "--sizes", type=int, nargs="+", default=[10_000],
        help="total model entries to sweep",
    )
    bench_p.add_argument("--repeats", type=int, default=5)
    bench_p.add_argument(
        "--out", default=None, help="write the timing table to this CSV file"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        try:
            cfg = parse_config(args.config)
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 2
        return run_experiment(
            cfg,
            out_override=args.out,
            seed_override=args.seed,
            partitions_only=args.report_partitions_only,
        )
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


if __name__ == "__main__":
    sys.exit(main())
