"""Command-line entry points.

    corrdisc run config.txt --out results.csv [--jobs N] [--trace DIR]
    corrdisc mine transactions.txt 0.8 [--oracle]
    corrdisc gen-cm 10 42

``CORRDISC_LOG`` (debug/info/warning/error, any case) sets diagnostic
verbosity; any other value is an error (exit 2).
Simulation defaults are overridable in the config file only; the flags
above are the only command-line overrides.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from numpy.random import SeedSequence, default_rng

from .experiment import (ConfigError, parse_config, run_experiment, write_csv,
                         write_summary)
from .mining import (brute_force_frequent_itemsets, mine_frequent_itemsets,
                     parse_transactions_text)
from .workload import build_correlation_matrix, cm_to_text


def _setup_logging() -> bool:
    """Configure logging from ``CORRDISC_LOG``; False if it names no level."""
    level = os.environ.get("CORRDISC_LOG", "warning")
    if level.lower() not in ("debug", "info", "warning", "error"):
        print(f"error: CORRDISC_LOG must be debug|info|warning|error, got {level!r}",
              file=sys.stderr)
        return False
    logging.basicConfig(level=level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    return True


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            spec = parse_config(fh.read())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return 2
    out = args.out or spec.output or "results.csv"
    try:
        rows = run_experiment(spec, jobs=args.jobs, trace_dir=args.trace)
    except Exception as exc:  # a failed run must not exit 0
        print(f"error: experiment failed: {exc}", file=sys.stderr)
        return 1
    try:
        write_csv(rows, out)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    write_summary(rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_mine(args) -> int:
    try:
        with open(args.transactions) as fh:
            transactions = parse_transactions_text(fh.read())
    except OSError as exc:
        print(f"error: cannot read transactions: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {args.transactions}: {exc}", file=sys.stderr)
        return 2
    if not 0.0 < args.support <= 1.0:
        print(f"error: support must be in (0, 1], got {args.support}", file=sys.stderr)
        return 2
    miner = brute_force_frequent_itemsets if args.oracle else mine_frequent_itemsets
    try:
        itemsets = miner(transactions, args.support)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for items, count in sorted(itemsets.items(),
                               key=lambda kv: (-kv[1], len(kv[0]), sorted(kv[0]))):
        print(" ".join(str(i) for i in sorted(items)) + f"\t{count}")
    return 0


def _cmd_gen_cm(args) -> int:
    if args.services < 1:
        print("error: need at least one service", file=sys.stderr)
        return 2
    # Same substream derivation as a simulation run, so the dump matches
    # the matrix an experiment with this seed would use.
    _, _, workload_seq = SeedSequence(args.seed).spawn(3)
    cm = build_correlation_matrix(args.services, default_rng(workload_seq))
    print(cm_to_text(cm))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrdisc",
        description="Correlation-aware service discovery experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a paired mining-on/off seed sweep")
    p_run.add_argument("config", help="key = value experiment config file")
    p_run.add_argument("--out", help="CSV output path (default results.csv)")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes")
    p_run.add_argument("--trace", help="directory for per-run event traces")
    p_run.set_defaults(func=_cmd_run)

    p_mine = sub.add_parser("mine", help="mine a transaction file standalone")
    p_mine.add_argument("transactions", help="one transaction per line")
    p_mine.add_argument("support", type=float, help="support fraction in (0, 1]")
    p_mine.add_argument("--oracle", action="store_true",
                        help="use the brute-force oracle instead of FP-Growth")
    p_mine.set_defaults(func=_cmd_mine)

    p_cm = sub.add_parser("gen-cm", help="dump a correlation matrix")
    p_cm.add_argument("services", type=int, help="service count n")
    p_cm.add_argument("seed", type=int, help="experiment seed")
    p_cm.set_defaults(func=_cmd_gen_cm)
    return parser


def main(argv: list[str] | None = None) -> int:
    if not _setup_logging():
        return 2
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
