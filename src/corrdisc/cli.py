"""Command-line entry points.

    corrdisc run config.txt [--out results.csv] [--jobs N] [--trace DIR]
    corrdisc mine transactions.txt 0.8 [--oracle]
    corrdisc gen-cm 10 42

The config file alone sets the simulation and its seeds; the flags set
only where output goes and how many workers run, and override no key.
"""

from __future__ import annotations

import argparse
import sys

from .experiment import ConfigError, format_summary, parse_config, run_experiment, write_csv
from .mining import (brute_force_frequent_itemsets, mine_frequent_itemsets,
                     parse_transactions_text)
from .netsim import substreams
from .packets import ID_LIMIT
from .workload import build_correlation_matrix, cm_to_text


def _cmd_run(args) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        with open(args.config, encoding="utf-8") as fh:
            spec = parse_config(fh.read())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, UnicodeDecodeError) as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        rows = run_experiment(spec, jobs=args.jobs, trace_dir=args.trace)
    except Exception as exc:  # a failed run must not exit 0
        print(f"error: experiment failed: {exc}", file=sys.stderr)
        return 1
    try:
        write_csv(rows, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(format_summary(rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_mine(args) -> int:
    try:
        with open(args.transactions, encoding="utf-8") as fh:
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
    if args.services > ID_LIMIT:
        print(f"error: service_count must be at most {ID_LIMIT}, got {args.services}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"error: seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    # A run's workload substream: the dump is the matrix a run at this seed uses.
    _, _, workload_rng = substreams(args.seed)
    cm = build_correlation_matrix(args.services, workload_rng)
    print(cm_to_text(cm))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrdisc",
        description="Correlation-aware service discovery experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a paired mining-on/off seed sweep")
    p_run.add_argument("config", help="key = value experiment config file")
    p_run.add_argument("--out", default="results.csv",
                       help="CSV output path (default %(default)s)")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes")
    p_run.add_argument("--trace", help="directory for per-run event traces")
    p_run.set_defaults(func=_cmd_run)

    p_mine = sub.add_parser(
        "mine", help="exact frequent-itemset mining of a transaction file (vertical "
                     "bitsets, checked against the brute-force oracle)")
    p_mine.add_argument("transactions", help="one transaction per line")
    p_mine.add_argument("support", type=float, help="support fraction in (0, 1]")
    p_mine.add_argument("--oracle", action="store_true",
                        help="use the brute-force oracle instead of the bitset miner")
    p_mine.set_defaults(func=_cmd_mine)

    p_cm = sub.add_parser("gen-cm", help="dump a correlation matrix")
    p_cm.add_argument("services", type=int, help="service count n")
    p_cm.add_argument("seed", type=int, help="experiment seed")
    p_cm.set_defaults(func=_cmd_gen_cm)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
