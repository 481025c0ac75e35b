#!/usr/bin/env python3
"""Reproduce the headline mining-on vs mining-off comparison.

Runs paired seed sweeps at 20 and 50 nodes (10 services, 5-entry FIFO
cache, eta = 0.8, support = 0.8) and writes one CSV per network size
plus a summary to stdout.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from corrdisc.experiment import ExperimentSpec, format_summary, run_experiment, write_csv
from corrdisc.netsim import SimConfig


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=30, help="seeds per sweep")
    parser.add_argument("--jobs", type=int, default=2, help="parallel workers")
    parser.add_argument("--out-dir", default="results", help="output directory")
    args = parser.parse_args(argv)
    for name in ("seeds", "jobs"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be >= 1, got {getattr(args, name)}")

    os.makedirs(args.out_dir, exist_ok=True)
    for label, nodes in (("20nodes", 20), ("50nodes", 50)):
        spec = ExperimentSpec(base=SimConfig(node_count=nodes, service_count=10),
                              seeds=tuple(range(args.seeds)))
        rows = run_experiment(spec, jobs=args.jobs)
        path = os.path.join(args.out_dir, f"satisfaction_{label}.csv")
        write_csv(rows, path)
        print(f"== {nodes} nodes, {args.seeds} paired seeds -> {path}")
        print(format_summary(rows))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
