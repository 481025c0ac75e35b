#!/usr/bin/env python3
"""Regenerate ``pinned_counters.json``, the correctness gate's reference.

Pins ``PINNED_COUNTERS`` of every run the default sweep (``--seed 0``)
of each workload makes, and of the sweeps of root seeds up to
``EXTRA_ROOTS`` past it.  Rerun only when a change is meant to alter
what those counters count, and say so where the change is described:

    python3 perfbench/pin_counters.py
"""

import json
import sys

import run as bench
from corrdisc.experiment import ExperimentSpec, run_experiment

EXTRA_ROOTS = 9


def main() -> int:
    pins = {}
    for name, workload in bench.WORKLOADS.items():
        spec = ExperimentSpec(base=workload.base_config(),
                              seeds=tuple(range(workload.seeds + EXTRA_ROOTS)))
        pins[name] = {f"{row.seed}:{row.variant}":
                      {c: getattr(row.metrics, c) for c in bench.PINNED_COUNTERS}
                      for row in run_experiment(spec, jobs=1)}
        print(f"{name}: {len(pins[name])} runs pinned", file=sys.stderr)
    with open(bench.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
