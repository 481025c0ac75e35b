"""The trace-identity gate: every saved run's trace hash, line count and
Metrics, one JSON line each in ``tests/data/trace_digest.jsonl``.

This module's ``__main__`` is the file's only writer, and each case compares
the very line it prints.  A change that alters traces or Metrics on purpose
regenerates the file and says so in CHANGES.md:

    PYTHONPATH=src python tests/test_trace_digest.py > tests/data/trace_digest.jsonl
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from corrdisc.experiment import VARIANTS, variant_config
from corrdisc.netsim import SimConfig, run
from test_netsim import (CHURN, FLOOD50, GOLDEN_DENSE, GOLDEN_REGRESSION, GOLDEN_SLOW_HOPS,
                         MINE_HEAVY)

SAVED = Path(__file__).resolve().parent / "data" / "trace_digest.jsonl"

# name: base config, run at seeds 0, 3 and 7 in both variants
SWEPT = {
    "flood50": FLOOD50,
    "mine_heavy": MINE_HEAVY,
    "default20": SimConfig(node_count=20, service_count=10),
    # Sessions closed by their consumer's next one, and open records evicted.
    "churn": CHURN,
    # A two-entry seen memory makes relays forget ids, handle later copies
    # again and drop replies.
    "forgetful": GOLDEN_DENSE,
}
# (config, seed, variant): the config of that run
RUNS = {(name, seed, variant): variant_config(base, seed, variant)
        for name, base in SWEPT.items() for seed in (0, 3, 7) for variant in VARIANTS}
RUNS.update({
    # Frozen reference for the seeded event stream; a diff here means the
    # event ordering, rng derivation, or trace format changed.
    ("golden_regression", 12, "mining_on"): GOLDEN_REGRESSION,
    # 20 nodes, overheard logging and mining: floods reach most nodes several
    # times over, and a two-entry seen memory with slow hops makes nodes
    # forget reverse paths, so replies are dropped in transit and forgotten
    # requests are handled again.  The hash comes from an engine that called
    # the handler for every recipient, so it also checks that skipping known
    # duplicates ahead of the handler changes nothing.
    ("golden_dense", 8, "mining_on"): GOLDEN_DENSE,
    # Hops as slow as two scan periods, with the request gap and the scan
    # and mining periods all on whole seconds, so deliveries fall due at the
    # same times as timers.  The event scheduled first must run first.
    ("golden_slow_hops", 3, "mining_on"): GOLDEN_SLOW_HOPS,
})


def digest_line(key: tuple) -> str:
    """The saved line of one run; its traced and untraced Metrics must agree."""
    config, trace = RUNS[key], []
    metrics = run(config, trace=trace)
    assert run(config) == metrics, "traced Metrics differ from untraced"
    name, seed, variant = key
    return json.dumps({"config": name, "seed": seed, "variant": variant,
                       "sha256": hashlib.sha256("\n".join(trace).encode()).hexdigest(),
                       "lines": len(trace), "metrics": asdict(metrics)})


def saved_lines() -> dict[tuple, str]:
    lines = {}
    for text in SAVED.read_text().splitlines():
        entry = json.loads(text)
        lines[(entry["config"], entry["seed"], entry["variant"])] = text
    return lines


SAVED_LINES = saved_lines()


@pytest.mark.parametrize("key", [*RUNS, *(key for key in SAVED_LINES if key not in RUNS)],
                         ids=lambda key: "-".join(map(str, key)))
def test_run_matches_its_saved_digest(key):
    assert key in RUNS, "saved, but no longer run"
    assert key in SAVED_LINES, "run, but not saved"
    assert digest_line(key) == SAVED_LINES[key]


if __name__ == "__main__":
    for key in RUNS:
        print(digest_line(key), flush=True)
