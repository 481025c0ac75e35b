#!/usr/bin/env python3
"""Print a digest of every run's trace and metrics, to show that a change
to the engine leaves each run the same.

    python3 scripts/trace_digest.py > digest.jsonl
    python3 scripts/trace_digest.py --check digest.jsonl

Runs the benchmark's flood50 and mine_heavy configs (taken from
``perfbench/run.py``), the 20-node default config, a ``churn`` config and
a ``forgetful`` config at root seeds 0, 3 and 7, both variants (30 runs),
each once traced (``run(config, trace=[])``) and once untraced, and fails
if the two disagree on ``Metrics``.  Prints one JSON line per run: the
config name, seed, variant, the trace's sha256 (of its lines joined by
newlines, as the golden tests hash it), its line count and the metrics.  Two
checkouts behave the same on these runs when their outputs are
identical.  With ``--check FILE`` it prints no digests but compares each
run's with the line saved in FILE, names every run that differs (or
that only one side has) and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run as bench  # noqa: E402  (also puts src/ on sys.path)

from corrdisc.experiment import VARIANTS, variant_config  # noqa: E402
from corrdisc.netsim import SimConfig, run  # noqa: E402

SEEDS = (0, 3, 7)


def configs() -> dict[str, SimConfig]:
    return {"flood50": bench.WORKLOADS["flood50"].base_config(),
            "mine_heavy": bench.WORKLOADS["mine_heavy"].base_config(),
            "default20": SimConfig(node_count=20, service_count=10),
            # The configs above never close a session by its consumer's next
            # one and never evict an open record; a small overheard log with
            # sessions 20 s apart (less than session_window) does both.
            "churn": SimConfig(node_count=20, service_count=10, log_overheard=True,
                               log_capacity=4, inter_session_gap=20.0,
                               mining_interval=7.0, support=0.4,
                               sessions_per_consumer=12, sim_duration=300.0),
            # GOLDEN_DENSE's settings (tests/test_netsim.py) at the digest
            # seeds: a two-entry seen memory makes relays forget ids, handle
            # later copies again and drop replies.
            "forgetful": SimConfig(node_count=20, service_count=8, sessions_per_consumer=2,
                                   log_overheard=True, sim_duration=210.0, support=0.3,
                                   mining_interval=5.0, seen_capacity=2, hop_latency=0.3,
                                   inter_request_gap=0.3)}


def digest(config: SimConfig) -> dict:
    """Trace hash, trace length and metrics of one run of ``config``."""
    trace: list[str] = []
    metrics = run(config, trace=trace)
    untraced = run(config)
    if metrics != untraced:
        raise RuntimeError(f"traced metrics {metrics} differ from untraced {untraced}")
    return {"sha256": hashlib.sha256("\n".join(trace).encode()).hexdigest(),
            "lines": len(trace),
            "metrics": asdict(metrics)}


def load(path: str) -> dict[tuple, dict]:
    """Saved digest lines keyed by (config, seed, variant)."""
    saved = {}
    with open(path) as fh:
        for lineno, text in enumerate(fh, start=1):
            if not text.strip():
                continue
            try:
                entry = json.loads(text)
                saved[(entry["config"], entry["seed"], entry["variant"])] = entry
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"line {lineno}: not a digest line ({exc!r})") from None
    return saved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the digests saved in FILE instead of printing")
    args = parser.parse_args(argv)
    saved = None
    if args.check:
        try:
            saved = load(args.check)
        except (OSError, ValueError) as exc:
            print(f"error: {args.check}: {exc}", file=sys.stderr)
            return 2
    runs = differing = 0
    for name, base in configs().items():
        for seed in SEEDS:
            for variant in VARIANTS:
                config = variant_config(base, seed, variant)
                line = {"config": name, "seed": seed, "variant": variant, **digest(config)}
                runs += 1
                if saved is None:
                    print(json.dumps(line), flush=True)
                elif saved.pop((name, seed, variant), None) != line:
                    differing += 1
                    print(f"differs: {name} seed={seed} {variant}", flush=True)
    if saved is None:
        return 0
    for name, seed, variant in saved:
        differing += 1
        print(f"differs: {name} seed={seed} {variant} (saved, not run)")
    if differing:
        print(f"{differing} runs differ from {args.check}")
        return 1
    print(f"all {runs} runs match {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
