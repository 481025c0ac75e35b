"""Per-layer host-time accounting for one traced sweep.

``LayerProfile.patched()`` replaces the public functions of the simulator
modules with aggregating wrappers and puts the originals back on exit.
Each wrapper keeps a call count, total time and self time (total minus
the time of wrapped children, tracked with a stack of child-time
accumulators); nothing is stored per call, so a 1.4 M-delivery run costs
three counters per handler.

Names imported into another module by ``from x import y`` are patched
where they are looked up: ``netsim`` calls ``mine_frequent_itemsets``,
``build_schedule``, ``build_correlation_matrix`` and ``place_nodes``
through its own globals, and ``node`` calls ``rank_related`` the same way.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

from corrdisc import experiment, netsim, node, sessionlog

# (layer name, owner whose attribute is replaced, attribute)
TARGETS = (
    ("experiment.run_experiment", experiment, "run_experiment"),
    ("netsim.init", netsim.Simulation, "__init__"),
    ("netsim.place_nodes", netsim, "place_nodes"),
    ("workload.build_correlation_matrix", netsim, "build_correlation_matrix"),
    ("workload.build_schedule", netsim, "build_schedule"),
    ("netsim.run", netsim.Simulation, "run"),
    ("netsim.deliver_broadcast", netsim.Simulation, "deliver_broadcast"),
    ("netsim.deliver_unicast", netsim.Simulation, "deliver_unicast"),
    ("node.issue_request", node.Node, "issue_request"),
    ("node.handle_sreq", node.Node, "handle_sreq"),
    ("node.handle_srep", node.Node, "handle_srep"),
    ("node.expire_pending", node.Node, "expire_pending"),
    ("node.remine", node.Node, "remine"),
    ("mining.fpgrowth", netsim, "mine_frequent_itemsets"),
    ("mining.rank_related", node, "rank_related"),
    ("sessionlog.record_request", sessionlog.LogDatabase, "record_request"),
    ("sessionlog.close_stale_sessions", sessionlog.LogDatabase, "close_stale_sessions"),
    ("sessionlog.snapshot_transactions", sessionlog.LogDatabase, "snapshot_transactions"),
)


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    empty_results: int = 0  # calls that returned an empty value (no emission)


class LayerProfile:
    """Aggregated timings of every wrapped function, plus the distinct
    transaction lists handed to the miner that ``Node.remine`` receives."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self.miner_calls = 0
        self.snapshots: dict[tuple, None] = {}  # insertion-ordered set
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, LayerStats())
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if not result:
                stats.empty_results += 1
            return result

        return timed

    def _capturing(self, remine):
        """``Node.remine`` with its miner argument counted and recorded."""
        def remine_capturing(node_self, miner):
            def counted(transactions):
                self.miner_calls += 1
                self.snapshots[tuple(transactions)] = None
                return miner(transactions)
            return remine(node_self, counted)
        return remine_capturing

    @contextmanager
    def patched(self):
        saved = []
        try:
            for name, owner, attr in TARGETS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                fn = self._capturing(original) if name == "node.remine" else original
                setattr(owner, attr, self.wrap(name, fn))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def is_unpatched() -> bool:
    """True when every target attribute is the function the module defines."""
    return all(not hasattr(vars(owner)[attr], "__wrapped__")
               for _, owner, attr in TARGETS)
