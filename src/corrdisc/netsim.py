"""Deterministic discrete-event engine.

Nodes are placed uniformly on the field and linked by the unit-disk rule;
packets flood (requests) or retrace reverse paths (replies) with a fixed
per-hop latency.  Events execute in (time, insertion seq) order, so two
runs of the same config produce identical metrics and traces.  The root
seed is split into placement / service-assignment / workload substreams,
which keeps the workload identical when only ``mining_enabled`` differs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from numpy.random import SeedSequence, default_rng

from .mining import mine_frequent_itemsets
from .node import Node
from .packets import Sreq, Srep
from .workload import CorrelationMatrix, build_correlation_matrix, build_schedule

# Event kinds (trace names follow these).
DELIVER = "deliver"
ISSUE = "issue_request"
MINING_TICK = "mining_tick"
SCAN = "session_close_scan"


@dataclass(frozen=True)
class SimConfig:
    node_count: int
    service_count: int
    field_size: tuple[float, float] = (500.0, 500.0)
    radio_range: float = 175.0
    seed: int = 0
    eta: float = 0.8
    support: float = 0.8
    cache_capacity: int = 5
    log_capacity: int = 6
    session_window: float = 30.0
    mining_interval: float = 10.0
    initial_ttl: int = 8
    sim_duration: float = 1530.0
    sessions_per_consumer: int = 24
    mining_enabled: bool = True
    hop_latency: float = 0.002
    inter_request_gap: float = 1.0
    inter_session_gap: float = 60.0
    consumer_fraction: float = 1.0
    log_overheard: bool = False
    max_related: int = 1
    pending_timeout: float = 5.0
    seen_capacity: int = 1024
    scan_interval: float = 1.0

    def validate(self) -> None:
        # Every comparison with NaN is false, so NaN slips past the range
        # checks below, and inf never ends a run: floats must be finite.
        values = [*vars(self).items(), *(("field_size", side) for side in self.field_size)]
        for name, value in values:
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        positive = ("node_count", "service_count", "radio_range", "cache_capacity",
                    "log_capacity", "session_window", "mining_interval",
                    "hop_latency", "inter_request_gap", "inter_session_gap",
                    "max_related", "pending_timeout", "seen_capacity",
                    "scan_interval", "sessions_per_consumer")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.field_size[0] <= 0 or self.field_size[1] <= 0:
            raise ValueError(f"field_size must be positive, got {self.field_size}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if not 0.0 < self.support <= 1.0:
            raise ValueError(f"support must be in (0, 1], got {self.support}")
        if not 0.0 <= self.consumer_fraction <= 1.0:
            raise ValueError(f"consumer_fraction must be in [0, 1], got {self.consumer_fraction}")
        if not 0 <= self.initial_ttl <= 255:
            raise ValueError(f"initial_ttl must be in [0, 255], got {self.initial_ttl}")
        if self.sim_duration < 0:
            raise ValueError(f"sim_duration must be >= 0, got {self.sim_duration}")


@dataclass
class Metrics:
    requests_issued: int = 0
    locally_satisfied: int = 0
    prediction_hits: int = 0
    piggybacked_records_sent: int = 0
    piggybacked_records_evicted_unused: int = 0
    sreq_transmissions: int = 0
    srep_transmissions: int = 0
    requests_failed: int = 0
    broadcasts_originated: int = 0
    packets_dropped: int = 0


@dataclass
class Topology:
    positions: dict[int, tuple[float, float]]
    adjacency: dict[int, tuple[int, ...]]


def place_nodes(config: SimConfig, rng) -> Topology:
    """Uniform placement over the field plus unit-disk adjacency."""
    width, height = config.field_size
    positions = {i: (rng.random() * width, rng.random() * height)
                 for i in range(config.node_count)}
    limit_sq = config.radio_range ** 2
    neighbors: dict[int, list[int]] = {i: [] for i in positions}
    for i in range(config.node_count):
        xi, yi = positions[i]
        for j in range(i + 1, config.node_count):
            xj, yj = positions[j]
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= limit_sq:
                neighbors[i].append(j)
                neighbors[j].append(i)
    adjacency = {i: tuple(sorted(ns)) for i, ns in neighbors.items()}
    return Topology(positions, adjacency)


def assign_services(config: SimConfig, rng) -> dict[int, int]:
    """Ground-truth placement: one uniformly drawn provider per service."""
    return {service: int(rng.integers(config.node_count))
            for service in range(config.service_count)}


def _packet_detail(packet: Sreq | Srep) -> str:
    if isinstance(packet, Sreq):
        return (f"sreq origin={packet.origin} seq={packet.seq} "
                f"session={packet.session_seq} svc={packet.requested} ttl={packet.ttl}")
    related = ",".join(f"{svc}@{prov}" for svc, prov in packet.related)
    return (f"srep responder={packet.responder} dest={packet.destination} "
            f"reply={packet.in_reply_to[0]}:{packet.in_reply_to[1]} "
            f"answer={packet.answer[0]}@{packet.answer[1]} ttl={packet.ttl} "
            f"related=[{related}]")


class Simulation:
    """One seeded run.  Single-threaded; independent runs share nothing."""

    def __init__(self, config: SimConfig, *, cm: CorrelationMatrix | None = None,
                 trace: list[str] | None = None):
        config.validate()
        self.cfg = config
        self.trace = trace
        placement_seq, services_seq, workload_seq = SeedSequence(config.seed).spawn(3)
        self.topology = place_nodes(config, default_rng(placement_seq))
        self.placement = assign_services(config, default_rng(services_seq))
        workload_rng = default_rng(workload_seq)
        self.cm = cm if cm is not None else build_correlation_matrix(
            config.service_count, workload_rng)
        self.schedule = build_schedule(config, self.cm, workload_rng)
        self.metrics = Metrics()
        self.nodes = [Node(i, config, self.metrics) for i in range(config.node_count)]
        for service, provider in self.placement.items():
            self.nodes[provider].host_service(service)
        self._heap: list = []
        self._next_event = 0
        self._mine_cache: dict[tuple, dict] = {}
        for spec in self.schedule:
            for idx, service in enumerate(sorted(spec.services)):
                self._push(spec.start_time + idx * spec.inter_request_gap,
                           ISSUE, (spec.consumer, service, spec.session_seq))
        self._push(config.scan_interval, SCAN, ())
        if config.mining_enabled:
            for node in self.nodes:
                self._push(config.mining_interval, MINING_TICK, (node.nid,))

    # -- event plumbing ----------------------------------------------------

    def _push(self, time: float, kind: str, payload: tuple) -> None:
        heapq.heappush(self._heap, (time, self._next_event, kind, payload))
        self._next_event += 1

    def _trace(self, time: float, kind: str, node: int | str, detail: str) -> None:
        self.trace.append(f"{time:.3f} {kind} {node} {detail}")

    def _miner(self, transactions: list[frozenset[int]]) -> dict[frozenset[int], int]:
        # Kept: most snapshots repeat (`perfbench/run.py --trace 1`: cache_hit_ratio
        # 0.86 on flood50, 0.77 on mine_heavy, where FP-Growth is half the run).
        key = tuple(transactions)
        cached = self._mine_cache.get(key)
        if cached is None:
            cached = mine_frequent_itemsets(transactions, self.cfg.support)
            self._mine_cache[key] = cached
        return cached

    # -- delivery ------------------------------------------------------------

    def deliver_broadcast(self, from_node: int, packet: Sreq | Srep, now: float) -> None:
        self._transmit(from_node, self.topology.adjacency[from_node], packet, now,
                       "tx_bcast", "")

    def deliver_unicast(self, from_node: int, to: int, packet: Sreq | Srep,
                        now: float) -> None:
        if to not in self.topology.adjacency[from_node]:
            self.metrics.packets_dropped += 1
            return
        self._transmit(from_node, (to,), packet, now, "tx_ucast", f"to={to} ")

    def _transmit(self, from_node: int, recipients: tuple[int, ...], packet: Sreq | Srep,
                  now: float, kind: str, prefix: str) -> None:
        """Count and trace one transmission; one event delivers it to all."""
        if isinstance(packet, Sreq):
            self.metrics.sreq_transmissions += 1
        else:
            self.metrics.srep_transmissions += 1
        if self.trace is not None:
            self._trace(now, kind, from_node, prefix + _packet_detail(packet))
        self._push(now + self.cfg.hop_latency, DELIVER, (recipients, from_node, packet))

    def _dispatch_emissions(self, from_node: int, emissions, now: float) -> None:
        for to, packet in emissions:
            if to is None:
                self.deliver_broadcast(from_node, packet, now)
            else:
                self.deliver_unicast(from_node, to, packet, now)

    # -- main loop -----------------------------------------------------------

    def run(self) -> Metrics:
        cfg = self.cfg
        heap = self._heap
        duration = cfg.sim_duration
        tracing = self.trace is not None
        while heap and heap[0][0] < duration:
            time, _, kind, payload = heapq.heappop(heap)
            if kind == DELIVER:
                # Recipients in adjacency order; the handler is looked up on
                # the class so that wrappers installed there see every call.
                recipients, from_node, packet = payload
                handler = Node.handle_sreq if isinstance(packet, Sreq) else Node.handle_srep
                for to in recipients:
                    if tracing:
                        self._trace(time, DELIVER, to,
                                    f"from={from_node} " + _packet_detail(packet))
                    emissions = handler(self.nodes[to], packet, from_node, time)
                    if emissions:
                        self._dispatch_emissions(to, emissions, time)
            elif kind == ISSUE:
                consumer, service, session_seq = payload
                emissions = self.nodes[consumer].issue_request(service, session_seq, time)
                if tracing:
                    self._trace(time, ISSUE, consumer,
                                f"svc={service} session={session_seq} "
                                f"local={int(not emissions)}")
                if emissions:
                    self._dispatch_emissions(consumer, emissions, time)
            elif kind == MINING_TICK:
                (nid,) = payload
                node = self.nodes[nid]
                node.log.close_stale_sessions(time, cfg.session_window)
                node.remine(self._miner)
                if tracing:
                    self._trace(time, MINING_TICK, nid,
                                f"txns={len(node.log.snapshot_transactions())} "
                                f"itemsets={len(node.itemsets)}")
                self._push(time + cfg.mining_interval, MINING_TICK, (nid,))
            elif kind == SCAN:
                expired = 0
                for node in self.nodes:
                    node.log.close_stale_sessions(time, cfg.session_window)
                    expired += node.expire_pending(time)
                if tracing:
                    self._trace(time, SCAN, "-", f"expired={expired}")
                self._push(time + cfg.scan_interval, SCAN, ())
        # Whatever is still pending when the clock stops counts as failed.
        for node in self.nodes:
            node.fail_all_pending()
        return self.metrics


def run(config: SimConfig, *, cm: CorrelationMatrix | None = None,
        trace: list[str] | None = None) -> Metrics:
    """Execute one run to ``sim_duration`` and return its metrics."""
    return Simulation(config, cm=cm, trace=trace).run()
