"""Deterministic discrete-event engine.

Nodes are placed uniformly on the field and linked by the unit-disk rule;
packets flood (requests) or retrace reverse paths (replies) with a fixed
per-hop latency.  Events execute in (time, insertion seq) order, so two
runs of the same config produce identical metrics and traces.  Timers
wait in a heap and deliveries in a FIFO, which stays sorted because each
delivery is due one fixed hop latency after the never-decreasing clock.
A packet is a plain tuple laid out as ``Sreq`` or ``Srep``, and the loop
routes it by its field count: an SREQ broadcast visits its recipients in
adjacency order, skipping those that remember its id, and an SREP, always
a unicast, goes straight to its one recipient.  The loop makes the sends
of the handlers it calls itself: it counts, traces and queues each
forward, answer and relay hop with no method call, and adds its two
transmission counters to the metrics when it returns.  Only an origin's
request goes out through ``deliver_broadcast``; ``deliver_unicast`` is
kept, uncalled, for the benchmark's per-layer profile, which names it.
Every node's seen memory lives in the flood rows (``node.py``): a row per
flood, one slot per node, which the origin's ``issue_request`` makes.
Each delivery entry carries its flood's row, and each send the loop makes
carries the row of the delivery that caused it, so the duplicate check of
each recipient is a list slot, no id is hashed, and no table indexes the
rows: reference counting frees a row once no node remembers it and no
queued delivery carries it.
A timer's heap entry carries the plain function that runs it, so the loop
compares no event kind.  One mining tick per interval visits every node in
id order, closes its due sessions and re-mines it if its closed sessions
changed.  The tick is the only reader of closed sessions, so it is the
only timer that closes them by age; SCAN only fails timed-out requests.
A run makes no reference cycles, so ``run`` pauses CPython's cyclic
garbage collector from before the ``Simulation`` is built until it is
freed: the collector would otherwise sweep the young objects dozens of
times per run and find nothing to free.  The pause outlasts the loop:
switched back on while the run is still alive, the collector would start
a young collection at the next allocation after the loop and walk every
object the run made, to free nothing, since the run's memory goes by
reference counting when the ``Simulation`` is dropped.  ``run`` is the
one place that pauses it; a caller of ``Simulation.run`` pauses it
itself, if it wants the pause.
The root seed is split into placement / service-assignment / workload
substreams, so the workload is the same when only ``mining_enabled`` differs.
"""

from __future__ import annotations

import gc
import heapq
import math
from collections import deque
from dataclasses import dataclass
from itertools import count

from numpy.random import Generator, SeedSequence, default_rng

from .mining import mine_frequent_itemsets, rank_related
from .node import Node, Row
from .packets import ID_LIMIT, MAX_RELATED_RECORDS, SREQ_FIELDS, SrepFields, SreqFields
from .workload import build_correlation_matrix, build_schedule

# Trace names of the events.
DELIVER = "deliver"
ISSUE = "issue_request"
MINING_TICK = "mining_tick"
# SCAN fails timed-out requests and closes no session; its label stays as
# it is because renaming it would change every trace.
SCAN = "session_close_scan"
SCAN_INTERVAL = 1.0  # seconds between SCANs


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
    log_overheard: bool = False
    max_related: int = 1
    pending_timeout: float = 5.0
    seen_capacity: int = 1024

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
                    "sessions_per_consumer")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.field_size[0] <= 0 or self.field_size[1] <= 0:
            raise ValueError(f"field_size must be positive, got {self.field_size}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if not 0.0 < self.support <= 1.0:
            raise ValueError(f"support must be in (0, 1], got {self.support}")
        # Packets must stay encodable: a one-byte ttl, two-byte node and
        # service ids, and at most MAX_RELATED_RECORDS piggybacked records.
        if not 0 <= self.initial_ttl <= 255:
            raise ValueError(f"initial_ttl must be in [0, 255], got {self.initial_ttl}")
        for name in ("node_count", "service_count"):
            if getattr(self, name) > ID_LIMIT:
                raise ValueError(f"{name} must be at most {ID_LIMIT}, got {getattr(self, name)}")
        if self.max_related > MAX_RELATED_RECORDS:
            raise ValueError(f"max_related must be at most {MAX_RELATED_RECORDS}, "
                             f"got {self.max_related}")
        for name in ("sim_duration", "seed"):  # SeedSequence needs a seed >= 0
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        # A session's last request may come (service_count - 1) gaps after
        # its first.  If the consumer's next session has opened by then, the
        # log closes and reopens the two keys in turn, one session in pieces.
        if (self.sessions_per_consumer > 1 and (self.service_count - 1)
                * self.inter_request_gap >= self.inter_session_gap):
            raise ValueError(
                f"sessions overlap: (service_count - 1) * inter_request_gap = "
                f"{(self.service_count - 1) * self.inter_request_gap} must be less "
                f"than inter_session_gap = {self.inter_session_gap}")
        # A session open for session_window is closed by the next mining
        # tick; a later request of the same session would open a second
        # record under its key, one session in pieces.
        if (self.service_count - 1) * self.inter_request_gap >= self.session_window:
            raise ValueError(
                f"sessions outlast the window: (service_count - 1) * inter_request_gap = "
                f"{(self.service_count - 1) * self.inter_request_gap} must be less "
                f"than session_window = {self.session_window}")


@dataclass
class Metrics:
    """Counters of one run, summed over all nodes.

    ``piggybacked_records_evicted_unused`` counts piggybacked records that
    left a service table without being used.  Every node a reply passes
    caches its records (``Node.handle_srep``), so the counter covers relays
    as well as the consumer: each paid a table slot for the prediction.
    """

    requests_issued: int = 0
    locally_satisfied: int = 0
    prediction_hits: int = 0
    piggybacked_records_sent: int = 0
    piggybacked_records_evicted_unused: int = 0
    sreq_transmissions: int = 0
    srep_transmissions: int = 0
    requests_failed: int = 0
    requests_answered: int = 0
    broadcasts_originated: int = 0
    packets_dropped: int = 0


@dataclass
class Topology:
    positions: dict[int, tuple[float, float]]
    adjacency: dict[int, tuple[int, ...]]


def place_nodes(config: SimConfig, rng) -> Topology:
    """Uniform placement over the field plus unit-disk adjacency.

    One ``rng.random(2 * n)`` call draws x0, y0, x1, y1, ...: the stream of
    two scalar draws per node, x first.
    """
    width, height = config.field_size
    n = config.node_count
    draws = rng.random(2 * n).tolist()
    xs = [u * width for u in draws[0::2]]
    ys = [u * height for u in draws[1::2]]
    limit_sq = config.radio_range ** 2
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        xi, yi, near = xs[i], ys[i], neighbors[i]
        for j in range(i + 1, n):
            if (xi - xs[j]) ** 2 + (yi - ys[j]) ** 2 <= limit_sq:
                near.append(j)
                neighbors[j].append(i)
    # Each list is ascending: lower ids were appended before higher ones.
    adjacency = {i: tuple(near) for i, near in enumerate(neighbors)}
    return Topology(dict(enumerate(zip(xs, ys))), adjacency)


def substreams(seed: int) -> tuple[Generator, Generator, Generator]:
    """The placement, service-assignment and workload generators of a seed."""
    placement, services, workload = SeedSequence(seed).spawn(3)
    return default_rng(placement), default_rng(services), default_rng(workload)


def assign_services(config: SimConfig, rng) -> dict[int, int]:
    """Ground-truth placement: one uniformly drawn provider per service."""
    return {service: int(rng.integers(config.node_count))
            for service in range(config.service_count)}


def _packet_detail(packet: SreqFields | SrepFields) -> str:
    if len(packet) == SREQ_FIELDS:
        origin, seq, session_seq, requested, ttl = packet
        return f"sreq origin={origin} seq={seq} session={session_seq} svc={requested} ttl={ttl}"
    responder, destination, (reply_origin, reply_seq), ttl, answer, related = packet
    records = ",".join(f"{svc}@{prov}" for svc, prov in related)
    return (f"srep responder={responder} dest={destination} reply={reply_origin}:{reply_seq} "
            f"answer={answer[0]}@{answer[1]} ttl={ttl} related=[{records}]")


class Simulation:
    """One seeded run.  Single-threaded; independent runs share nothing.
    ``trace`` takes each line as the run makes it: any ``append(str)``."""

    def __init__(self, config: SimConfig, *, trace=None):
        config.validate()
        self.cfg = config
        self.trace = trace
        placement_rng, services_rng, workload_rng = substreams(config.seed)
        self.topology = place_nodes(config, placement_rng)
        self.placement = assign_services(config, services_rng)
        self.cm = build_correlation_matrix(config.service_count, workload_rng)
        self.schedule = build_schedule(config, self.cm, workload_rng)
        self.metrics = Metrics()
        self.nodes = [Node(i, config, self.metrics) for i in range(config.node_count)]
        for service, provider in self.placement.items():
            self.nodes[provider].host_service(service)
        self._heap: list = []
        # Deliveries are appended in (time, seq) order, as each is due a fixed
        # hop_latency after the current time; one seq numbers both queues.
        # An SREQ's recipients are its sender's adjacency, an SREP's its one id.
        self._deliveries: deque = deque()  # (time, seq, recipients, from_node, packet, row)
        self._seq = count()
        self._mine_cache: dict[tuple, dict] = {}
        # Every request timer is known now: append them in schedule order and
        # heapify once.  (time, seq) keys are unique, so the pop order is the
        # one a push per request would give.
        heap, seq, issue = self._heap, self._seq, Simulation._issue
        for spec in self.schedule:
            start, gap, consumer, session_seq = (spec.start_time, spec.inter_request_gap,
                                                 spec.consumer, spec.session_seq)
            for idx, service in enumerate(sorted(spec.services)):
                heap.append((start + idx * gap, next(seq), issue,
                             (consumer, service, session_seq)))
        heapq.heapify(heap)
        self._push(SCAN_INTERVAL, Simulation._scan, ())
        if config.mining_enabled:
            self._push(config.mining_interval, Simulation._mining_tick, ())

    # -- event plumbing ----------------------------------------------------

    def _push(self, time: float, fire, payload: tuple) -> None:
        # A bound method here would make a Simulation -> heap -> Simulation cycle.
        heapq.heappush(self._heap, (time, next(self._seq), fire, payload))

    def _trace(self, time: float, kind: str, node: int | str, detail: str) -> None:
        self.trace.append(f"{time:.3f} {kind} {node} {detail}")

    def _miner(self, transactions: list[frozenset[int]],
               masks: dict[int, int]) -> dict[frozenset[int], int]:
        # ``masks`` is the log's kept bitsets of ``transactions``.  A reply
        # ranks from the node's copy of those bitsets, so only singletons
        # are mined.  The cache stays because `perfbench/test_perfbench.py`
        # asserts that each distinct snapshot is mined once; the tick skips
        # logs whose closed sessions did not change, so few snapshots repeat
        # (`perfbench/run.py --trace 1`: cache_hit_ratio 0.17 on mine_heavy,
        # 0.00 on flood50).  A key holds the frozensets the logs store, not
        # copies, so building and hashing it reuses each set's cached hash.
        key = tuple(transactions)
        cached = self._mine_cache.get(key)
        if cached is None:
            cached = mine_frequent_itemsets(transactions, self.cfg.support, masks, 1)
            self._mine_cache[key] = cached
        return cached

    # -- delivery ------------------------------------------------------------

    def deliver_broadcast(self, from_node: int, sreq: SreqFields, row: Row,
                          now: float) -> None:
        """Count and trace one SREQ broadcast of the flood whose row is
        ``row``; one event delivers it to every neighbour, in adjacency
        order.  ``_issue`` sends an origin's request through it; ``_loop``
        queues the forwards itself, in the same way."""
        self.metrics.sreq_transmissions += 1
        if self.trace is not None:
            self._trace(now, "tx_bcast", from_node, _packet_detail(sreq))
        self._deliveries.append((now + self.cfg.hop_latency, next(self._seq),
                                 self.topology.adjacency[from_node], from_node, sreq, row))

    def deliver_unicast(self, from_node: int, to: int, srep: SrepFields, row: Row,
                        now: float) -> None:
        """Count and trace one SREP unicast, as ``_loop`` does for each
        answer and relay hop.  The engine never calls it: it stays for the
        benchmark's per-layer profile, whose target list
        (``perfbench/layers.py`` ``TARGETS``) names it and fails on a name
        this class does not define.  ``to`` is a neighbour: replies retrace
        the hops their SREQ came over, and adjacency is symmetric."""
        self.metrics.srep_transmissions += 1
        if self.trace is not None:
            self._trace(now, "tx_ucast", from_node, f"to={to} " + _packet_detail(srep))
        self._deliveries.append((now + self.cfg.hop_latency, next(self._seq),
                                 to, from_node, srep, row))

    # -- main loop -----------------------------------------------------------

    def run(self) -> Metrics:
        """Run to ``sim_duration``.  The cyclic collector is left as the
        caller set it; ``netsim.run`` pauses it for the Simulation's whole
        life (module docstring)."""
        self._loop()
        # Whatever is still pending when the clock stops counts as failed.
        for node in self.nodes:
            node.expire_pending(math.inf)
        m = self.metrics
        if m.requests_issued != m.locally_satisfied + m.requests_answered + m.requests_failed:
            raise RuntimeError(
                f"requests_issued {m.requests_issued} != locally_satisfied "
                f"{m.locally_satisfied} + requests_answered {m.requests_answered} "
                f"+ requests_failed {m.requests_failed}")
        return m

    def _loop(self) -> None:
        heap, deliveries, nodes = self._heap, self._deliveries, self.nodes
        end = (self.cfg.sim_duration, -1)  # sorts after every event due before the end
        tracing, trace = self.trace is not None, self._trace
        # The loop queues each handler's send itself, with these bound once:
        # a send is due one hop after the delivery that caused it, and its
        # entry is (time, seq, recipients, from_node, packet, row), as
        # deliver_broadcast makes, with that delivery's row.  The two
        # transmission counters are committed to the metrics when the loop
        # returns, also if it raises.
        adjacency, hop, seq, queue = (self.topology.adjacency, self.cfg.hop_latency,
                                      self._seq, deliveries.append)
        handle_sreq, handle_srep = Node.handle_sreq, Node.handle_srep
        sreq_tx = srep_tx = 0
        try:
            while True:
                # Run the deliveries that sort before the timer at the heap's
                # head (never empty: SCAN reschedules itself), then that
                # timer's function.  SREQ recipients go in adjacency order;
                # one that remembers the request's id, by its slot of the
                # flood's row, is skipped (its deliver line still shows).
                limit = min(heap[0], end)
                while deliveries and deliveries[0] < limit:
                    time, _, recipients, from_node, packet, row = deliveries.popleft()
                    due = time + hop
                    if tracing:
                        detail = f"from={from_node} " + _packet_detail(packet)
                    if len(packet) == SREQ_FIELDS:
                        for to in recipients:
                            if tracing:
                                trace(time, DELIVER, to, detail)
                            if row[to] is not None:
                                continue
                            out = handle_sreq(nodes[to], packet, row, from_node, time)
                            if out is None:
                                continue
                            if len(out) == SREQ_FIELDS:  # a forward floods on
                                sreq_tx += 1
                                if tracing:
                                    trace(time, "tx_bcast", to, _packet_detail(out))
                                queue((due, next(seq), adjacency[to], to, out, row))
                            else:  # an answer goes back to the sender
                                srep_tx += 1
                                if tracing:
                                    trace(time, "tx_ucast", to,
                                          f"to={from_node} " + _packet_detail(out))
                                queue((due, next(seq), from_node, to, out, row))
                    else:
                        # Replies are only ever unicast to one recipient, and
                        # they carry no msg_id of their own to skip on.  A
                        # relay's upstream is a neighbour: replies retrace the
                        # hops their SREQ came over, and adjacency is symmetric.
                        to = recipients
                        if tracing:
                            trace(time, DELIVER, to, detail)
                        emission = handle_srep(nodes[to], packet, row)
                        if emission is not None:
                            upstream, out = emission
                            srep_tx += 1
                            if tracing:
                                trace(time, "tx_ucast", to,
                                      f"to={upstream} " + _packet_detail(out))
                            queue((due, next(seq), upstream, to, out, row))
                if heap[0] >= end:
                    return
                time, _, fire, payload = heapq.heappop(heap)
                fire(self, time, *payload)
        finally:
            metrics = self.metrics
            metrics.sreq_transmissions += sreq_tx
            metrics.srep_transmissions += srep_tx

    # -- timers: each is fire(self, time, *payload) and pushes its successor last

    def _issue(self, time: float, consumer: int, service: int, session_seq: int) -> None:
        issued = self.nodes[consumer].issue_request(service, session_seq, time)
        if self.trace is not None:
            self._trace(time, ISSUE, consumer,
                        f"svc={service} session={session_seq} local={int(issued is None)}")
        if issued is not None:
            self.deliver_broadcast(consumer, *issued, time)  # the SREQ and its row

    def _scan(self, time: float) -> None:
        expired = 0
        for node in self.nodes:
            if node._pending:
                expired += node.expire_pending(time)
        if self.trace is not None:
            self._trace(time, SCAN, "-", f"expired={expired}")
        self._push(time + SCAN_INTERVAL, Simulation._scan, ())

    def _mining_tick(self, time: float) -> None:
        miner, tracing, window = self._miner, self.trace is not None, self.cfg.session_window
        for node in self.nodes:
            log = node.log
            if log._open:
                log.close_stale_sessions(time, window)
            # Only a log whose closed sessions changed needs remine.  The
            # miner reads the log's kept masks; nothing keeps the callable,
            # so the run still makes no reference cycle.
            if log.closed_version != node._mined_version:
                node.remine(lambda transactions: miner(transactions, log.masks))
            if tracing:
                # txns= counts the closed sessions, the ones the last re-mine
                # read, as the version has not moved since.  pairs= counts the
                # frequent singletons and pairs; each pair is ranked from both
                # of its members.
                masks, threshold = node._masks, node._threshold
                pairs = sum(len(rank_related(s, masks, threshold)) for s in masks) // 2
                self._trace(time, MINING_TICK, node.nid,
                            f"txns={len(log.snapshot_transactions())} "
                            f"pairs={len(node.itemsets) + pairs}")
        self._push(time + self.cfg.mining_interval, Simulation._mining_tick, ())


def run(config: SimConfig, *, trace=None) -> Metrics:
    """Execute one run to ``sim_duration`` and return its metrics.

    The cyclic collector stays paused from before the ``Simulation`` is
    built until it is freed, which happens before the pause ends: the
    expression holds the only reference to it.  A run makes no reference
    cycles, so neither building it nor freeing it needs a collection.  The
    collector is switched back on only if it was on, also when the run
    raises."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return Simulation(config, trace=trace).run()
    finally:
        if collecting:
            gc.enable()
