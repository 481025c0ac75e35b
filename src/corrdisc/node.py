"""Per-node protocol state machine.

A node owns a bounded FIFO service table, the circular session log, what
its last re-mine kept (the frequent singletons, and a copy of the log's
vertical bitsets with the support count, from which a reply ranks
related services by exact pair support), its seen memory of flooded
requests, and the pending-request bookkeeping behind the
locally-satisfied metric.  Each handler returns what the node sends, or
``None``; the simulation layer does the delivery.  A packet is a plain
tuple in the field order of ``Sreq`` or ``Srep`` (``packets.py``), and
its field count tells the two apart.  ``issue_request`` and
``handle_sreq`` return the packet itself: an SREQ floods, and an SREP
answers the node the request came from.  ``handle_srep`` returns
``(upstream, srep)``, since only the relay knows its stored upstream hop.
The handlers take either form as input, as a NamedTuple is a tuple.

The seen memory suppresses duplicate copies of a flood and keeps the
reverse path a reply retraces.  It lives in the run's flood table, which
all nodes share: a row per flood with one slot per node, kept for the
whole run, and indexed by origin, then seq (``floods[origin][seq]``), so
no ``(origin, seq)`` tuple is built or hashed to find it.  Only an
origin's ``issue_request`` makes rows: it appends one to its own list, and
the list's length before the append is the new seq.  The row exists
before the first copy leaves, so every id a packet carries has a row, and
the handlers read it with no existence check.  A node's slot holds its
first upstream hop of that flood, ``ORIGINATED`` if it issued the
request, or ``None`` while it does not remember the id.  A node remembers
at most ``seen_capacity`` ids, keeping their rows oldest first; at
capacity, it empties its slot of the oldest row.

Every node a reply passes learns its records (``Node._learn``).  A run
relays replies hundreds of thousands of times, so each hop is kept cheap:
a known service's record is updated in place (``handle_srep`` does it
for the answer itself, and skips the related loop of a reply that
carries no records), a ``ServiceRecord`` is
built only when a service enters the table, and packets are plain
tuples, which CPython allocates from its tuple free list; a NamedTuple
is a tuple subclass, and building and freeing one costs about 0.5 us more.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .mining import MIN_MINING_TRANSACTIONS, min_count, rank_related
from .packets import SrepFields, SreqFields
from .sessionlog import LogDatabase

if TYPE_CHECKING:
    from .netsim import Metrics, SimConfig

MsgId = tuple[int, int]
Row = list[int | None]  # a flood's slots, one per node

ORIGINATED = -1  # the flood table slot of a request's origin; no node id is negative


@dataclass(slots=True)
class ServiceRecord:
    service: int
    provider: int
    piggybacked: bool = False  # learned as a prediction, not a direct answer
    used: bool = False


class ServiceTable:
    """Reference model of a node's service table, which ``Node._learn``
    keeps in place: an insertion-ordered cache of at most one record per
    service.

    Re-inserting a known service replaces the record in place without
    refreshing its FIFO position; inserting a new service at capacity
    evicts the oldest record, which is returned to the caller.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"table capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: dict[int, ServiceRecord] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, service: int) -> bool:
        return service in self._entries

    def get(self, service: int) -> ServiceRecord | None:
        return self._entries.get(service)

    def records(self) -> list[ServiceRecord]:
        return list(self._entries.values())

    def insert(self, record: ServiceRecord) -> ServiceRecord | None:
        entries = self._entries
        if record.service in entries:
            entries[record.service] = record
            return None
        evicted = None
        if len(entries) == self.capacity:
            evicted = entries.pop(next(iter(entries)))
        entries[record.service] = record
        return evicted


class Node:
    def __init__(self, nid: int, config: "SimConfig", metrics: "Metrics",
                 floods: list[list[Row]]):
        self.nid = nid
        self.cfg = config
        self.metrics = metrics
        # The service table: service -> record, oldest first, at most
        # _capacity of them.  ServiceTable is its reference model.
        self._records: dict[int, ServiceRecord] = {}
        # The per-hop paths read these instead of the config's fields.
        self._capacity = config.cache_capacity
        self._seen_capacity = config.seen_capacity
        self._initial_ttl = config.initial_ttl
        # The session log feeds only the miner, so without mining a node
        # logs nothing, neither its own requests nor overheard ones.
        self._log_requests = config.mining_enabled
        self._log_overheard = config.log_overheard and config.mining_enabled
        self.own_services: dict[int, ServiceRecord] = {}
        self.log = LogDatabase(config.log_capacity)
        self.itemsets: dict[frozenset[int], int] = {}
        # log.masks and the support count as they were at the last re-mine,
        # so replies rank from that tick's sessions, not the live log; empty
        # below MIN_MINING_TRANSACTIONS sessions.
        self._masks: dict[int, int] = {}
        self._threshold = 1
        # service -> rank_related(service, _masks, _threshold), filled on
        # first use and emptied at every re-mine.
        self._ranked: dict[int, list[int]] = {}
        # (log.closed_version, transaction count) that `itemsets` and
        # `_masks` were kept from; an empty log at version 0 mines to nothing.
        self._mined_from = (0, 0)
        # The seen memory is this node's slot of each row of the flood table,
        # origin -> seq -> row (module docstring), which every node of a run
        # shares, with a list per origin.  Only issue_request makes rows, in
        # this node's own list, whose length is the next seq it issues.
        self._floods = floods
        # The rows whose slot this node holds, oldest first (an id is
        # remembered only once); the oldest one's slot is emptied first.
        self._seen_order: deque[Row] = deque()
        self._pending: dict[MsgId, float] = {}   # msg_id -> issue time

    # -- service knowledge ------------------------------------------------

    def host_service(self, service: int) -> None:
        """Preload a service this node provides; pinned, never evicted."""
        self.own_services[service] = ServiceRecord(service, self.nid)

    def lookup(self, service: int) -> ServiceRecord | None:
        return self.own_services.get(service) or self._records.get(service)

    def _learn(self, service: int, provider: int, piggybacked: bool) -> None:
        """Cache one record of a reply, as ``ServiceTable.insert`` of a new
        ``ServiceRecord`` would: a known service is overwritten in place,
        keeping its FIFO position, and a new one evicts the oldest record
        of a full table."""
        if service in self.own_services:
            return
        records = self._records
        record = records.get(service)
        if record is not None:
            if piggybacked and not record.piggybacked:
                return  # a prediction never downgrades a directly learned record
            record.provider = provider
            record.piggybacked = piggybacked
            record.used = False
            return
        if len(records) == self._capacity:
            evicted = records.pop(next(iter(records)))
            if evicted.piggybacked and not evicted.used:
                self.metrics.piggybacked_records_evicted_unused += 1
        records[service] = ServiceRecord(service, provider, piggybacked)

    # -- duplicate suppression / reverse path ------------------------------

    def _remember(self, row: Row, upstream: int) -> None:
        """Hold ``upstream`` in this node's slot of ``row``, a flood it does
        not remember; at ``seen_capacity`` it first empties its slot of the
        oldest row it remembers."""
        order, nid = self._seen_order, self.nid
        if len(order) >= self._seen_capacity:
            order.popleft()[nid] = None
        row[nid] = upstream
        order.append(row)

    # -- protocol handlers --------------------------------------------------

    def issue_request(self, service: int, session_seq: int, now: float) -> SreqFields | None:
        m = self.metrics
        m.requests_issued += 1
        if self._log_requests:
            self.log.record_request((self.nid, session_seq), service, now)
        record = self.lookup(service)
        if record is not None:
            m.locally_satisfied += 1
            if record.piggybacked:
                m.prediction_hits += 1
            record.used = True
            return None
        rows = self._floods[self.nid]
        seq = len(rows)
        row = [None] * self.cfg.node_count
        rows.append(row)
        self._remember(row, ORIGINATED)
        self._pending[(self.nid, seq)] = now
        m.broadcasts_originated += 1
        return (self.nid, seq, session_seq, service, self._initial_ttl)

    def handle_sreq(self, sreq: SreqFields, from_node: int,
                    now: float) -> SreqFields | SrepFields | None:
        """Handle a request whose id the node has not seen; the caller
        (``Simulation._loop``) drops duplicates before calling."""
        origin, seq, session_seq, requested, ttl = sreq
        row = self._floods[origin][seq]
        # _remember, inlined: this runs once per first copy of a flood.
        order, nid = self._seen_order, self.nid
        if len(order) >= self._seen_capacity:
            order.popleft()[nid] = None
        row[nid] = from_node
        order.append(row)
        if self._log_overheard:
            self.log.record_request((origin, session_seq), requested, now)
        record = self.own_services.get(requested) or self._records.get(requested)
        if record is not None:
            record.used = True
            related = ()
            if self.itemsets:
                related = tuple(self._pick_related(requested))
                self.metrics.piggybacked_records_sent += len(related)
            return (self.nid, origin, (origin, seq), self._initial_ttl,
                    (requested, record.provider), related)
        if ttl > 0:
            return (origin, seq, session_seq, requested, ttl - 1)
        return None

    def handle_srep(self, srep: SrepFields) -> tuple[int, SrepFields] | None:
        responder, destination, in_reply_to, ttl, answer, related = srep
        service, provider = answer
        record = self._records.get(service)
        if record is None:
            self._learn(service, provider, False)
        else:
            # _learn of a direct answer for a known service, inlined: the
            # table never holds a hosted service, and a direct answer always
            # overwrites, in place, keeping the record's FIFO position.
            record.provider = provider
            record.piggybacked = False
            record.used = False
        if related:
            for rel_service, rel_provider in related:
                self._learn(rel_service, rel_provider, True)
        if destination == self.nid:
            # Only the first reply answers the request; later ones find
            # nothing pending.
            if self._pending.pop(in_reply_to, None) is not None:
                self.metrics.requests_answered += 1
            return None
        # A relay that forgot the id and then handled a later copy stored a
        # new upstream, so a reverse path can loop; the TTL ends the loop.
        upstream = self._floods[in_reply_to[0]][in_reply_to[1]][self.nid]
        if upstream is None or upstream == ORIGINATED or ttl <= 0:
            self.metrics.packets_dropped += 1
            return None
        return upstream, (responder, destination, in_reply_to, ttl - 1, answer, related)

    def _pick_related(self, service: int) -> list[tuple[int, int]]:
        """Related services the node can actually vouch for: in a frequent
        pair with ``service`` at the last re-mine and present in its own
        knowledge.  Callers skip it while ``itemsets`` is empty, as no pair
        is frequent then.  The ranking is read from ``_ranked``, computed
        once per service and re-mine."""
        ranked = self._ranked.get(service)
        if ranked is None:
            ranked = self._ranked[service] = rank_related(service, self._masks,
                                                          self._threshold)
        picks = []
        for other in ranked:
            record = self.lookup(other)
            if record is not None:
                picks.append((other, record.provider))
                if len(picks) == self.cfg.max_related:
                    break
        return picks

    # -- periodic duties ----------------------------------------------------

    def remine(self, miner) -> None:
        """Mine the log's closed sessions and keep a copy of its masks and
        the support count, on every call; ``_mining_tick`` calls it only
        when the log's ``closed_version`` moved since the last mine."""
        transactions = self.log.snapshot_transactions()
        if len(transactions) >= MIN_MINING_TRANSACTIONS:
            self.itemsets = miner(transactions)
            self._masks = self.log.masks.copy()
            self._threshold = min_count(self.cfg.support, len(transactions))
        else:
            self.itemsets = {}
            self._masks = {}
        self._ranked = {}
        self._mined_from = (self.log.closed_version, len(transactions))

    def expire_pending(self, now: float) -> int:
        """Fail every pending request older than the timeout; returns count.
        ``now=math.inf`` fails them all."""
        timeout = self.cfg.pending_timeout
        expired = [mid for mid, issued in self._pending.items() if now - issued >= timeout]
        for mid in expired:
            del self._pending[mid]
        self.metrics.requests_failed += len(expired)
        return len(expired)
