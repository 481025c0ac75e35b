"""Per-node protocol state machine.

A node owns a bounded FIFO service table, the circular session log, the
latest mined itemsets, duplicate-suppression and reverse-path memory for
flooded requests, and the pending-request bookkeeping behind the
locally-satisfied metric.  Handlers return the packets to send as
``(next_hop, packet)`` pairs, ``next_hop=None`` meaning broadcast; the
simulation layer does the actual delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .mining import MIN_MINING_TRANSACTIONS, rank_related
from .packets import Sreq, Srep
from .sessionlog import LogDatabase

if TYPE_CHECKING:
    from .netsim import Metrics, SimConfig

MsgId = tuple[int, int]
Emission = tuple[int | None, Sreq | Srep]


@dataclass(slots=True)
class ServiceRecord:
    service: int
    provider: int
    learned_at: float
    piggybacked: bool = False  # learned as a prediction, not a direct answer
    used: bool = False


class ServiceTable:
    """Insertion-ordered service cache, at most one record per service.

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
    def __init__(self, nid: int, config: "SimConfig", metrics: "Metrics"):
        self.nid = nid
        self.cfg = config
        self.metrics = metrics
        self.table = ServiceTable(config.cache_capacity)
        self.own_services: dict[int, ServiceRecord] = {}
        self.log = LogDatabase(config.log_capacity)
        self.itemsets: dict[frozenset[int], int] = {}
        self._seen: dict[MsgId, int | None] = {}   # msg_id -> first upstream hop
        self._pending: dict[MsgId, tuple[int, float]] = {}
        self._next_seq = 0

    # -- service knowledge ------------------------------------------------

    def host_service(self, service: int) -> None:
        """Preload a service this node provides; pinned, never evicted."""
        self.own_services[service] = ServiceRecord(service, self.nid, 0.0)

    def lookup(self, service: int) -> ServiceRecord | None:
        record = self.own_services.get(service)
        if record is not None:
            return record
        return self.table.get(service)

    def _store(self, record: ServiceRecord) -> None:
        if record.service in self.own_services:
            return
        current = self.table.get(record.service)
        if record.piggybacked and current is not None and not current.piggybacked:
            return  # a prediction never downgrades a directly learned record
        evicted = self.table.insert(record)
        if evicted is not None and evicted.piggybacked and not evicted.used:
            self.metrics.piggybacked_records_evicted_unused += 1

    # -- duplicate suppression / reverse path ------------------------------

    def _remember(self, msg_id: MsgId, upstream: int | None) -> None:
        seen = self._seen
        if len(seen) >= self.cfg.seen_capacity:
            del seen[next(iter(seen))]
        seen[msg_id] = upstream

    # -- protocol handlers --------------------------------------------------

    def issue_request(self, service: int, session_seq: int, now: float) -> tuple[Emission, ...]:
        m = self.metrics
        m.requests_issued += 1
        self.log.record_request((self.nid, session_seq), service, now)
        record = self.lookup(service)
        if record is not None:
            m.locally_satisfied += 1
            if record.piggybacked:
                m.prediction_hits += 1
            record.used = True
            return ()
        seq = self._next_seq
        self._next_seq += 1
        sreq = Sreq(self.nid, seq, session_seq, service, self.cfg.initial_ttl)
        self._remember(sreq.msg_id, None)
        self._pending[sreq.msg_id] = (service, now)
        m.broadcasts_originated += 1
        return ((None, sreq),)

    def handle_sreq(self, sreq: Sreq, from_node: int, now: float) -> tuple[Emission, ...]:
        msg_id = sreq.msg_id
        if msg_id in self._seen:
            # Re-logging a duplicate would be a no-op (set semantics).
            return ()
        self._remember(msg_id, from_node)
        if self.cfg.log_overheard:
            self.log.record_request((sreq.origin, sreq.session_seq), sreq.requested, now)
        record = self.lookup(sreq.requested)
        if record is not None:
            record.used = True
            related = self._pick_related(sreq.requested)
            if related:
                self.metrics.piggybacked_records_sent += len(related)
            srep = Srep(responder=self.nid, destination=sreq.origin,
                        in_reply_to=msg_id, ttl=self.cfg.initial_ttl,
                        answer=(sreq.requested, record.provider),
                        related=tuple(related))
            return ((from_node, srep),)
        if sreq.ttl > 0:
            return ((None, replace(sreq, ttl=sreq.ttl - 1)),)
        return ()

    def handle_srep(self, srep: Srep, from_node: int, now: float) -> tuple[Emission, ...]:
        service, provider = srep.answer
        self._store(ServiceRecord(service, provider, now))
        for rel_service, rel_provider in srep.related:
            self._store(ServiceRecord(rel_service, rel_provider, now, piggybacked=True))
        if srep.destination == self.nid:
            self._pending.pop(srep.in_reply_to, None)
            return ()
        upstream = self._seen.get(srep.in_reply_to)
        if upstream is None or srep.ttl <= 0:
            self.metrics.packets_dropped += 1
            return ()
        return ((upstream, replace(srep, ttl=srep.ttl - 1)),)

    def _pick_related(self, service: int) -> list[tuple[int, int]]:
        """Related services the node can actually vouch for: mined as
        co-frequent with ``service`` and present in its own knowledge."""
        if not self.itemsets:
            return []
        picks = []
        for other in rank_related(service, self.itemsets):
            record = self.lookup(other)
            if record is not None:
                picks.append((other, record.provider))
                if len(picks) == self.cfg.max_related:
                    break
        return picks

    # -- periodic duties ----------------------------------------------------

    def remine(self, miner) -> None:
        """Refresh the itemset snapshot from the closed sessions in the log."""
        transactions = self.log.snapshot_transactions()
        if len(transactions) >= MIN_MINING_TRANSACTIONS:
            self.itemsets = miner(transactions)
        else:
            self.itemsets = {}

    def expire_pending(self, now: float) -> int:
        """Fail every pending request older than the timeout; returns count."""
        timeout = self.cfg.pending_timeout
        expired = [mid for mid, (_, issued) in self._pending.items()
                   if now - issued >= timeout]
        for mid in expired:
            del self._pending[mid]
        self.metrics.requests_failed += len(expired)
        return len(expired)

    def fail_all_pending(self) -> int:
        count = len(self._pending)
        self._pending.clear()
        self.metrics.requests_failed += count
        return count
