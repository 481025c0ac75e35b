"""Per-node circular log of service-request sessions.

Each record collects the set of services one consumer requested during a
single session; the log is bounded and evicts its oldest record first.
Only closed records feed the mining stage, so a half-observed session
cannot produce spurious itemsets.  Closing a record freezes its service
set, so every snapshot of the log hands the miner the same frozenset
objects for a closed session, and their hashes are computed once.
The log also keeps the miner's vertical bitsets of its closed records,
one mask per service (``LogDatabase.masks``), up to date as records
close and leave, so a re-mine starts from them instead of rebuilding
them from the snapshot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

SessionKey = tuple[int, int]  # (consumer node id, consumer-assigned session seq)


@dataclass(slots=True)
class SessionRecord:
    consumer: int
    session_seq: int
    opened_at: float
    services: set[int] | frozenset[int] = field(default_factory=set)  # frozen on close
    closed: bool = False
    bit: int = 1  # this record's bit in LogDatabase.masks: 1 << its slot

    @property
    def key(self) -> SessionKey:
        return (self.consumer, self.session_seq)


class LogDatabase:
    """Bounded FIFO collection of session records.

    A session closes once it has been open for ``session_window`` (see
    ``close_stale_sessions``) or as soon as the same consumer opens a new
    session.  Closed records are immutable, so the closed records, and
    with them ``snapshot_transactions()``, change only when
    ``closed_version`` rises: on every close and on every eviction of a
    closed record.

    ``masks`` maps each service to the bitset of the closed records that
    hold it, and holds no other service.  A record's bit is its slot, its
    append count modulo ``capacity``: at most ``capacity`` records are
    live and their append counts are consecutive, so no two share a bit.
    Closing a record sets its bit in the masks of its services; evicting a
    closed record clears it, deleting a mask that becomes 0.  Open records
    have no bit set.  Support counts are popcounts, so any one-to-one bit
    assignment mines to the same itemsets as the snapshot's positions.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"log capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._records: deque[SessionRecord] = deque()
        # A consumer has at most one open session: opening a new one
        # closes the previous.
        self._open: dict[int, SessionRecord] = {}
        self.closed_version = 0
        self.masks: dict[int, int] = {}
        self._appended = 0  # records ever appended; mod capacity, the next one's slot

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[SessionRecord, ...]:
        return tuple(self._records)

    def _close(self, record: SessionRecord) -> None:
        services = record.services = frozenset(record.services)
        record.closed = True
        del self._open[record.consumer]
        self.closed_version += 1
        masks, bit = self.masks, record.bit
        for service in services:
            masks[service] = masks.get(service, 0) | bit

    def record_request(self, key: SessionKey, service: int, now: float) -> None:
        """Add one request to the open session under ``key``, creating the
        record (and evicting the oldest if full) when none is open."""
        consumer, session_seq = key
        record = self._open.get(consumer)
        if record is not None:
            if record.session_seq == session_seq:
                record.services.add(service)
                return
            # The consumer moved on to a new session; the old one is over.
            self._close(record)
        if len(self._records) == self.capacity:
            oldest = self._records.popleft()
            if oldest.closed:
                self.closed_version += 1
                masks, bit = self.masks, oldest.bit
                for old_service in oldest.services:
                    mask = masks[old_service] ^ bit  # the bit is set: clear it
                    if mask:
                        masks[old_service] = mask
                    else:
                        del masks[old_service]
            else:
                del self._open[oldest.consumer]
        record = SessionRecord(consumer, session_seq, now, {service},
                               bit=1 << (self._appended % self.capacity))
        self._appended += 1
        self._records.append(record)
        self._open[consumer] = record

    def close_stale_sessions(self, now: float, session_window: float) -> None:
        """Close every open record that has been open for at least
        ``session_window`` (boundary inclusive).  Requests come in time
        order, so the stale records lead ``_open`` (in opening order)."""
        if session_window <= 0:
            raise ValueError("session_window must be positive")
        while self._open:
            record = next(iter(self._open.values()))
            if now - record.opened_at < session_window:
                return
            self._close(record)

    def snapshot_transactions(self) -> list[frozenset[int]]:
        """Service sets of all closed records, oldest first: the frozensets
        stored at closing, not copies.  Pure read."""
        return [r.services for r in self._records if r.closed]
