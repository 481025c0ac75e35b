"""Per-node circular log of service-request sessions.

Each record collects the set of services one consumer requested during a
single session; the log is bounded and evicts its oldest record first.
Only closed records feed the mining stage, so a half-observed session
cannot produce spurious itemsets.
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
    services: set[int] = field(default_factory=set)
    closed: bool = False

    @property
    def key(self) -> SessionKey:
        return (self.consumer, self.session_seq)


class LogDatabase:
    """Bounded FIFO collection of session records.

    A session closes once it has been open for ``session_window`` (see
    ``close_stale_sessions``) or as soon as the same consumer opens a new
    session.  Closed records are immutable.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"log capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._records: deque[SessionRecord] = deque()
        # A consumer has at most one open session: opening a new one
        # closes the previous.
        self._open: dict[int, SessionRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[SessionRecord, ...]:
        return tuple(self._records)

    def _close(self, record: SessionRecord) -> None:
        record.closed = True
        del self._open[record.consumer]

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
            if not oldest.closed:
                del self._open[oldest.consumer]
        record = SessionRecord(consumer, session_seq, now, {service})
        self._records.append(record)
        self._open[consumer] = record

    def close_stale_sessions(self, now: float, session_window: float) -> None:
        """Close every open record that has been open for at least
        ``session_window`` (boundary inclusive)."""
        if session_window <= 0:
            raise ValueError("session_window must be positive")
        for record in list(self._open.values()):
            if now - record.opened_at >= session_window:
                self._close(record)

    def snapshot_transactions(self) -> list[frozenset[int]]:
        """Service sets of all closed records, oldest first.  Pure read."""
        return [frozenset(r.services) for r in self._records if r.closed]

    def dump(self) -> str:
        """One line per record: ``<consumer>:<seq> closed=<0|1> services=<ids>``."""
        lines = []
        for r in self._records:
            ids = ",".join(str(s) for s in sorted(r.services))
            lines.append(f"{r.consumer}:{r.session_seq} closed={int(r.closed)} services={ids}")
        return "\n".join(lines)
