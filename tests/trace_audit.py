"""One reader of the event trace, and the protocol laws that every trace obeys.

The auditor rebuilds each node's seen memory and session log from the trace
and the config alone, so it checks relays, drops and mining ticks without
reading the engine's state.  Its models are also the references that the
unit tests check the engine against, op by op: ``SessionLog`` for
``LogDatabase`` (``tests/test_sessionlog.py``), and ``SeenMemory`` for a
node's slots of the flood rows (``tests/test_node.py``)."""

import re
from collections import Counter, deque
from functools import lru_cache
from itertools import count, zip_longest

from corrdisc.mining import MIN_MINING_TRANSACTIONS, min_count, mine_frequent_itemsets
from corrdisc.netsim import DELIVER, ISSUE, MINING_TICK, SCAN, SCAN_INTERVAL, Simulation

SREQ = "sreq origin= seq= session= svc= ttl="
SREP = "srep responder= dest= reply= answer= ttl= related="
LAYOUTS = {ISSUE: ["svc= session= local="], "tx_bcast": [SREQ], "tx_ucast": ["to= " + SREP],
           DELIVER: ["from= " + SREQ, "from= " + SREP], SCAN: ["expired="],
           MINING_TICK: ["txns= pairs="]}


@lru_cache(maxsize=1024)   # every recipient of a broadcast gets the same detail
def read_detail(kind: str, detail: str) -> dict:
    assert re.sub("=[^ ]*", "=", detail) in LAYOUTS.get(kind, ())
    return {key: value if key in ("answer", "related") else
            tuple(map(int, value.split(":"))) if key == "reply" else int(value)
            for key, value in re.findall("([a-z]+)=([^ ]*)", detail)}


def read(text: str) -> tuple:
    """``(time, kind, node, detail, values)`` of ``<time> <kind> <node> <detail>``."""
    try:
        time, kind, node, detail = text.split(" ", 3)
        node = None if kind == SCAN and node == "-" else int(node)
        return time, kind, node, detail, read_detail(kind, detail)
    except (AssertionError, ValueError):
        raise AssertionError(f"cannot read {text!r}; is its layout in LAYOUTS?") from None


def lowered(delivered: dict) -> dict:
    """A delivered packet's fields as a relay sends it on: the ttl one lower."""
    fields = {**delivered, "ttl": delivered["ttl"] - 1}
    del fields["from"]
    return fields


def ranked_by_pair_counts(service, txns, support):
    """The services that share at least the support count of transactions
    with ``service``, by that count descending, then by id: counted
    straight from the transactions."""
    pairs = Counter(other for t in txns if service in t for other in t - {service})
    threshold = min_count(support, len(txns))
    return sorted((o for o in pairs if pairs[o] >= threshold), key=lambda o: (-pairs[o], o))


def records(detail: dict) -> list:
    """``(service, provider)`` of an SREP's answer, then of its related records."""
    texts = [detail["answer"], *filter(None, detail["related"][1:-1].split(","))]
    return [tuple(map(int, text.split("@"))) for text in texts]


class SessionLog:
    """A node's session log as the trace builds it: at most ``capacity``
    records ``[consumer, session, opened_at, services, open]``, oldest
    first, and at most one open record per consumer.  The unit tests also
    drive it beside a ``LogDatabase`` as the reference for its records."""

    def __init__(self, capacity: int):
        self.records = deque(maxlen=capacity)   # a full log drops its oldest record

    def log(self, consumer: int, session: int, service: int, now: float) -> None:
        for record in self.records:
            if record[0] == consumer and record[4]:
                if record[1] == session:
                    record[3].add(service)
                    return
                record[4] = False   # the consumer's next session closes it
        self.records.append([consumer, session, now, {service}, True])

    def close_due(self, now: float, window: float) -> list:
        """Close each record open for ``window``; the closed records' services."""
        for record in self.records:
            record[4] = record[4] and now - record[2] < window
        return [record[3] for record in self.records if not record[4]]


class SeenMemory(dict):
    """A node's seen memory as the trace builds it: SREQ id -> the upstream
    hop of the first copy the node handled, or ``None`` for a request it
    issued; at most ``capacity`` ids, oldest first."""

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def remember(self, msg_id, upstream) -> None:
        if len(self) == self.capacity:
            del self[next(iter(self))]   # forget the oldest id
        self[msg_id] = upstream


def audit(lines, config, metrics) -> Counter:
    """Check every law on the lines of one run of ``config``; count each kind."""
    sim = Simulation(config)   # the run's topology and schedule, before it runs
    adjacency, end, hop = sim.topology.adjacency, config.sim_duration, config.hop_latency
    # Each pending event is keyed (due time, order scheduled), as the engine's
    # (time, seq): setup numbers the issues in schedule order, then SCAN, then
    # the tick; each transmission and each timer's successor takes the next
    # number when its line appears.
    order = count()
    issues = deque(sorted((s.start_time + i * s.inter_request_gap, next(order),
                           s.consumer, s.session_seq, service)
                          for s in sim.schedule for i, service in enumerate(sorted(s.services))))
    period = {SCAN: SCAN_INTERVAL,
              MINING_TICK: config.mining_interval if config.mining_enabled else end}
    timers = {kind: (period[kind], next(order)) for kind in period}
    deliveries = deque()   # (due, order, recipient, detail) of each delivery to come
    seen = [SeenMemory(config.seen_capacity) for _ in adjacency]
    logs = [SessionLog(config.log_capacity) for _ in adjacency]
    # Each node's closed sessions at its last tick, if enough to mine, and
    # the rankings read from them so far: service -> ranked partners.
    kept = [([], {}) for _ in adjacency]
    logging, overheard = config.mining_enabled, config.mining_enabled and config.log_overheard
    pending, counts = {}, Counter()   # SREQ id -> its request's time, until answered or expired
    floods = Counter()   # origin -> the floods it has issued so far

    prev, now, expect = (None, None, None, None, {}), 0.0, None
    # What the last line lets its node send next (kind -> its to=), whether
    # it must send one of them, and the law that says so.
    sends, owed, law = {}, False, None
    for number, text in enumerate(lines, 1):
        time, kind, node, detail, f = line = read(text)
        at, event = (number, text), None
        assert expect in (None, (kind, node)), (at, "a tick writes one line per node, in order")
        if kind in ("tx_bcast", "tx_ucast"):
            assert node == prev[2] and kind in sends and sends[kind] == f.get("to"), (
                at, law or "a node transmits only on an issue or a delivery to it")
        else:
            assert not owed, (at, law)
        sends, owed, law = {}, False, None
        if kind == ISSUE:
            event = issues.popleft() if issues else ()
            assert event[2:] == (node, f["session"], f["svc"]), (
                at, "each request is issued once, in the order they fall due")
            counts["local"] += f["local"]
        elif kind in timers and not expect:   # a SCAN, or a tick's line for node 0
            event = timers[kind]
            timers[kind] = (event[0] + period[kind], next(order))   # as the engine sums
            assert node == (None if kind == SCAN else 0), (at, "a tick's block starts at node 0")
        elif kind == DELIVER:
            event = deliveries.popleft() if deliveries else ()
            assert event[2:] == (node, detail), (at, "each transmission's deliveries, in order")
        if event:   # the tie rule, which also keeps times from decreasing
            now, heads = event[0], [*timers.values(), *(q[0] for q in (issues, deliveries) if q)]
            assert now < end and event[:2] <= min(heads)[:2], (
                at, "before the end, the least pending (due time, order scheduled) runs next")
        expect = (kind, node + 1) if kind == MINING_TICK and node + 1 < len(adjacency) else None
        if kind == ISSUE:
            if logging:
                logs[node].log(node, f["session"], f["svc"], now)
            sends, owed = ({}, False) if f["local"] else ({"tx_bcast": None}, True)
            law = "a request floods at once unless it is satisfied locally"
        elif kind == SCAN:
            expired = {i for i, t in pending.items() if now - t >= config.pending_timeout}
            assert f["expired"] == len(expired), (at, "a SCAN expires each timed-out request")
            pending = {i: t for i, t in pending.items() if i not in expired}
            counts["expired"] += len(expired)
        elif kind == MINING_TICK:
            closed = logs[node].close_due(now, config.session_window)
            found = (len(mine_frequent_itemsets(closed, config.support, max_size=2))
                     if len(closed) >= MIN_MINING_TRANSACTIONS else 0)
            assert (f["txns"], f["pairs"]) == (len(closed), found), (
                at, "a tick closes each session open for session_window, and counts the "
                    "closed sessions and the frequent singletons and pairs they mine to")
            kept[node] = (closed if len(closed) >= MIN_MINING_TRANSACTIONS else [], {})
        elif kind == "tx_bcast":
            msg_id, p = (f["origin"], f["seq"]), prev[4]
            if prev[1] == ISSUE:   # the flood of the request just issued
                assert [p["session"], p["svc"], node, config.initial_ttl, floods[node]] == [
                    f["session"], f["svc"], f["origin"], f["ttl"], f["seq"]], (
                    at, "a flood's first SREQ, numbered by its origin 0, 1, 2, ... in issue order")
                floods[node] += 1
                pending[msg_id] = now
                seen[node].remember(msg_id, None)
            else:
                assert lowered(p) == f, (at, "a relay lowers the ttl")
            due = (now + hop, next(order))
            deliveries.extend((*due, to, f"from={node} {detail}") for to in adjacency[node])
        elif kind == "tx_ucast":
            assert config.mining_enabled or f["related"] == "[]", (at, "no mining, no related")
            answer, *related = records(f)
            assert all(sim.placement[svc] == provider for svc, provider in [answer, *related]), (
                at, "every record names its service's true provider")
            if "origin" in prev[4]:   # an answer to the SREQ just delivered
                counts["related"] += len(related)
                closed, rankings = kept[node]
                requested = prev[4]["svc"]
                if requested not in rankings:
                    rankings[requested] = ranked_by_pair_counts(requested, closed, config.support)
                related = [svc for svc, _ in related]
                assert answer[0] == requested and related == [
                    svc for svc in rankings[requested] if svc in related], (
                    at, "an answer names the requested service, and its related records are "
                        "partners of it in frequent pairs of the responder's closed sessions "
                        "at its last tick, in ranking order")
            else:                     # a forward of the SREP just delivered
                assert {**lowered(prev[4]), "to": f["to"]} == f, (at, "a relay lowers the ttl")
            deliveries.append((now + hop, next(order), f["to"],
                               f"from={node} {detail.split(' ', 1)[1]}"))
        elif kind == DELIVER and "origin" in f:
            law = ("a node acts only on an SREQ copy whose id it does not remember, "
                   "and a handled copy with ttl > 0 yields one transmission")
            msg_id = (f["origin"], f["seq"])
            if msg_id not in seen[node]:
                seen[node].remember(msg_id, f["from"])
                if overheard:
                    logs[node].log(f["origin"], f["session"], f["svc"], now)
                owed = f["ttl"] > 0
                sends = {"tx_ucast": f["from"], **({"tx_bcast": None} if owed else {})}
        elif kind == DELIVER and node != f["dest"]:
            law = ("a relay forwards an SREP to its stored upstream while the id is in "
                   "its seen memory and ttl > 0, and drops it otherwise")
            upstream = seen[node].get(f["reply"])
            if upstream is None:
                counts["dropped_forgotten"] += 1
            elif f["ttl"] <= 0:
                counts["dropped_ttl"] += 1
            else:
                sends, owed = {"tx_ucast": upstream}, True
        elif kind == DELIVER and pending.pop(f["reply"], None) is not None:
            counts["answered"] += 1
        assert time == f"{now:.3f}", (at, "each line bears its event's time")
        counts[kind] += 1
        prev = line
    assert expect is None and not owed and all(
        due >= end for due, *_ in [*issues, *deliveries, *timers.values()]), (
        "every tick is whole, every owed transmission is sent, and every event due "
        "before the end has run")
    totals = dict(requests_issued=counts[ISSUE], locally_satisfied=counts["local"],
                  broadcasts_originated=counts[ISSUE] - counts["local"],
                  sreq_transmissions=counts["tx_bcast"], srep_transmissions=counts["tx_ucast"],
                  requests_answered=counts["answered"],
                  requests_failed=counts["expired"] + len(pending),
                  piggybacked_records_sent=counts["related"],
                  packets_dropped=counts["dropped_forgotten"] + counts["dropped_ttl"])
    assert totals == {key: getattr(metrics, key) for key in totals}, (totals, metrics)
    return counts


def audit_pair(off_lines, on_lines) -> int | None:
    """Check the paired law on the mining-off and mining-on traces of one
    config and seed: without its ``mining_tick`` lines, the mining-on trace
    equals the mining-off one line for line up to its first prediction, the
    first ``tx_ucast`` whose ``related=`` is not empty.  Without one, the
    whole traces are equal.  Return the prediction's line number, or None."""
    on_lines = (line for line in on_lines if line.split(" ", 2)[1] != MINING_TICK)
    for number, (off, on) in enumerate(zip_longest(off_lines, on_lines), 1):
        if on and on.split(" ", 2)[1] == "tx_ucast" and not on.endswith("related=[]"):
            return number
        assert off == on, (number, off, on, "the variants agree until the first prediction")
    return None
