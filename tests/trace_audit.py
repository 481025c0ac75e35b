"""One reader of the event trace, and the protocol laws that every trace obeys."""

import re
from collections import Counter, deque
from functools import lru_cache

from corrdisc.netsim import DELIVER, ISSUE, MINING_TICK, SCAN, SCAN_INTERVAL, Simulation

SREQ = "sreq origin= seq= session= svc= ttl="
SREP = "srep responder= dest= reply= answer= ttl= related="
LAYOUTS = {ISSUE: ["svc= session= local="], "tx_bcast": [SREQ], "tx_ucast": ["to= " + SREP],
           DELIVER: ["from= " + SREQ, "from= " + SREP], SCAN: ["expired="],
           MINING_TICK: ["txns= itemsets="]}


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


def audit(lines, config, metrics) -> Counter:
    """Check every law on the lines of one run of ``config``; count each kind."""
    sim = Simulation(config)   # the run's topology and schedule, before it runs
    adjacency, end, hop = sim.topology.adjacency, config.sim_duration, config.hop_latency
    issue_at = {(s.consumer, s.session_seq, service): s.start_time + i * s.inter_request_gap
                for s in sim.schedule for i, service in enumerate(sorted(s.services))}
    period = config.mining_interval if config.mining_enabled else end
    timers = {SCAN: [SCAN_INTERVAL] * 2, MINING_TICK: [period] * 2}   # [next due time, period]
    deliveries = deque()   # (due, recipient, detail) of each delivery to come
    first_from = {}        # (node, SREQ id) -> the sender of its first copy, None at the origin
    pending, counts = {}, Counter()   # SREQ id -> its request's time, until answered or expired
    remembers = metrics.broadcasts_originated <= config.seen_capacity   # no node forgets an id
    prev, now, expect = (None, None, None, None, {}), 0.0, None
    for number, text in enumerate(lines, 1):
        time, kind, node, detail, f = line = read(text)
        at, last = (number, text), now
        assert expect in (None, (kind, node)), (at, "a tick writes one line per node, in order")
        if kind == ISSUE:
            now = issue_at.pop((node, f["session"], f["svc"]), None)
            assert now is not None, (at, "each request is issued once, when it is scheduled")
            counts["local"] += f["local"]
        elif kind in timers and not expect:   # a SCAN, or a tick's line for node 0
            now, timers[kind][0] = timers[kind][0], sum(timers[kind])   # as the engine sums
            assert now < end and node == (None if kind == SCAN else 0), (at, "timers on time")
        expect = (kind, node + 1) if kind == MINING_TICK and node + 1 < len(adjacency) else None
        if kind == SCAN:
            expired = {i for i, t in pending.items() if now - t >= config.pending_timeout}
            assert f["expired"] == len(expired), (at, "a SCAN expires each timed-out request")
            pending = {i: t for i, t in pending.items() if i not in expired}
            counts["expired"] += len(expired)
        elif kind == "tx_bcast":
            msg_id, p = (f["origin"], f["seq"]), prev[4]
            if prev[1:3] == (ISSUE, node):   # the flood of the request just issued
                assert [p["local"], p["session"], p["svc"], node, config.initial_ttl] == [
                    0, f["session"], f["svc"], f["origin"], f["ttl"]], (at, "local=0 floods")
                pending[msg_id], first_from[(node, msg_id)] = now, None
            else:
                copy = {**f, "from": p.get("from"), "ttl": f["ttl"] + 1}   # as delivered to it
                assert prev[1:3] == (DELIVER, node) and p == copy, (at, "a relay lowers the ttl")
                assert not remembers or p["from"] == first_from[(node, msg_id)], (
                    at, "a node relays only its first copy of an SREQ")
            deliveries.extend((now + hop, to, f"from={node} {detail}") for to in adjacency[node])
        elif kind == "tx_ucast":
            assert f["to"] in adjacency[node], (at, "every reply hop is between neighbours")
            assert not remembers or f["to"] == first_from.get((node, f["reply"])), (
                at, "a reply hop goes where the sender's first copy of its SREQ came from")
            assert config.mining_enabled or f["related"] == "[]", (at, "no mining, no related")
            assert prev[1:3] == (DELIVER, node), (at, "a node sends a reply only on a delivery")
            if "origin" in prev[4]:   # an answer to the SREQ just delivered
                counts["related"] += f["related"].count("@")
            else:                     # a forward of the SREP just delivered
                counts["forwarded"] += 1
            deliveries.append((now + hop, f["to"], f"from={node} {detail.split(' ', 1)[1]}"))
        elif kind == DELIVER:
            now, to, sent = deliveries.popleft() if deliveries else (None,) * 3
            assert (node, detail) == (to, sent), (at, "each transmission's deliveries, in order")
            if "origin" in f:
                first_from.setdefault((node, (f["origin"], f["seq"])), f["from"])
            elif node != f["dest"]:
                counts["relayed"] += 1   # forwarded or dropped
            elif pending.pop(f["reply"], None) is not None:
                counts["answered"] += 1
        assert time == f"{now:.3f}" and now >= last, (at, "each line bears its event's time")
        counts[kind] += 1
        prev = line
    assert expect is None and all(due >= end for due, *_ in [*deliveries, *timers.values()]), (
        "every tick is whole, and every timer and delivery due before the end has run")
    totals = dict(requests_issued=counts[ISSUE], locally_satisfied=counts["local"],
                  broadcasts_originated=counts[ISSUE] - counts["local"],
                  sreq_transmissions=counts["tx_bcast"], srep_transmissions=counts["tx_ucast"],
                  requests_answered=counts["answered"],
                  requests_failed=counts["expired"] + len(pending),
                  piggybacked_records_sent=counts["related"],
                  packets_dropped=counts["relayed"] - counts["forwarded"])
    assert totals == {key: getattr(metrics, key) for key in totals}, (totals, metrics)
    return counts
