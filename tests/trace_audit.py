"""One reader of the event trace, and the protocol laws that every trace obeys."""

import re
from collections import Counter, deque
from functools import lru_cache
from itertools import count, zip_longest

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
    first_from = {}        # (node, SREQ id) -> the sender of its first copy, None at the origin
    pending, counts = {}, Counter()   # SREQ id -> its request's time, until answered or expired
    remembers = metrics.broadcasts_originated <= config.seen_capacity   # no node forgets an id
    prev, now, expect = (None, None, None, None, {}), 0.0, None
    for number, text in enumerate(lines, 1):
        time, kind, node, detail, f = line = read(text)
        at, event = (number, text), None
        assert expect in (None, (kind, node)), (at, "a tick writes one line per node, in order")
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
            due = (now + hop, next(order))
            deliveries.extend((*due, to, f"from={node} {detail}") for to in adjacency[node])
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
            deliveries.append((now + hop, next(order), f["to"],
                               f"from={node} {detail.split(' ', 1)[1]}"))
        elif kind == DELIVER:
            if "origin" in f:
                first_from.setdefault((node, (f["origin"], f["seq"])), f["from"])
            elif node != f["dest"]:
                counts["relayed"] += 1   # forwarded or dropped
            elif pending.pop(f["reply"], None) is not None:
                counts["answered"] += 1
        assert time == f"{now:.3f}", (at, "each line bears its event's time")
        counts[kind] += 1
        prev = line
    assert expect is None and all(
        due >= end for due, *_ in [*issues, *deliveries, *timers.values()]), (
        "every tick is whole, and every event due before the end has run")
    totals = dict(requests_issued=counts[ISSUE], locally_satisfied=counts["local"],
                  broadcasts_originated=counts[ISSUE] - counts["local"],
                  sreq_transmissions=counts["tx_bcast"], srep_transmissions=counts["tx_ucast"],
                  requests_answered=counts["answered"],
                  requests_failed=counts["expired"] + len(pending),
                  piggybacked_records_sent=counts["related"],
                  packets_dropped=counts["relayed"] - counts["forwarded"])
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
