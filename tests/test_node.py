from hypothesis import given, settings
from hypothesis import strategies as st

from corrdisc.netsim import Metrics, SimConfig
from corrdisc.node import Node, ServiceRecord, ServiceTable
from corrdisc.packets import Sreq, Srep


def make_node(nid=0, **overrides) -> Node:
    cfg = SimConfig(node_count=4, service_count=16, **overrides)
    return Node(nid, cfg, Metrics())


def rec(service, provider=9, when=0.0, piggybacked=False):
    return ServiceRecord(service, provider, when, piggybacked)


def fs(*items):
    return frozenset(items)


# -- service table ------------------------------------------------------------

def test_fifo_eviction_six_into_five():
    table = ServiceTable(5)
    for service in "ABCDEF":
        table.insert(rec(service))
    assert [r.service for r in table.records()] == list("BCDEF")


def test_reinsert_replaces_in_place():
    table = ServiceTable(5)
    table.insert(rec("A", provider=1))
    table.insert(rec("B"))
    table.insert(rec("A", provider=2))
    assert len(table) == 2
    # No FIFO refresh: A keeps its original position and is evicted first.
    assert [r.service for r in table.records()] == ["A", "B"]
    assert table.get("A").provider == 2
    for service in "CDEF":
        table.insert(rec(service))
    assert "A" not in table


def test_lookup_absent():
    table = ServiceTable(5)
    assert table.get("missing") is None


def test_insert_returns_evicted_record():
    table = ServiceTable(1)
    table.insert(rec("A"))
    evicted = table.insert(rec("B"))
    assert evicted.service == "A"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=40), st.integers(1, 5))
def test_table_never_exceeds_capacity(services, capacity):
    table = ServiceTable(capacity)
    for s in services:
        table.insert(rec(s))
    assert len(table) <= capacity


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(0, 12))
def test_fifo_law_distinct_inserts(capacity, n):
    table = ServiceTable(capacity)
    for s in range(n):
        table.insert(rec(s))
    kept = [r.service for r in table.records()]
    assert kept == list(range(max(0, n - capacity), n))


# -- issue_request ---------------------------------------------------------------

def test_issue_request_cached_service():
    node = make_node()
    node.table.insert(rec(3))
    out = node.issue_request(3, 0, now=1.0)
    assert out == ()
    assert node.metrics.locally_satisfied == 1
    assert node.metrics.prediction_hits == 0


def test_issue_request_miss_broadcasts_full_ttl():
    node = make_node()
    out = node.issue_request(3, 0, now=1.0)
    assert len(out) == 1
    to, sreq = out[0]
    assert to is None
    assert sreq == Sreq(origin=0, seq=0, session_seq=0, requested=3,
                        ttl=node.cfg.initial_ttl)
    assert node.metrics.broadcasts_originated == 1
    # The request is logged locally either way.
    assert node.log.records[0].services == {3}


def test_issue_request_piggybacked_hit_counts_prediction():
    node = make_node()
    node.table.insert(rec(3, piggybacked=True))
    node.issue_request(3, 0, now=1.0)
    assert node.metrics.locally_satisfied == 1
    assert node.metrics.prediction_hits == 1


def test_issue_request_own_service_is_local():
    node = make_node()
    node.host_service(7)
    out = node.issue_request(7, 0, now=0.0)
    assert out == ()
    assert node.metrics.locally_satisfied == 1


# -- handle_sreq --------------------------------------------------------------------

def test_handle_sreq_answers_with_related_from_table():
    node = make_node(nid=2)
    node.table.insert(rec(3, provider=5))
    node.table.insert(rec(7, provider=6))
    node.itemsets = {fs(3, 7): 4}
    sreq = Sreq(origin=1, seq=0, session_seq=0, requested=3, ttl=8)
    out = node.handle_sreq(sreq, from_node=1, now=2.0)
    assert len(out) == 1
    to, srep = out[0]
    assert to == 1
    assert srep.destination == 1
    assert srep.answer == (3, 5)
    assert srep.related == ((7, 6),)
    assert node.metrics.piggybacked_records_sent == 1


def test_handle_sreq_related_filtered_to_known_services():
    node = make_node(nid=2)
    node.table.insert(rec(3, provider=5))
    node.itemsets = {fs(3, 9): 4}   # 9 is co-frequent but unknown here
    sreq = Sreq(origin=1, seq=0, session_seq=0, requested=3, ttl=8)
    ((_, srep),) = node.handle_sreq(sreq, from_node=1, now=2.0)
    assert srep.related == ()


def test_handle_sreq_related_capped_and_ranked():
    node = make_node(nid=2, max_related=2)
    for service, provider in ((3, 5), (6, 1), (7, 1), (8, 1)):
        node.table.insert(rec(service, provider=provider))
    node.itemsets = {fs(3, 6): 2, fs(3, 7): 5, fs(3, 8): 5}
    sreq = Sreq(origin=1, seq=0, session_seq=0, requested=3, ttl=8)
    ((_, srep),) = node.handle_sreq(sreq, from_node=1, now=2.0)
    # Strongest support first, ties toward the lower id, capped at 2.
    assert srep.related == ((7, 1), (8, 1))


def test_handle_sreq_ttl_exhausted():
    node = make_node(nid=2)
    sreq = Sreq(origin=1, seq=0, session_seq=0, requested=3, ttl=0)
    assert node.handle_sreq(sreq, from_node=1, now=2.0) == ()


def test_handle_sreq_rebroadcast_decrements_ttl():
    node = make_node(nid=2)
    sreq = Sreq(origin=1, seq=0, session_seq=0, requested=3, ttl=8)
    ((to, fwd),) = node.handle_sreq(sreq, from_node=1, now=2.0)
    assert to is None
    assert fwd.ttl == 7
    assert fwd.msg_id == sreq.msg_id


def test_handle_sreq_duplicate_suppressed():
    node = make_node(nid=2)
    sreq = Sreq(origin=1, seq=0, session_seq=0, requested=3, ttl=8)
    assert node.handle_sreq(sreq, from_node=1, now=2.0) != ()
    assert node.handle_sreq(sreq, from_node=3, now=2.1) == ()
    # Re-delivery with lower ttl is the same message: still suppressed.
    assert node.handle_sreq(Sreq(1, 0, 0, 3, 5), from_node=3, now=2.2) == ()


def test_handle_sreq_logs_overheard_request():
    node = make_node(nid=2, log_overheard=True)
    sreq = Sreq(origin=1, seq=0, session_seq=4, requested=3, ttl=8)
    node.handle_sreq(sreq, from_node=1, now=2.0)
    assert node.log.records[0].key == (1, 4)
    assert node.log.records[0].services == {3}


def test_handle_sreq_no_overheard_logging_when_disabled():
    node = make_node(nid=2, log_overheard=False)
    sreq = Sreq(origin=1, seq=0, session_seq=4, requested=3, ttl=8)
    node.handle_sreq(sreq, from_node=1, now=2.0)
    assert len(node.log) == 0


# -- handle_srep ----------------------------------------------------------------------

def test_handle_srep_destined_insert_order_answer_first():
    node = make_node(nid=1)
    node._pending[(1, 0)] = (3, 0.0)
    srep = Srep(responder=2, destination=1, in_reply_to=(1, 0), ttl=8,
                answer=(3, 5), related=((7, 6), (9, 6)))
    assert node.handle_srep(srep, from_node=2, now=3.0) == ()
    assert [r.service for r in node.table.records()] == [3, 7, 9]
    assert [r.piggybacked for r in node.table.records()] == [False, True, True]
    assert node._pending == {}


def test_handle_srep_transit_forwards_and_caches():
    node = make_node(nid=2)
    # Transit memory: first saw the sreq from node 3.
    node.handle_sreq(Sreq(origin=1, seq=0, session_seq=0, requested=3, ttl=8),
                     from_node=3, now=1.0)
    srep = Srep(responder=4, destination=1, in_reply_to=(1, 0), ttl=8,
                answer=(3, 5), related=((7, 6),))
    ((to, fwd),) = node.handle_srep(srep, from_node=4, now=2.0)
    assert to == 3
    assert fwd.ttl == 7
    assert [r.service for r in node.table.records()] == [3, 7]


def test_handle_srep_unknown_reverse_path_dropped():
    node = make_node(nid=2)
    srep = Srep(responder=4, destination=1, in_reply_to=(1, 99), ttl=8,
                answer=(3, 5))
    assert node.handle_srep(srep, from_node=4, now=2.0) == ()
    assert node.metrics.packets_dropped == 1
    # The records are still cached (pseudo-broadcast stores on transit too).
    assert 3 in node.table


def test_handle_srep_piggyback_eviction_accounting():
    node = make_node(nid=1, cache_capacity=5)
    srep = Srep(responder=2, destination=1, in_reply_to=(1, 0), ttl=8,
                answer=(3, 5), related=((7, 6),))
    node.handle_srep(srep, from_node=2, now=3.0)
    # Flood the table so the unused piggybacked record for 7 is evicted.
    for service in (10, 11, 12, 13, 14):
        node.handle_srep(Srep(2, 1, (1, 0), 8, answer=(service, 5)),
                         from_node=2, now=4.0)
    assert node.metrics.piggybacked_records_evicted_unused == 1


def test_piggybacked_copy_never_downgrades_direct_record():
    node = make_node(nid=1)
    node.handle_srep(Srep(2, 1, (1, 0), 8, answer=(7, 2)), from_node=2, now=1.0)
    # Another reply piggybacks the same service as a prediction.
    node.handle_srep(Srep(2, 1, (1, 1), 8, answer=(3, 5), related=((7, 2),)),
                     from_node=2, now=2.0)
    record = node.table.get(7)
    assert not record.piggybacked
    assert [r.service for r in node.table.records()] == [7, 3]
    node.issue_request(7, 0, now=3.0)
    assert node.metrics.locally_satisfied == 1
    assert node.metrics.prediction_hits == 0


def test_pending_expiry():
    node = make_node()
    node.issue_request(3, 0, now=0.0)
    assert node.expire_pending(now=4.0) == 0
    assert node.expire_pending(now=5.0) == 1   # timeout boundary inclusive
    assert node.metrics.requests_failed == 1


def test_remine_respects_minimum_database():
    node = make_node(log_overheard=True)
    miner = lambda txns: {fs(1): len(txns)}
    for i in range(2):
        node.log.record_request((5, i), 1, now=float(i))
    node.log.close_stale_sessions(now=100.0, session_window=1.0)
    node.remine(miner)
    assert node.itemsets == {}
    node.log.record_request((5, 2), 1, now=200.0)
    node.log.close_stale_sessions(now=300.0, session_window=1.0)
    node.remine(miner)
    assert node.itemsets == {fs(1): 3}


def test_baseline_related_always_empty():
    # Without mined itemsets every reply has an empty related list.
    node = make_node(nid=2)
    node.table.insert(rec(3, provider=5))
    ((_, srep),) = node.handle_sreq(Sreq(1, 0, 0, 3, 8), from_node=1, now=1.0)
    assert srep.related == ()


def test_seen_memory_bounded():
    node = make_node(seen_capacity=4)
    for seq in range(10):
        node.handle_sreq(Sreq(origin=1, seq=seq, session_seq=0, requested=3, ttl=0),
                         from_node=1, now=0.0)
    assert len(node._seen) == 4
