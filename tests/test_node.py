from hypothesis import given, settings
from hypothesis import strategies as st

from corrdisc.mining import MIN_MINING_TRANSACTIONS, mine_frequent_itemsets, rank_related
from corrdisc.netsim import Metrics, SimConfig
from corrdisc.node import ORIGINATED, Node, ServiceRecord, ServiceTable
from corrdisc.packets import SREQ_FIELDS, Sreq, Srep
from trace_audit import SeenMemory, ranked_by_pair_counts


class IssuedRows(list):
    """An origin's list of the flood table, for handler tests that make up
    ids: reading a seq past the last row first appends empty rows up to it,
    as if the origin had issued those requests.  In a run only the origin's
    ``issue_request`` appends rows."""

    def __init__(self, node_count: int):
        super().__init__()
        self.node_count = node_count

    def __getitem__(self, seq):
        while len(self) <= seq:
            self.append([None] * self.node_count)
        return super().__getitem__(seq)


def make_node(nid=0, **overrides) -> Node:
    cfg = SimConfig(node_count=4, service_count=16, **overrides)
    floods = [IssuedRows(cfg.node_count) for _ in range(cfg.node_count)]
    return Node(nid, cfg, Metrics(), floods)


def rec(service, provider=9, piggybacked=False):
    return ServiceRecord(service, provider, piggybacked)


def fs(*items):
    return frozenset(items)


def as_packet(t) -> Sreq | Srep:
    """Name the fields of a packet that a handler built.  The engine's
    packets are plain tuples, laid out as an Sreq (5 fields) or an Srep (6)."""
    return Sreq._make(t) if len(t) == SREQ_FIELDS else Srep._make(t)


def seen(node) -> dict:
    """The ids ``node`` remembers, oldest first, each with its slot.  Each
    row of ``_seen_order`` is named by its place in the flood table, found
    by identity, and no row outside ``_seen_order`` may hold a slot."""
    table = {(origin, seq): row for origin, rows in enumerate(node._floods)
             for seq, row in enumerate(rows)}
    ids = {id(row): msg_id for msg_id, row in table.items()}
    remembered = {ids[id(row)]: row[node.nid] for row in node._seen_order}
    assert len(remembered) == len(node._seen_order)
    assert remembered.keys() == {msg_id for msg_id, row in table.items()
                                 if row[node.nid] is not None}
    return remembered


def mine_sessions(node, sessions):
    """Log each of ``sessions`` under consumer 5, close them all and re-mine
    at the node's support."""
    for seq, services in enumerate(sessions):
        for service in services:
            node.log.record_request((5, seq), service, now=float(seq))
    node.log.close_stale_sessions(now=100.0, session_window=1.0)
    node.remine(lambda txns: mine_frequent_itemsets(txns, node.cfg.support))


# -- service table ------------------------------------------------------------

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
    node._learn(3, 9, False)
    out = node.issue_request(3, 0, now=1.0)
    assert out is None
    assert node.metrics.locally_satisfied == 1
    assert node.metrics.prediction_hits == 0


def test_issue_request_miss_broadcasts_full_ttl():
    node = make_node()
    sreq = node.issue_request(3, 0, now=1.0)
    assert sreq == Sreq(origin=0, seq=0, session_seq=0, requested=3,
                        ttl=node.cfg.initial_ttl)
    assert node.metrics.broadcasts_originated == 1
    # The request is logged locally either way.
    assert node.log.records[0].services == {3}


def test_issue_request_appends_one_row_to_its_own_list():
    # The engine's table: a plain list per origin.  The list's length is the
    # next seq, and a locally satisfied request makes no row.
    cfg = SimConfig(node_count=4, service_count=16)
    floods = [[] for _ in range(cfg.node_count)]
    node = Node(2, cfg, Metrics(), floods)
    node._learn(5, 9, False)
    for seq in range(3):
        assert node.issue_request(5, seq, now=float(seq)) is None
        assert [len(rows) for rows in floods] == [0, 0, seq, 0]
        sreq = as_packet(node.issue_request(3, seq, now=float(seq)))
        assert sreq.msg_id == (2, seq)
        assert len(floods[2]) == seq + 1
        assert floods[2][seq] == [None, None, ORIGINATED, None]
        assert node._seen_order[-1] is floods[2][seq]
    assert [len(rows) for rows in floods] == [0, 0, 3, 0]
    assert node.metrics.broadcasts_originated == 3


def test_issue_request_piggybacked_hit_counts_prediction():
    node = make_node()
    node._learn(3, 9, True)
    node.issue_request(3, 0, now=1.0)
    assert node.metrics.locally_satisfied == 1
    assert node.metrics.prediction_hits == 1


def test_issue_request_own_service_is_local():
    node = make_node()
    node.host_service(7)
    out = node.issue_request(7, 0, now=0.0)
    assert out is None
    assert node.metrics.locally_satisfied == 1


# -- handle_sreq --------------------------------------------------------------------

def test_handle_sreq_answers_with_related_from_table():
    node = make_node(nid=2)
    node._learn(3, 5, False)
    node._learn(7, 6, False)
    mine_sessions(node, [{3, 7}] * 4)
    sreq = Sreq(origin=1, seq=0, session_seq=0, requested=3, ttl=8)
    srep = as_packet(node.handle_sreq(sreq, from_node=3, now=2.0))
    # The bare packet: the engine sends an answer back to from_node.
    assert type(srep) is Srep
    assert srep.destination == 1
    assert srep.answer == (3, 5)
    assert srep.related == ((7, 6),)
    assert node.metrics.piggybacked_records_sent == 1


def test_handle_sreq_related_filtered_to_known_services():
    node = make_node(nid=2)
    node._learn(3, 5, False)
    mine_sessions(node, [{3, 9}] * 4)   # 9 is co-frequent but unknown here
    sreq = Sreq(origin=1, seq=0, session_seq=0, requested=3, ttl=8)
    srep = as_packet(node.handle_sreq(sreq, from_node=1, now=2.0))
    assert srep.related == ()


def test_handle_sreq_related_capped_and_ranked():
    node = make_node(nid=2, max_related=2, support=0.3)
    for service, provider in ((3, 5), (6, 1), (7, 1), (8, 1)):
        node._learn(service, provider, False)
    # Pair counts with 3: 7 and 8 in all 5 sessions, 6 in 2, at least the
    # threshold ceil(0.3 * 5) = 2.
    mine_sessions(node, [{3, 6, 7, 8}] * 2 + [{3, 7, 8}] * 3)
    sreq = Sreq(origin=1, seq=0, session_seq=0, requested=3, ttl=8)
    srep = as_packet(node.handle_sreq(sreq, from_node=1, now=2.0))
    # Strongest support first, ties toward the lower id, capped at 2.
    assert node._ranked[3] == [7, 8, 6]
    assert srep.related == ((7, 1), (8, 1))


def test_handle_sreq_ttl_exhausted():
    node = make_node(nid=2)
    sreq = Sreq(origin=1, seq=0, session_seq=0, requested=3, ttl=0)
    assert node.handle_sreq(sreq, from_node=1, now=2.0) is None


def test_handle_sreq_rebroadcast_decrements_ttl():
    node = make_node(nid=2)
    sreq = Sreq(origin=1, seq=0, session_seq=0, requested=3, ttl=8)
    fwd = as_packet(node.handle_sreq(sreq, from_node=1, now=2.0))
    # The bare packet: the engine broadcasts every SREQ a handler returns.
    assert type(fwd) is Sreq
    assert fwd.ttl == 7
    assert fwd.msg_id == sreq.msg_id


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
    node._pending[(1, 0)] = 0.0
    srep = Srep(responder=2, destination=1, in_reply_to=(1, 0), ttl=8,
                answer=(3, 5), related=((7, 6), (9, 6)))
    assert node.handle_srep(srep) is None
    assert list(node._records) == [3, 7, 9]
    assert [r.piggybacked for r in node._records.values()] == [False, True, True]
    assert node._pending == {}


def test_only_the_first_reply_answers_a_request():
    node = make_node(nid=1)
    sreq = as_packet(node.issue_request(3, 0, now=0.0))
    for responder in (2, 4):
        srep = Srep(responder=responder, destination=1, in_reply_to=sreq.msg_id,
                    ttl=8, answer=(3, 5))
        assert node.handle_srep(srep) is None
    assert node.metrics.requests_answered == 1
    # A reply that arrives after the request timed out answers nothing.
    late = as_packet(node.issue_request(6, 0, now=2.0))
    assert node.expire_pending(now=10.0) == 1
    node.handle_srep(Srep(2, 1, late.msg_id, 8, answer=(6, 5)))
    assert node.metrics.requests_answered == 1
    assert node.metrics.requests_failed == 1


def test_handle_srep_transit_forwards_and_caches():
    node = make_node(nid=2)
    # Transit memory: first saw the sreq from node 3.
    node.handle_sreq(Sreq(origin=1, seq=0, session_seq=0, requested=3, ttl=8),
                     from_node=3, now=1.0)
    srep = Srep(responder=4, destination=1, in_reply_to=(1, 0), ttl=8,
                answer=(3, 5), related=((7, 6),))
    to, fwd = node.handle_srep(srep)
    assert to == 3
    assert as_packet(fwd).ttl == 7
    assert list(node._records) == [3, 7]


def test_relayed_answer_for_a_known_service_updates_its_record_in_place():
    # handle_srep overwrites a known service's record itself, without _learn.
    node = make_node(nid=2)
    node.handle_sreq(Sreq(origin=1, seq=0, session_seq=0, requested=7, ttl=8),
                     from_node=3, now=1.0)
    node.handle_srep(Srep(4, 2, (2, 0), 8, answer=(5, 1), related=((7, 6), (9, 6))))
    record = node._records[7]
    record.used = True
    before = {service: (r.provider, r.piggybacked, r.used)
              for service, r in node._records.items()}
    to, _ = node.handle_srep(Srep(4, 1, (1, 0), 8, answer=(7, 8), related=()))
    assert to == 3
    assert node._records[7] is record
    assert list(node._records) == [5, 7, 9]
    after = {service: (r.provider, r.piggybacked, r.used)
             for service, r in node._records.items()}
    assert after == {**before, 7: (8, False, False)}
    assert node.metrics == Metrics()


def test_handle_srep_unknown_reverse_path_dropped():
    # The relay saw the request, then forgot it for a later one.
    node = make_node(nid=2, seen_capacity=1)
    for seq in range(2):
        node.handle_sreq(Sreq(origin=1, seq=seq, session_seq=0, requested=3, ttl=8),
                         from_node=3, now=1.0)
    srep = Srep(responder=4, destination=1, in_reply_to=(1, 0), ttl=8,
                answer=(3, 5))
    assert node.handle_srep(srep) is None
    assert node.metrics.packets_dropped == 1
    # The records are still cached (pseudo-broadcast stores on transit too).
    assert 3 in node._records


def test_handle_srep_out_of_ttl_dropped():
    # The relay knows the reverse path, but the reply has no hops left.
    node = make_node(nid=2)
    node.handle_sreq(Sreq(origin=1, seq=0, session_seq=0, requested=3, ttl=8),
                     from_node=3, now=1.0)
    srep = Srep(responder=4, destination=1, in_reply_to=(1, 0), ttl=0, answer=(3, 5))
    assert node.handle_srep(srep) is None
    assert node.metrics.packets_dropped == 1
    assert 3 in node._records


def test_handle_srep_piggyback_eviction_accounting():
    node = make_node(nid=1, cache_capacity=5)
    srep = Srep(responder=2, destination=1, in_reply_to=(1, 0), ttl=8,
                answer=(3, 5), related=((7, 6),))
    node.handle_srep(srep)
    # Flood the table so the unused piggybacked record for 7 is evicted.
    for service in (10, 11, 12, 13, 14):
        node.handle_srep(Srep(2, 1, (1, 0), 8, answer=(service, 5)))
    assert node.metrics.piggybacked_records_evicted_unused == 1


def test_piggybacked_copy_never_downgrades_direct_record():
    node = make_node(nid=1)
    node.handle_srep(Srep(2, 1, (1, 0), 8, answer=(7, 2)))
    # Another reply piggybacks the same service as a prediction.
    node.handle_srep(Srep(2, 1, (1, 1), 8, answer=(3, 5), related=((7, 2),)))
    record = node._records[7]
    assert not record.piggybacked
    assert list(node._records) == [7, 3]
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
    assert (node.itemsets, node._masks) == ({}, {})
    node.log.record_request((5, 2), 1, now=200.0)
    node.log.close_stale_sessions(now=300.0, session_window=1.0)
    node.remine(miner)
    assert node.itemsets == {fs(1): 3}
    # The masks and the count ceil(0.8 * 3) are kept as they were at the
    # re-mine: a later close changes the live log only.
    kept = dict(node.log.masks)
    assert (node._masks, node._threshold) == (kept, 3)
    node.log.record_request((5, 3), 1, now=400.0)
    node.log.close_stale_sessions(now=500.0, session_window=1.0)
    assert node._masks == kept != node.log.masks


def test_remine_mines_on_every_call():
    # Skipping unchanged logs is the mining tick's job
    # (test_tick_remines_exactly_the_nodes_whose_log_changed).
    node = make_node(log_overheard=True)
    calls = []

    def miner(txns):
        calls.append(list(txns))
        return {fs(1): len(txns)}

    for i in range(3):
        node.log.record_request((5, i), 1, now=float(i))
    node.log.close_stale_sessions(now=100.0, session_window=1.0)
    node.log.record_request((6, 0), 2, now=101.0)   # an open session only
    for mines in (1, 2, 3):
        node._ranked[1] = []
        node.remine(miner)
        assert len(calls) == mines
        assert node._ranked == {}
    assert calls == [[fs(1)] * 3] * 3
    assert node.itemsets == {fs(1): 3}
    assert node._mined_from == (node.log.closed_version, 3)


def fresh_ranking(node, service):
    """``service``'s ranking counted straight from the log's closed sessions."""
    txns = node.log.snapshot_transactions()
    if len(txns) < MIN_MINING_TRANSACTIONS:
        return []
    return ranked_by_pair_counts(service, txns, node.cfg.support)


def fresh_picks(node, service):
    """_pick_related as it reads without the memo or the kept masks."""
    picks = []
    for other in fresh_ranking(node, service):
        record = node.lookup(other)
        if record is not None:
            picks.append((other, record.provider))
            if len(picks) == node.cfg.max_related:
                break
    return picks


sessions = st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=5),
                    min_size=3, max_size=12)


@settings(max_examples=100, deadline=None)
@given(first=sessions, later=sessions, known=st.sets(st.integers(0, 7)),
       requests=st.lists(st.integers(0, 7), max_size=16),
       support=st.sampled_from([0.2, 0.3, 0.5, 0.8]), max_related=st.integers(1, 4))
def test_memoized_picks_equal_fresh_ranking_across_remines(first, later, known, requests,
                                                            support, max_related):
    node = make_node(nid=2, max_related=max_related, cache_capacity=16, log_capacity=48,
                     log_overheard=True, support=support)
    for service in known:
        node._learn(service, 20 + service, False)
    miner = lambda txns: mine_frequent_itemsets(txns, support)
    now = 0.0
    for batch, origin in ((first, 5), (later, 6)):
        for seq, services in enumerate(batch):
            for service in services:
                node.log.record_request((origin, seq), service, now)
            now += 1.0
        node.log.close_stale_sessions(now=now + 100.0, session_window=1.0)
        node.remine(miner)
        assert node._ranked == {}   # a re-mine drops every memoized ranking
        for service in requests + requests:
            assert node._pick_related(service) == fresh_picks(node, service)
            assert node._ranked[service] == fresh_ranking(node, service)


def test_pick_related_ranks_each_service_once_per_mine(monkeypatch):
    calls = []

    def counted(service, masks, threshold):
        calls.append(service)
        return rank_related(service, masks, threshold)

    monkeypatch.setattr("corrdisc.node.rank_related", counted)
    node = make_node(nid=2, log_overheard=True)
    node._learn(3, 5, False)
    node._learn(7, 6, False)
    for seq in range(3):
        node.log.record_request((5, seq), 3, now=float(seq))
        node.log.record_request((5, seq), 7, now=float(seq))
    node.log.close_stale_sessions(now=100.0, session_window=1.0)
    miner = lambda txns: mine_frequent_itemsets(txns, node.cfg.support)
    node.remine(miner)
    for seq in range(3):
        srep = as_packet(node.handle_sreq(Sreq(1, seq, 0, 3, 8), from_node=1, now=101.0))
        assert srep.related == ((7, 6),)
    assert calls == [3]
    node.log.record_request((5, 3), 3, now=102.0)
    node.log.close_stale_sessions(now=200.0, session_window=1.0)
    node.remine(miner)
    # The pair {3, 7} is in 3 of 4 sessions, below ceil(0.8 * 4) = 4 now.
    srep = as_packet(node.handle_sreq(Sreq(1, 9, 0, 3, 8), from_node=1, now=201.0))
    assert srep.related == ()
    assert calls == [3, 3]


def test_baseline_related_always_empty():
    # Without mined itemsets every reply has an empty related list.
    node = make_node(nid=2)
    node._learn(3, 5, False)
    srep = as_packet(node.handle_sreq(Sreq(1, 0, 0, 3, 8), from_node=1, now=1.0))
    assert srep.related == ()


def test_seen_memory_bounded():
    node = make_node(seen_capacity=4)
    for seq in range(10):
        node.handle_sreq(Sreq(origin=1, seq=seq, session_seq=0, requested=3, ttl=0),
                         from_node=1, now=0.0)
    assert seen(node) == {(1, seq): 1 for seq in range(6, 10)}
    # A copy of a forgotten id is handled again, and its reply goes to the
    # new upstream; a reply to an id the node forgot is dropped.
    again = node.handle_sreq(Sreq(1, 0, 0, 3, ttl=2), from_node=2, now=1.0)
    assert again == Sreq(1, 0, 0, 3, 1)
    assert list(seen(node).items()) == [((1, seq), 1) for seq in (7, 8, 9)] + [((1, 0), 2)]
    assert (1, 6) not in seen(node)
    srep = Srep(responder=3, destination=1, in_reply_to=(1, 0), ttl=8, answer=(3, 3),
                related=())
    assert node.handle_srep(srep) == (2, srep._replace(ttl=7))
    assert node.handle_srep(srep._replace(in_reply_to=(1, 6))) is None
    assert node.metrics.packets_dropped == 1


# Node 0 issues requests (0, 0), (0, 1), ... and sees copies of the ids of
# origins 0-2 from its neighbours 1-3; a relayed reply goes towards node 3.
SEEN_IDS = [(origin, seq) for origin in range(3) for seq in range(6)]
SEEN_OPS = st.lists(st.one_of(
    st.tuples(st.just("issue")),
    st.tuples(st.just("sreq"), st.sampled_from(SEEN_IDS), st.integers(1, 3)),
    st.tuples(st.just("srep"), st.sampled_from(SEEN_IDS), st.integers(0, 2))), max_size=40)


@settings(max_examples=300, deadline=None)
@given(SEEN_OPS, st.integers(1, 4))
def test_seen_memory_matches_the_reference_model(ops, capacity):
    # The node's slots of its flood table against SeenMemory, op by op.  A
    # copy is handled only while the model does not remember its id, as
    # the loop skips the others; a node sees copies of, and replies to,
    # only those of its own ids that it has issued.  Service 0 is requested
    # and service 1 answered, so every request floods.
    node = make_node(seen_capacity=capacity)
    memory = SeenMemory(capacity)
    issued = node._floods[0]
    for op in ops:
        if op[0] == "issue":
            if len(issued) < 6:
                memory.remember(node.issue_request(0, 0, now=0.0)[:2], None)
        elif op[1][0] == 0 and op[1][1] >= len(issued):
            continue
        elif op[0] == "sreq":
            (origin, seq), from_node = op[1], op[2]
            if (origin, seq) not in memory:
                node.handle_sreq(Sreq(origin, seq, 0, 0, 1), from_node, now=0.0)
                memory.remember((origin, seq), from_node)
        else:
            msg_id, ttl = op[1], op[2]
            srep = Srep(2, 3, msg_id, ttl, (1, 2), ())
            upstream = memory.get(msg_id)
            if upstream is None or ttl <= 0:
                assert node.handle_srep(srep) is None
            else:
                assert node.handle_srep(srep) == (upstream, srep._replace(ttl=ttl - 1))
        assert list(seen(node).items()) == [
            (msg_id, ORIGINATED if upstream is None else upstream)
            for msg_id, upstream in memory.items()]


# -- the in-place learn path against the table's own semantics ----------------

SERVICES = st.integers(0, 5)
PROVIDERS = st.integers(0, 3)
REPLY = st.tuples(st.just("reply"), SERVICES, PROVIDERS,
                  st.lists(st.tuples(SERVICES, PROVIDERS), max_size=3,
                           unique_by=lambda record: record[0]),
                  st.booleans())
REQUEST = st.tuples(st.just("request"), SERVICES)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(REPLY, REQUEST), max_size=40), st.integers(1, 4),
       st.sets(SERVICES, max_size=2))
def test_learning_matches_inserting_new_records(ops, capacity, hosted):
    # Reference: every reply record is a new ServiceRecord put through
    # ServiceTable.insert, unless it is hosted or a piggybacked copy of a
    # direct record; a hit marks the record used.
    node = make_node(nid=1, cache_capacity=capacity)
    for service in sorted(hosted):
        node.host_service(service)
    table = ServiceTable(capacity)
    evicted_unused = hits = predicted = 0
    for step, op in enumerate(ops):
        now = float(step)
        if op[0] == "request":
            service = op[1]
            if service in hosted:
                hits += 1
            elif (record := table.get(service)) is not None:
                hits += 1
                predicted += record.piggybacked
                record.used = True
            node.issue_request(service, step, now)
            continue
        _, service, provider, related, to_me = op
        related = tuple((s, p) for s, p in related if s != service)
        for record in (ServiceRecord(service, provider),
                       *(ServiceRecord(s, p, piggybacked=True) for s, p in related)):
            current = table.get(record.service)
            if record.service in hosted or (record.piggybacked and current is not None
                                            and not current.piggybacked):
                continue
            evicted = table.insert(record)
            if evicted is not None and evicted.piggybacked and not evicted.used:
                evicted_unused += 1
        srep = Srep(2, 1 if to_me else 3, (1, step), 8, (service, provider), related)
        node.handle_srep(srep)
        assert list(node._records.values()) == table.records()
    assert node.metrics.piggybacked_records_evicted_unused == evicted_unused
    assert node.metrics.locally_satisfied == hits
    assert node.metrics.prediction_hits == predicted


def test_relayed_packets_are_real_packets():
    # The loop routes each packet by its field count, 5 for an SREQ and 6
    # for an SREP, and each handler builds a plain tuple in the field order
    # of the packet's NamedTuple; a packet with a field too many or too few
    # would be routed as the other kind.
    node = make_node(nid=3)
    issued = node.issue_request(3, 0, now=0.0)
    assert type(issued) is tuple
    assert len(issued) == SREQ_FIELDS
    assert issued == Sreq(origin=3, seq=0, session_seq=0, requested=3, ttl=8)

    node = make_node(nid=2)
    sreq = Sreq(origin=1, seq=0, session_seq=0, requested=3, ttl=8)
    forwarded = node.handle_sreq(sreq, from_node=1, now=1.0)
    assert type(forwarded) is tuple
    assert len(forwarded) == SREQ_FIELDS
    assert forwarded == Sreq(1, 0, 0, 3, 7)

    node._learn(4, 5, False)
    answer = node.handle_sreq(Sreq(1, 1, 0, 4, 8), from_node=1, now=2.0)
    assert type(answer) is tuple
    assert len(answer) == len(Srep._fields)
    assert answer == Srep(responder=2, destination=1, in_reply_to=(1, 1), ttl=8,
                          answer=(4, 5), related=())

    srep = Srep(responder=4, destination=1, in_reply_to=(1, 0), ttl=8,
                answer=(3, 5), related=((7, 6),))
    _, relayed = node.handle_srep(srep)
    assert type(relayed) is tuple
    assert len(relayed) == len(Srep._fields)
    assert relayed == srep._replace(ttl=7)
