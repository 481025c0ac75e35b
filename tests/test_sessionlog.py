import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trace_audit import SessionLog

from corrdisc.mining import brute_force_frequent_itemsets, mine_frequent_itemsets
from corrdisc.sessionlog import LogDatabase


def test_record_request_creates_record():
    db = LogDatabase(2)
    db.record_request((1, 0), 5, now=0.0)
    assert len(db) == 1
    assert db.records[0].services == {5}
    assert not db.records[0].closed


def test_repeat_request_is_idempotent():
    db = LogDatabase(2)
    db.record_request((1, 0), 5, now=0.0)
    db.record_request((1, 0), 5, now=1.0)
    assert len(db) == 1
    assert db.records[0].services == {5}


def test_requests_accumulate_into_open_session():
    db = LogDatabase(4)
    db.record_request((1, 0), 5, now=0.0)
    db.record_request((1, 0), 7, now=1.0)
    assert db.records[0].services == {5, 7}


def test_close_stale_boundary_inclusive():
    db = LogDatabase(4)
    db.record_request((1, 0), 5, now=0.0)
    db.close_stale_sessions(now=10.0, session_window=10.0)
    assert db.records[0].closed


def test_close_stale_not_yet():
    db = LogDatabase(4)
    db.record_request((1, 0), 5, now=0.0)
    db.close_stale_sessions(now=9.0, session_window=10.0)
    assert not db.records[0].closed


def test_close_stale_empty_db_noop():
    db = LogDatabase(4)
    db.close_stale_sessions(now=100.0, session_window=10.0)
    assert len(db) == 0


def test_new_session_closes_consumers_previous():
    db = LogDatabase(4)
    db.record_request((1, 0), 5, now=0.0)
    db.record_request((1, 1), 6, now=1.0)
    first, second = db.records
    assert first.closed and not second.closed


def test_snapshot_only_closed_in_order():
    db = LogDatabase(4)
    db.record_request((1, 0), 1, now=0.0)
    db.record_request((1, 0), 2, now=1.0)
    db.record_request((2, 0), 3, now=2.0)
    db.close_stale_sessions(now=40.0, session_window=39.0)  # only (1,0) is old enough
    assert db.snapshot_transactions() == [frozenset({1, 2})]
    db.close_stale_sessions(now=40.0, session_window=10.0)
    assert db.snapshot_transactions() == [frozenset({1, 2}), frozenset({3})]


def test_snapshot_is_pure_read():
    db = LogDatabase(4)
    db.record_request((1, 0), 1, now=0.0)
    db.close_stale_sessions(now=50.0, session_window=10.0)
    assert db.snapshot_transactions() == db.snapshot_transactions()
    assert len(db) == 1


def test_closed_record_never_mutates():
    db = LogDatabase(4)
    db.record_request((1, 0), 1, now=0.0)
    db.close_stale_sessions(now=50.0, session_window=10.0)
    closed = db.records[0]
    # A request under the same key after closure opens a fresh record.
    db.record_request((1, 0), 9, now=51.0)
    assert closed.services == {1}
    assert len(db) == 2
    assert db.records[1].services == {9}


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        LogDatabase(0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=20))
def test_eviction_law(capacity, k):
    db = LogDatabase(capacity)
    keys = [(i, 0) for i in range(k)]
    for i, key in enumerate(keys):
        db.record_request(key, i % 3, now=float(i))
    survivors = [r.key for r in db.records]
    assert survivors == keys[max(0, k - capacity):]


def test_closed_version_rises_only_when_closed_records_change():
    db = LogDatabase(2)
    db.record_request((1, 0), 5, now=0.0)
    db.record_request((1, 0), 6, now=1.0)      # add to an open session
    assert db.closed_version == 0
    db.record_request((2, 0), 5, now=2.0)
    db.record_request((3, 0), 5, now=3.0)      # evicts consumer 1's open record
    assert db.closed_version == 0
    db.close_stale_sessions(now=50.0, session_window=10.0)   # closes two
    assert db.closed_version == 2
    db.record_request((3, 1), 7, now=51.0)     # evicts closed (2, 0)
    assert db.closed_version == 3
    db.record_request((3, 2), 8, now=52.0)     # closes (3, 1), evicts closed (3, 0)
    assert db.closed_version == 5


# Ops for the log and the trace auditor's model of it: (time step, consumer,
# session, service, close the due sessions instead of recording).  Times never
# decrease; steps of 0 make ties, and the dyadic steps reach the window of 2.0
# exactly, so the inclusive boundary is hit.  Few consumers come back under new
# session numbers and capacities are small, so sessions close by the
# consumer's next session, by age and not at all (evicted while open), and
# closed records are evicted.
capacity_st = st.integers(1, 8)
ops_st = st.lists(st.tuples(st.sampled_from((0.0, 0.5, 1.0, 2.0)), st.integers(0, 3),
                            st.integers(0, 2), st.integers(0, 5), st.booleans()),
                  max_size=50)


def driven(capacity, ops):
    """Apply ``ops`` to a ``LogDatabase`` and a ``SessionLog`` alike; yield
    the log, the model and the log's closed records after each op."""
    db, model = LogDatabase(capacity), SessionLog(capacity)
    now = 0.0
    for step, consumer, session, service, close in ops:
        now += step
        if close:
            db.close_stale_sessions(now, 2.0)
            model.close_due(now, 2.0)
        else:
            db.record_request((consumer, session), service, now)
            model.log(consumer, session, service, now)
        yield db, model, [r for r in db.records if r.closed]


@settings(max_examples=300, deadline=None)
@given(capacity_st, ops_st)
def test_close_stale_matches_full_scan(capacity, ops):
    # The model's close_due scans every record; the log closes from its
    # oldest open record on.  Both evict the oldest record when full.
    for db, model, _ in driven(capacity, ops):
        assert [(r.consumer, r.session_seq, r.opened_at, r.services, not r.closed)
                for r in db.records] == [tuple(r) for r in model.records]


@settings(max_examples=300, deadline=None)
@given(capacity_st, ops_st)
def test_snapshot_matches_rebuilt_frozensets(capacity, ops):
    # The snapshot is the closed records' stored frozensets, in order, and a
    # closed record's set never changes after closing.
    frozen = []
    for db, _, closed in driven(capacity, ops):
        assert all(r.services == services for r, services in frozen)
        frozen = [(r, set(r.services)) for r in closed]
        snapshot = db.snapshot_transactions()
        assert len(snapshot) == len(closed)
        assert all(type(t) is frozenset and t is r.services for t, r in zip(snapshot, closed))


@settings(max_examples=300, deadline=None)
@given(capacity_st, ops_st)
def test_snapshot_unchanged_while_closed_version_unchanged(capacity, ops):
    version, snapshot = 0, []
    for db, _, _ in driven(capacity, ops):
        before, snapshot = snapshot, db.snapshot_transactions()
        assert db.closed_version >= version
        if db.closed_version == version:
            assert snapshot == before
        version = db.closed_version


@settings(max_examples=300, deadline=None)
@given(capacity_st, st.sampled_from((0.3, 0.5, 0.8, 1.0)), ops_st)
def test_masks_are_the_bitsets_of_the_closed_records(capacity, support, ops):
    for db, _, closed in driven(capacity, ops):
        masks = {}
        for r in closed:
            for s in r.services:
                masks[s] = masks.get(s, 0) | r.bit
        assert db.masks == masks
        assert len({r.bit for r in closed if r.bit.bit_count() == 1}) == len(closed)
        snapshot = db.snapshot_transactions()
        assert mine_frequent_itemsets(snapshot, support, db.masks) == \
            brute_force_frequent_itemsets(snapshot, support)


def test_closing_freezes_the_service_set():
    db = LogDatabase(4)
    db.record_request((1, 0), 5, now=0.0)
    db.record_request((1, 0), 7, now=1.0)
    (record,) = db.records
    assert type(record.services) is set
    db.close_stale_sessions(now=50.0, session_window=10.0)
    assert type(record.services) is frozenset
    assert record.services == {5, 7}


def test_snapshot_hands_out_the_stored_sets_while_unchanged():
    db = LogDatabase(4)
    db.record_request((1, 0), 1, now=0.0)
    db.record_request((2, 0), 2, now=1.0)
    db.close_stale_sessions(now=50.0, session_window=10.0)
    db.record_request((3, 0), 3, now=51.0)    # an open session: no new version
    version, first = db.closed_version, db.snapshot_transactions()
    second = db.snapshot_transactions()
    assert db.closed_version == version
    assert len(first) == len(second) == 2
    assert all(a is b for a, b in zip(first, second))
    assert all(t is r.services for t, r in zip(first, db.records))


def test_masks_follow_closing_and_eviction():
    db = LogDatabase(2)
    db.record_request((1, 0), 5, now=0.0)
    db.record_request((1, 0), 6, now=1.0)
    assert db.masks == {}                      # an open record has no bit set
    db.record_request((1, 1), 5, now=2.0)      # closes (1, 0) in slot 0
    assert db.masks == {5: 0b01, 6: 0b01}
    db.record_request((1, 2), 7, now=3.0)      # closes (1, 1) in slot 1, evicts (1, 0)
    assert db.masks == {5: 0b10}
    db.close_stale_sessions(now=50.0, session_window=10.0)   # (1, 2) took slot 0
    assert db.masks == {5: 0b10, 7: 0b01}
