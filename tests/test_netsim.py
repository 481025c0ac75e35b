import gc
import math
import re
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from corrdisc.netsim import (DELIVER, MINING_TICK, Metrics, SimConfig, Simulation,
                             assign_services, place_nodes, run)
from corrdisc.node import Node
from corrdisc.packets import MAX_RELATED_RECORDS, Sreq, Srep

SMALL = SimConfig(node_count=8, service_count=5, sessions_per_consumer=2,
                  sim_duration=150.0)


def test_place_single_node_no_edges():
    cfg = SimConfig(node_count=1, service_count=1)
    topo = place_nodes(cfg, default_rng(0))
    assert topo.adjacency == {0: ()}


def test_place_unit_disk_rule_and_symmetry():
    cfg = replace(SMALL, node_count=12, seed=5)
    topo = place_nodes(cfg, default_rng(5))
    for i, (xi, yi) in topo.positions.items():
        for j, (xj, yj) in topo.positions.items():
            if i == j:
                continue
            linked = j in topo.adjacency[i]
            assert linked == (math.dist((xi, yi), (xj, yj)) <= cfg.radio_range)
            assert linked == (i in topo.adjacency[j])


def test_place_positions_inside_field_and_deterministic():
    cfg = replace(SMALL, node_count=30)
    a = place_nodes(cfg, default_rng(9))
    b = place_nodes(cfg, default_rng(9))
    assert a.positions == b.positions
    w, h = cfg.field_size
    for x, y in a.positions.values():
        assert 0 <= x <= w and 0 <= y <= h


def test_assign_services_counts_and_determinism():
    cfg = SimConfig(node_count=20, service_count=10)
    a = assign_services(cfg, default_rng(4))
    b = assign_services(cfg, default_rng(4))
    assert a == b
    assert sorted(a) == list(range(10))
    assert all(0 <= provider < 20 for provider in a.values())
    single = assign_services(SimConfig(node_count=3, service_count=1), default_rng(4))
    assert len(single) == 1


def test_providers_preloaded_with_own_services():
    sim = Simulation(SMALL)
    for service, provider in sim.placement.items():
        record = sim.nodes[provider].own_services[service]
        assert record.provider == provider


def test_zero_duration_run_all_counters_zero():
    metrics = run(replace(SMALL, sim_duration=0.0))
    assert metrics == Metrics()


def test_mining_disabled_no_piggybacking():
    metrics = run(replace(SMALL, mining_enabled=False))
    assert metrics.piggybacked_records_sent == 0
    assert metrics.prediction_hits == 0


def test_run_is_deterministic_including_trace():
    cfg = replace(SMALL, seed=3)
    t1: list = []
    t2: list = []
    m1 = run(cfg, trace=t1)
    m2 = run(cfg, trace=t2)
    assert m1 == m2
    assert t1 == t2
    assert t1


def test_conservation_and_sanity_of_counters():
    metrics = run(replace(SMALL, seed=2))
    assert metrics.requests_issued > 0
    assert metrics.locally_satisfied <= metrics.requests_issued
    assert metrics.prediction_hits <= metrics.locally_satisfied
    assert metrics.sreq_transmissions >= \
        metrics.requests_issued - metrics.locally_satisfied
    assert metrics.requests_answered > 0
    assert metrics.requests_issued == (metrics.locally_satisfied
                                       + metrics.requests_answered
                                       + metrics.requests_failed)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 8), st.booleans(),
       st.sampled_from((1, 2, 1024)), st.integers(1, 6))
def test_every_request_not_satisfied_locally_is_one_broadcast(
        seed, node_count, service_count, log_overheard, seen_capacity, log_capacity):
    # A small seen memory makes nodes forget ids, and logging overheard
    # requests fills the logs: neither may make a node originate a flood
    # for a request it satisfied locally, or none for one it did not.
    cfg = SimConfig(node_count=node_count, service_count=service_count, seed=seed,
                    log_overheard=log_overheard, seen_capacity=seen_capacity,
                    log_capacity=log_capacity, sessions_per_consumer=3,
                    mining_interval=5.0, sim_duration=200.0)
    for mining_enabled in (False, True):
        m = run(replace(cfg, mining_enabled=mining_enabled))
        assert m.requests_issued > 0
        assert m.broadcasts_originated == m.requests_issued - m.locally_satisfied


def test_broken_conservation_raises_even_under_optimisation(monkeypatch):
    # A plain assert would vanish under ``python -O``; the check must not.
    monkeypatch.setattr(Node, "expire_pending", lambda node, now: 0)
    with pytest.raises(RuntimeError, match="requests_issued .* requests_failed"):
        run(replace(SMALL, seed=2, sim_duration=21.0, pending_timeout=1000.0))


@pytest.fixture
def collector_on():
    """Leave the cyclic collector on for the test, as it was found."""
    was_on = gc.isenabled()
    gc.enable()
    yield
    if not was_on:
        gc.disable()


@pytest.mark.parametrize("traced", [False, True])
def test_run_leaves_no_cyclic_garbage(traced, collector_on):
    # The loop pauses the collector on the premise that a run makes no
    # reference cycles; a run made with it off must leave none to collect.
    gc.collect()
    gc.disable()
    for mining_enabled in (False, True):
        cfg = replace(SMALL, seed=4, mining_enabled=mining_enabled)
        metrics = run(cfg, trace=[] if traced else None)
        assert metrics.requests_issued > 0
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collector_state(enabled, collector_on, monkeypatch):
    if not enabled:
        gc.disable()
    seen = []
    handle_sreq = Node.handle_sreq

    def spy(node, sreq, from_node, now):
        seen.append(gc.isenabled())
        return handle_sreq(node, sreq, from_node, now)

    monkeypatch.setattr(Node, "handle_sreq", spy)
    run(replace(SMALL, seed=2))
    assert seen and not any(seen)   # paused while the loop runs
    assert gc.isenabled() is enabled


def test_run_restores_the_collector_when_it_raises(monkeypatch, collector_on):
    def boom(node, sreq, from_node, now):
        raise ValueError("handler failed")

    monkeypatch.setattr(Node, "handle_sreq", boom)
    with pytest.raises(ValueError, match="handler failed"):
        run(replace(SMALL, seed=2))
    assert gc.isenabled()


def test_event_times_non_decreasing_in_trace():
    trace: list = []
    run(replace(SMALL, seed=1), trace=trace)
    times = [float(line.split()[0]) for line in trace]
    assert times == sorted(times)


def test_flooding_bound_and_duplicate_suppression():
    cfg = replace(SMALL, seed=4)
    trace: list = []
    run(cfg, trace=trace)
    per_msg = Counter()
    per_node_msg = Counter()
    for line in trace:
        fields = line.split()
        if fields[1] != "tx_bcast":
            continue
        node = fields[2]
        msg = re.search(r"origin=(\d+) seq=(\d+)", line)
        per_msg[msg.groups()] += 1
        per_node_msg[(node, msg.groups())] += 1
    assert per_msg
    assert max(per_msg.values()) <= cfg.node_count
    assert max(per_node_msg.values()) == 1


def test_baseline_trace_has_no_related_records():
    trace: list = []
    run(replace(SMALL, mining_enabled=False), trace=trace)
    assert any("srep" in line for line in trace)
    for line in trace:
        if "related=[" in line:
            assert "related=[]" in line


def test_paired_workload_identical_across_variants():
    on = Simulation(replace(SMALL, mining_enabled=True))
    off = Simulation(replace(SMALL, mining_enabled=False))
    assert on.schedule == off.schedule
    assert on.cm == off.cm
    assert on.placement == off.placement
    assert on.topology.positions == off.topology.positions


GOLDEN_REGRESSION = SimConfig(node_count=5, service_count=3, sessions_per_consumer=1,
                              sim_duration=40.0, seed=12)
GOLDEN_DENSE = SimConfig(node_count=20, service_count=8, sessions_per_consumer=2,
                         log_overheard=True, mining_enabled=True, sim_duration=210.0,
                         seed=8, support=0.3, mining_interval=5.0, seen_capacity=2,
                         hop_latency=0.3, inter_request_gap=0.3)
GOLDEN_SLOW_HOPS = replace(SMALL, seed=3, hop_latency=2.0, mining_interval=2.0,
                           inter_request_gap=1.0, pending_timeout=30.0, support=0.3,
                           log_overheard=True)


def test_golden_trace_regression():
    # Frozen reference for the seeded event stream; a diff here means the
    # event ordering, rng derivation, or trace format changed.
    import hashlib
    cfg = GOLDEN_REGRESSION
    trace: list = []
    metrics = run(cfg, trace=trace)
    assert trace[:4] == [
        "0.000 issue_request 0 svc=1 session=0 local=0",
        "0.000 tx_bcast 0 sreq origin=0 seq=0 session=0 svc=1 ttl=8",
        "0.002 deliver 3 from=0 sreq origin=0 seq=0 session=0 svc=1 ttl=8",
        "0.002 tx_bcast 3 sreq origin=0 seq=0 session=0 svc=1 ttl=7",
    ]
    assert len(trace) == 132
    assert hashlib.sha256("\n".join(trace).encode()).hexdigest() == \
        "7cb1129aa7dba064c942d59f18fd5690033b25061918f016cc27621af87ac3f9"
    assert metrics.requests_issued == 9
    assert metrics.sreq_transmissions == 15
    assert metrics.srep_transmissions == 13


def test_golden_trace_dense():
    # 20 nodes, overheard logging and mining: floods reach most nodes
    # several times over, and a two-entry seen memory with slow hops makes
    # nodes forget reverse paths, so replies are dropped in transit and
    # forgotten requests are handled again.  The hash comes from an engine
    # that called the handler for every recipient, so it also checks that
    # skipping known duplicates ahead of the handler changes nothing.
    import hashlib
    cfg = GOLDEN_DENSE
    trace: list = []
    metrics = run(cfg, trace=trace)
    assert len(trace) == 5878
    assert hashlib.sha256("\n".join(trace).encode()).hexdigest() == \
        "a8fcf08b2ca4616e337226cfa2836d8ec48b35c0431c649dc7c4c1c55e9d702c"
    sreq_deliveries = Counter(
        (line.split()[2], re.search(r"origin=(\d+) seq=(\d+)", line).groups())
        for line in trace if line.split()[1] == DELIVER and " sreq " in line)
    assert sum(sreq_deliveries.values()) > 2 * len(sreq_deliveries)
    assert metrics.packets_dropped > 0
    assert metrics.piggybacked_records_sent > 0
    assert metrics.prediction_hits > 0
    assert run(cfg) == metrics


def test_golden_trace_slow_hops():
    # Hops as slow as two scan periods, with the request gap and the scan
    # and mining periods all on whole seconds, so deliveries fall due at the
    # same times as timers.  The event scheduled first must run first: an
    # engine that ran timers ahead of deliveries due at the same time
    # keeps both hashes above but changes this one.
    import hashlib
    cfg = GOLDEN_SLOW_HOPS
    trace: list = []
    metrics = run(cfg, trace=trace)
    assert len(trace) == 1238
    assert hashlib.sha256("\n".join(trace).encode()).hexdigest() == \
        "49c498236b5be80df3f7c8610251238d29c91ebae7a0287af654cabe38f294f7"
    assert metrics.requests_answered > 0
    assert run(cfg) == metrics


def test_one_delivery_event_per_transmission():
    sim = Simulation(SMALL)
    sender = next(i for i, ns in sim.topology.adjacency.items() if ns)
    neighbor = sim.topology.adjacency[sender][0]
    timers = list(sim._heap)
    sreq = Sreq(sender, 0, 0, 1, 1)
    srep = Srep(sender, neighbor, (neighbor, 0), 8, (1, sender), ())
    sim.deliver_broadcast(sender, sreq, now=0.0)
    sim.deliver_unicast(sender, neighbor, srep, now=0.0)
    assert sim._heap == timers   # deliveries never enter the timer heap
    # A delivery is (time, seq, recipients, from_node, packet).
    assert [e[2:] for e in sim._deliveries] == [
        (sim.topology.adjacency[sender], sender, sreq), ((neighbor,), sender, srep)]
    first, second = sim._deliveries
    assert first[:2] < second[:2]


def test_broadcasts_are_requests_and_unicasts_are_replies():
    cfg = replace(SMALL, seed=2, log_overheard=True, support=0.3)
    trace: list = []
    metrics = run(cfg, trace=trace)
    sends = Counter()
    for line in trace:
        _, kind, _, detail = line.split(" ", 3)
        if kind == "tx_bcast":
            assert detail.startswith("sreq "), line
        elif kind == "tx_ucast":
            assert detail.split(" ", 2)[1] == "srep", line
        sends[kind] += 1
    assert sends["tx_bcast"] == metrics.sreq_transmissions > 0
    assert sends["tx_ucast"] == metrics.srep_transmissions > 0
    assert metrics.piggybacked_records_sent > 0


def test_heap_entries_carry_the_timer_functions():
    timers = {Simulation._issue, Simulation._scan, Simulation._mining_tick}
    sim = Simulation(SMALL)
    assert {entry[2] for entry in sim._heap} == timers
    sim.run()
    assert {entry[2] for entry in sim._heap} <= timers


@pytest.mark.parametrize("mining_enabled", [True, False])
def test_heap_holds_at_most_one_mining_tick(monkeypatch, mining_enabled):
    pushed = []
    original = Simulation._push

    def checked_push(self, time, fire, payload):
        original(self, time, fire, payload)
        pushed.append(fire)
        assert sum(entry[2] is Simulation._mining_tick for entry in self._heap) <= 1

    monkeypatch.setattr(Simulation, "_push", checked_push)
    cfg = replace(SMALL, seed=2, mining_interval=3.0, mining_enabled=mining_enabled)
    Simulation(cfg).run()
    # Ticks at 3, 6, ..., 147 each push the next; the first came from setup.
    assert pushed.count(Simulation._mining_tick) == (50 if mining_enabled else 0)


def test_each_mining_tick_visits_every_node_in_id_order():
    cfg = replace(SMALL, seed=5, mining_interval=4.0, log_overheard=True, support=0.3)
    trace: list = []
    run(cfg, trace=trace)
    ticks: dict[str, list[tuple[int, int]]] = {}
    for index, line in enumerate(trace):
        time, kind, node, _ = line.split(" ", 3)
        if kind == MINING_TICK:
            ticks.setdefault(time, []).append((index, int(node)))
    assert list(ticks) == [f"{4.0 * k:.3f}" for k in range(1, 38)]
    for lines in ticks.values():
        indices, nodes = zip(*lines)
        assert nodes == tuple(range(cfg.node_count))
        assert indices == tuple(range(indices[0], indices[0] + cfg.node_count))
    assert any(" txns=0 " not in trace[i] for lines in ticks.values() for i, _ in lines)


@pytest.mark.parametrize("timer", ["scan", "tick"])
@pytest.mark.parametrize("end, due", [(2.5, False), (3.5, True)])
def test_session_due_exactly_at_a_timer_is_closed_by_it(timer, end, due):
    # No consumers, so the only session is the one planted below: opened at
    # 0.0, due at 3.0, which is a time of both timers.  SCAN runs every
    # second either way; the mining tick runs only in the "tick" case.
    # Only the mining tick closes sessions by age; SCAN leaves it open.
    # inter_request_gap keeps the config valid: 4 gaps must fit in the window.
    cfg = replace(SMALL, consumer_fraction=0.0, session_window=3.0, sim_duration=end,
                  inter_request_gap=0.5, mining_enabled=(timer == "tick"),
                  mining_interval=1.0)
    sim = Simulation(cfg)
    sim.nodes[0].log.record_request((99, 0), 1, now=0.0)
    sim.run()
    (record,) = sim.nodes[0].log.records
    assert record.closed is (due and timer == "tick")


FLOAT_FIELDS = ("field_size", "radio_range", "eta", "support", "session_window",
                "mining_interval", "sim_duration", "hop_latency", "inter_request_gap",
                "inter_session_gap", "consumer_fraction", "pending_timeout")


def test_float_fields_list_is_complete():
    assert set(FLOAT_FIELDS) == {f.name for f in fields(SimConfig)
                                 if "float" in f.type}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_config_rejects_non_finite_floats(name, value):
    bad = (value, 500.0) if name == "field_size" else value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        replace(SMALL, **{name: bad}).validate()


def test_config_validation():
    with pytest.raises(ValueError):
        run(replace(SMALL, eta=0.0))
    with pytest.raises(ValueError):
        run(replace(SMALL, support=1.5))
    with pytest.raises(ValueError):
        run(replace(SMALL, node_count=0))
    with pytest.raises(ValueError):
        run(replace(SMALL, sim_duration=-1.0))
    with pytest.raises(ValueError, match="seed must be >= 0"):
        run(replace(SMALL, seed=-2))


@pytest.mark.parametrize("change, message", [
    ({"max_related": MAX_RELATED_RECORDS + 1}, "max_related must be at most 32"),
    ({"node_count": 65537}, "node_count must be at most 65536"),
    ({"service_count": 65537}, "service_count must be at most 65536"),
])
def test_config_rejects_values_packets_cannot_carry(change, message):
    with pytest.raises(ValueError, match=message):
        replace(SMALL, **change).validate()


def test_config_accepts_the_largest_encodable_values():
    # One session per consumer: 65536 requests a second apart would overrun
    # the next session's start (see test_config_rejects_overlapping_sessions).
    # A 1e-4 s gap keeps all of them inside one session window.
    replace(SMALL, max_related=MAX_RELATED_RECORDS, node_count=65536,
            service_count=65536, initial_ttl=255, sessions_per_consumer=1,
            inter_request_gap=1e-4).validate()


OVERLAPPING = SimConfig(node_count=8, service_count=10, inter_request_gap=20.0,
                        session_window=500.0, sessions_per_consumer=3, eta=1.0,
                        log_capacity=20, seed=1)


def test_config_rejects_overlapping_sessions():
    # Unchecked, this config logged node 0's three sessions as the six keys
    # (0,0), (0,1), (0,0), (0,1), (0,0), (0,2): each session's late requests
    # reopened its key after the next session had opened.
    with pytest.raises(ValueError, match="sessions overlap"):
        OVERLAPPING.validate()
    with pytest.raises(ValueError, match="sessions overlap"):
        Simulation(OVERLAPPING)


@pytest.mark.parametrize("change, ok", [
    ({"inter_session_gap": 180.0}, False),   # the last request lands on the next start
    ({"inter_session_gap": 180.5}, True),
    ({"inter_request_gap": 6.6}, True),      # 9 * 6.6 = 59.4 < 60
    ({"inter_request_gap": 60 / 9}, False),
    ({"sessions_per_consumer": 1}, True),    # no next session to overlap
])
def test_overlap_rule_boundary(change, ok):
    cfg = replace(OVERLAPPING, **change)
    if ok:
        sim = Simulation(cfg)
        sim.run()
        for node in sim.nodes:
            keys = [record.key for record in node.log.records]
            assert len(keys) == len(set(keys))
    else:
        with pytest.raises(ValueError, match="sessions overlap"):
            cfg.validate()


@pytest.mark.parametrize("overrides", [
    {},
    dict(node_count=50, sessions_per_consumer=4),
    dict(node_count=12, service_count=16, sessions_per_consumer=3),
])
def test_default_and_benchmark_configs_do_not_overlap(overrides):
    replace(SimConfig(node_count=20, service_count=10), **overrides).validate()


OUTLASTING = SimConfig(node_count=8, service_count=10, inter_request_gap=6.0,
                       sessions_per_consumer=3, eta=1.0, log_capacity=20, seed=1)


def test_config_rejects_sessions_that_outlast_the_window():
    # Unchecked, node 0 logged session (0,0) as {0,3,4,5,6,8} and again as
    # {9}: the scan closed it at its 30 s window, and its last request, 54 s
    # after its first, opened a second record under the same key.
    with pytest.raises(ValueError, match="sessions outlast the window"):
        OUTLASTING.validate()
    with pytest.raises(ValueError, match="sessions outlast the window"):
        Simulation(OUTLASTING)


@pytest.mark.parametrize("change, ok", [
    ({"session_window": 54.0}, False),     # the last request lands on the close
    ({"session_window": 54.5}, True),
    ({"inter_request_gap": 30 / 9}, False),
    ({"inter_request_gap": 3.3}, True),    # 9 * 3.3 = 29.7 < 30
])
def test_window_rule_boundary(change, ok):
    cfg = replace(OUTLASTING, **change)
    if ok:
        sim = Simulation(cfg)
        sim.run()
        for node in sim.nodes:
            keys = [record.key for record in node.log.records]
            assert len(keys) == len(set(keys))
    else:
        with pytest.raises(ValueError, match="sessions outlast the window"):
            cfg.validate()


# The mine_heavy workload of perfbench/run.py.
MINE_HEAVY = SimConfig(node_count=12, service_count=16, radio_range=250.0,
                       log_overheard=True, log_capacity=48, support=0.3,
                       mining_interval=2.0, sessions_per_consumer=3, sim_duration=270.0)


@pytest.mark.parametrize("cfg", [GOLDEN_REGRESSION, GOLDEN_DENSE, GOLDEN_SLOW_HOPS,
                                 *(replace(MINE_HEAVY, seed=s) for s in range(3))])
def test_no_session_stays_open_past_its_window(cfg, monkeypatch):
    # After every mining tick no open session is due, and some ticks find
    # one due on entry and close it.
    original = Simulation._mining_tick
    closing = 0

    def checked(self, time):
        nonlocal closing
        window = self.cfg.session_window
        closing += any(time - record.opened_at >= window
                       for node in self.nodes for record in node.log._open.values())
        original(self, time)
        for node in self.nodes:
            for record in node.log._open.values():
                assert time - record.opened_at < window, (time, node.nid, record.key)

    monkeypatch.setattr(Simulation, "_mining_tick", checked)
    Simulation(cfg).run()
    assert closing > 0


@pytest.mark.parametrize("mining_interval", [3.0, 25.0])
@pytest.mark.parametrize("inter_session_gap", [12.0, 60.0])
@pytest.mark.parametrize("log_capacity", [2, 24])
@pytest.mark.parametrize("log_overheard", [False, True])
def test_scan_that_also_closes_due_sessions_changes_nothing(
        monkeypatch, log_overheard, log_capacity, inter_session_gap, mining_interval):
    # The reference SCAN closes every node's due sessions first.  Only the
    # tick reads closed sessions, and a session due at a SCAN is still due
    # at the next tick, so traces and metrics must stay byte-identical.  A
    # gap of 12 s, less than session_window, makes new sessions close old
    # ones; a log of 2 evicts open records.
    cfg = replace(SMALL, seed=6, sessions_per_consumer=4, sim_duration=200.0,
                  log_overheard=log_overheard, log_capacity=log_capacity,
                  inter_session_gap=inter_session_gap, mining_interval=mining_interval)
    plain_trace: list[str] = []
    plain = run(cfg, trace=plain_trace)

    original = Simulation._scan
    scan_closes = 0

    def closing_scan(self, time):
        nonlocal scan_closes
        for node in self.nodes:
            before = node.log.closed_version
            node.log.close_stale_sessions(time, self.cfg.session_window)
            scan_closes += node.log.closed_version - before
        original(self, time)

    monkeypatch.setattr(Simulation, "_scan", closing_scan)
    reference_trace: list[str] = []
    assert run(cfg, trace=reference_trace) == plain
    assert reference_trace == plain_trace
    assert scan_closes > 0


@pytest.mark.parametrize("cfg", [GOLDEN_DENSE, MINE_HEAVY])
def test_tick_remines_exactly_the_nodes_whose_log_changed(cfg, monkeypatch):
    calls = []
    original_remine, original_tick = Node.remine, Simulation._mining_tick

    def counting(node, miner):
        calls.append(node.nid)
        return original_remine(node, miner)

    ticks = []

    def checked(self, time):
        before = [node._mined_from[0] for node in self.nodes]
        calls.clear()
        original_tick(self, time)
        moved = [node.nid for node, version in zip(self.nodes, before)
                 if node.log.closed_version != version]
        assert calls == moved
        assert all(node._mined_from[0] == node.log.closed_version for node in self.nodes)
        ticks.append(len(calls))

    monkeypatch.setattr(Node, "remine", counting)
    monkeypatch.setattr(Simulation, "_mining_tick", checked)
    Simulation(cfg).run()
    assert 0 < sum(ticks) < len(ticks) * cfg.node_count


# The flood50 workload of perfbench/run.py, at root seed 0.
FLOOD50 = SimConfig(node_count=50, service_count=10, sessions_per_consumer=4,
                    sim_duration=330.0)
# GOLDEN_DENSE's two-entry seen memory makes nodes forget ids and handle them again.
PROTOCOL_LAW_CONFIGS = [replace(cfg, mining_enabled=on) for cfg in (GOLDEN_DENSE, FLOOD50)
                        for on in (False, True)]


@pytest.mark.parametrize("cfg", PROTOCOL_LAW_CONFIGS)
def test_engine_hands_handle_sreq_only_unseen_ids(cfg, monkeypatch):
    # The loop's seen check is the only duplicate check: handle_sreq has none.
    original = Node.handle_sreq
    handled = Counter()

    def spy(node, sreq, from_node, now):
        assert (sreq.origin, sreq.seq) not in node._seen, (now, node.nid, sreq)
        handled[(node.nid, sreq.origin, sreq.seq)] += 1
        return original(node, sreq, from_node, now)

    monkeypatch.setattr(Node, "handle_sreq", spy)
    Simulation(cfg).run()
    assert handled
    if cfg.seen_capacity == 2:
        assert max(handled.values()) > 1


@pytest.mark.parametrize("cfg", PROTOCOL_LAW_CONFIGS)
def test_every_reply_hop_is_between_neighbours(cfg):
    # deliver_unicast drops nothing, so every SREP must go to a neighbour.
    trace: list[str] = []
    sim = Simulation(cfg, trace=trace)
    metrics = sim.run()
    hops = [line.split()[2:4] for line in trace if line.split()[1] == "tx_ucast"]
    assert len(hops) == metrics.srep_transmissions > 0
    for sender, to in hops:
        assert int(to.removeprefix("to=")) in sim.topology.adjacency[int(sender)]


@pytest.mark.parametrize("log_overheard", [False, True])
def test_mining_off_nodes_keep_no_session_log(log_overheard):
    cfg = replace(SMALL, log_overheard=log_overheard)
    off = Simulation(replace(cfg, mining_enabled=False))
    assert off.run().requests_issued > 0
    assert all(len(node.log) == 0 and node.log.closed_version == 0 for node in off.nodes)
    on = Simulation(cfg)
    on.run()
    assert any(len(node.log) for node in on.nodes)
