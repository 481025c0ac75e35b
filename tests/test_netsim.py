import gc
import math
import re
import sys
import tracemalloc
import weakref
from collections import Counter, defaultdict, deque
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from corrdisc.netsim import (ISSUE, Metrics, SimConfig, Simulation,
                             assign_services, place_nodes, run)
from corrdisc.node import Node
from corrdisc.packets import (MAX_RELATED_RECORDS, SREQ_FIELDS, Sreq, Srep, decode_packet,
                              encode_packet)
from trace_audit import audit, audit_pair
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run as bench  # noqa: E402  (the benchmark's workloads)

SMALL = SimConfig(node_count=8, service_count=5, sessions_per_consumer=2,
                  sim_duration=150.0)
FLOOD50, MINE_HEAVY = (bench.WORKLOADS[name].base_config() for name in ("flood50", "mine_heavy"))


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

    def spy(node, *args):
        seen.append(gc.isenabled())
        return handle_sreq(node, *args)

    monkeypatch.setattr(Node, "handle_sreq", spy)
    run(replace(SMALL, seed=2))
    assert seen and not any(seen)   # paused while the loop runs
    assert gc.isenabled() is enabled


def test_run_restores_the_collector_when_it_raises(monkeypatch, collector_on):
    def boom(node, *args):
        raise ValueError("handler failed")

    monkeypatch.setattr(Node, "handle_sreq", boom)
    with pytest.raises(ValueError, match="handler failed"):
        run(replace(SMALL, seed=2))
    assert gc.isenabled()


@pytest.mark.parametrize("config", [MINE_HEAVY, FLOOD50], ids=["mine_heavy", "flood50"])
def test_run_keeps_the_collector_paused_until_the_simulation_is_freed(
        config, collector_on, monkeypatch):
    # Switched back on while the run is alive, the collector would walk
    # every object the run made, to free nothing.
    init = Simulation.__init__
    paused_at_init = []
    collections = []
    collections_at_free = []

    def spy(sim, cfg, **kwargs):
        paused_at_init.append(not gc.isenabled())
        weakref.finalize(sim, lambda: collections_at_free.append(len(collections)))
        init(sim, cfg, **kwargs)

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    monkeypatch.setattr(Simulation, "__init__", spy)
    gc.collect()   # an empty young generation: nothing is due before the pause
    gc.callbacks.append(count)
    try:
        run(config)
    finally:
        gc.callbacks.remove(count)
    assert paused_at_init == [True]
    assert collections_at_free == [0]
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collector_when_the_config_is_invalid(enabled, collector_on):
    if not enabled:
        gc.disable()
    with pytest.raises(ValueError, match="support"):
        run(replace(SMALL, support=2.0))
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("config", [FLOOD50, MINE_HEAVY], ids=["flood50", "mine_heavy"])
def test_benchmark_configs_make_no_reference_cycles(config, traced, collector_on):
    # ``run`` keeps the collector paused while it builds and frees the
    # Simulation too, so the benchmark's runs must leave nothing to collect.
    # The traced runs write to a sink that keeps no line.
    gc.collect()
    gc.disable()
    for mining_enabled in (False, True):
        metrics = run(replace(config, mining_enabled=mining_enabled),
                      trace=deque(maxlen=0) if traced else None)
        assert metrics.requests_issued > 0
    assert gc.collect() == 0


def test_paired_workload_identical_across_variants():
    on = Simulation(replace(SMALL, mining_enabled=True))
    off = Simulation(replace(SMALL, mining_enabled=False))
    assert on.schedule == off.schedule
    assert on.cm == off.cm
    assert on.placement == off.placement
    assert on.topology.positions == off.topology.positions


# The golden runs: tests/data/trace_digest.jsonl pins each one's trace
# (tests/test_trace_digest.py says why each is there).
GOLDEN_REGRESSION = SimConfig(node_count=5, service_count=3, sessions_per_consumer=1,
                              sim_duration=40.0, seed=12)
GOLDEN_DENSE = SimConfig(node_count=20, service_count=8, sessions_per_consumer=2,
                         log_overheard=True, mining_enabled=True, sim_duration=210.0,
                         seed=8, support=0.3, mining_interval=5.0, seen_capacity=2,
                         hop_latency=0.3, inter_request_gap=0.3)
GOLDEN_SLOW_HOPS = replace(SMALL, seed=3, hop_latency=2.0, mining_interval=2.0,
                           inter_request_gap=1.0, pending_timeout=30.0, support=0.3,
                           log_overheard=True)
# The goldens and the benchmark's configs never close a session by its
# consumer's next one and never evict an open record; a small overheard log
# with sessions 20 s apart (less than session_window) does both.
CHURN = SimConfig(node_count=20, service_count=10, log_overheard=True, log_capacity=4,
                  inter_session_gap=20.0, mining_interval=7.0, support=0.4,
                  sessions_per_consumer=12, sim_duration=300.0)


def audited_run(cfg: SimConfig, trace: list[str]) -> Counter:
    metrics = run(cfg, trace=trace)
    return audit(trace, cfg, metrics)


def audited_pair(cfg: SimConfig) -> int | None:
    """Audit both variants of ``cfg``, each alone and the two as a pair;
    return the line of the first prediction."""
    off, on = [], []
    assert audited_run(replace(cfg, mining_enabled=False), off)[ISSUE] > 0
    assert audited_run(replace(cfg, mining_enabled=True), on)[ISSUE] > 0
    return audit_pair(off, on)


AUDITED = {"golden_regression": GOLDEN_REGRESSION, "golden_dense": GOLDEN_DENSE,
           "golden_slow_hops": GOLDEN_SLOW_HOPS, "small": SMALL,
           "dense_remembering": replace(GOLDEN_DENSE, seen_capacity=SimConfig.seen_capacity),
           **{f"dense_seen1_{v}": replace(GOLDEN_DENSE, seen_capacity=1, mining_enabled=on)
              for v, on in (("off", False), ("on", True))},
           "flood50_off": replace(FLOOD50, mining_enabled=False), "flood50_on": FLOOD50,
           **{f"mine_heavy_seed{s}": replace(MINE_HEAVY, seed=s) for s in range(3)},
           "mine_heavy_related3": replace(MINE_HEAVY, max_related=3),
           "churn": CHURN}
# A seen memory of one or two ids makes relays drop replies both for an id
# they forgot and, on a reverse path that loops, for a spent ttl.
FORGETFUL = ("golden_dense", "dense_seen1_off", "dense_seen1_on")


@pytest.mark.parametrize("name", AUDITED)
def test_trace_obeys_every_law(name):
    counts = audited_run(AUDITED[name], [])
    assert counts["tx_ucast"] > 0
    if name in FORGETFUL:
        assert counts["dropped_forgotten"] > 0 and counts["dropped_ttl"] > 0


@settings(max_examples=50, deadline=None)
@given(st.builds(SimConfig, st.integers(1, 12), st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
                 log_overheard=st.booleans(), seen_capacity=st.sampled_from((1, 2, 1024)),
                 log_capacity=st.integers(1, 6), hop_latency=st.sampled_from((0.002, 0.3)),
                 inter_request_gap=st.sampled_from((0.3, 1.0)), sessions_per_consumer=st.just(3),
                 inter_session_gap=st.sampled_from((12.0, 60.0)),
                 mining_interval=st.sampled_from((3.0, 5.0, 25.0)), sim_duration=st.just(200.0)))
def test_small_random_runs_obey_every_law(cfg):
    audited_pair(cfg)


def test_default_variants_agree_until_the_first_prediction():
    assert audited_pair(SimConfig(node_count=20, service_count=10)) is not None


@pytest.mark.parametrize("line", ["0.000 teleport 0 to=1", "0.000 tx_bcast 0 srep ttl=1"])
def test_audit_rejects_a_line_it_cannot_read(line):
    with pytest.raises(AssertionError, match="cannot read"):
        audit([line], SMALL, Metrics())


def test_one_delivery_event_per_transmission():
    sim = Simulation(SMALL)
    sender = next(i for i, ns in sim.topology.adjacency.items() if ns)
    neighbor = sim.topology.adjacency[sender][0]
    timers = list(sim._heap)
    sreq = Sreq(sender, 0, 0, 1, 1)
    srep = Srep(sender, neighbor, (neighbor, 0), 8, (1, sender), ())
    sreq_row, srep_row = [None] * SMALL.node_count, [None] * SMALL.node_count
    sim.deliver_broadcast(sender, sreq, sreq_row, now=0.0)
    sim.deliver_unicast(sender, neighbor, srep, srep_row, now=0.0)
    assert sim._heap == timers   # deliveries never enter the timer heap
    # A delivery is (time, seq, recipients, from_node, packet, row): an
    # SREQ's recipients are the sender's adjacency, an SREP's its one
    # recipient id, and each carries the row of its flood.
    assert [e[2:5] for e in sim._deliveries] == [
        (sim.topology.adjacency[sender], sender, sreq), (neighbor, sender, srep)]
    assert [e[5] for e in sim._deliveries] == [sreq_row, srep_row]
    first, second = sim._deliveries
    assert first[5] is sreq_row and second[5] is srep_row
    assert first[:2] < second[:2]


def test_a_run_cut_mid_flood_counts_and_queues_every_send(monkeypatch):
    # _loop queues each handler's send itself and adds its two transmission
    # counters to the metrics when it returns.  Cut the clock half a hop
    # after the first instant at which a forward, an answer and a relay hop
    # all leave, so that sends of each kind are still queued when it ends.
    probe = []
    Simulation(FLOOD50, trace=probe).run()
    sends = defaultdict(set)  # time -> kinds of send made then
    for time, kind, sender, *rest in map(str.split, probe):
        if kind == "tx_bcast":
            sends[time].add("forward")
        elif kind == "tx_ucast":
            sends[time].add("answer" if rest[2] == f"responder={sender}" else "relay")
    cut = next(time for time, kinds in sends.items() if len(kinds) == 3)
    cfg = replace(FLOOD50, sim_duration=float(cut) + FLOOD50.hop_latency / 2)
    made = {}   # msg_id -> the row its origin's issue_request made
    issue = Node.issue_request

    def record_issue(node, *args):
        issued = issue(node, *args)
        if issued is not None:
            made[issued[0][:2]] = issued[1]
        return issued

    monkeypatch.setattr(Node, "issue_request", record_issue)
    trace = []
    sim = Simulation(cfg, trace=trace)
    metrics = sim.run()
    monkeypatch.undo()   # the run below must not overwrite `made`
    assert sim._deliveries
    assert metrics == run(cfg)
    kinds = Counter(line.split()[1] for line in trace)
    assert (kinds["tx_bcast"], kinds["tx_ucast"]) == (metrics.sreq_transmissions,
                                                      metrics.srep_transmissions)
    # Each entry is laid out as deliver_broadcast and deliver_unicast make
    # it: (time, seq, recipients, from_node, packet, row).  A forward, an
    # answer and a relay hop each carry the very row that the origin made
    # for the flood, in which their sender remembers the request.
    adjacency = sim.topology.adjacency
    for entry in sim._deliveries:
        time, seq, recipients, from_node, packet, row = entry
        assert time > cfg.sim_duration and type(seq) is int
        if len(packet) == SREQ_FIELDS:
            assert recipients == adjacency[from_node]
            assert row is made[packet[:2]]
        else:
            assert recipients in adjacency[from_node]
            assert row is made[packet[2]]
        assert row[from_node] is not None
    queued = [entry[3:5] for entry in sim._deliveries]
    assert any(len(packet) == SREQ_FIELDS for _, packet in queued)
    assert any(len(packet) != SREQ_FIELDS and packet[0] == sender for sender, packet in queued)
    assert any(len(packet) != SREQ_FIELDS and packet[0] != sender for sender, packet in queued)
    assert list(sim._deliveries) == sorted(sim._deliveries, key=lambda entry: entry[:2])


# The config of CI's command-line run: overheard logging and support 0.3
# give the mining-on run frequent pairs, so a reply piggybacks a record.
CLI_CONFIG = SimConfig(node_count=6, service_count=4, sessions_per_consumer=3,
                       sim_duration=270.0, log_overheard=True, support=0.3)


def test_sent_packets_are_plain_tuples_that_the_codec_round_trips(monkeypatch):
    # The engine builds each packet as a plain tuple in the field order of
    # Sreq or Srep, and routes it by its field count; named, it must encode.
    # Every packet a handler returns is sent: an origin's is the first item
    # of issue_request's (sreq, row), and a relay's the second item of
    # handle_srep's (upstream, srep).
    sent = []
    issue, handle_sreq, handle_srep = Node.issue_request, Node.handle_sreq, Node.handle_srep

    def record_issue(node, *args):
        issued = issue(node, *args)
        if issued is not None:
            sent.append(issued[0])
        return issued

    def record_sreq(node, *args):
        out = handle_sreq(node, *args)
        if out is not None:
            sent.append(out)
        return out

    def record_srep(node, *args):
        emission = handle_srep(node, *args)
        if emission is not None:
            sent.append(emission[1])
        return emission

    monkeypatch.setattr(Node, "issue_request", record_issue)
    monkeypatch.setattr(Node, "handle_sreq", record_sreq)
    monkeypatch.setattr(Node, "handle_srep", record_srep)
    metrics = run(CLI_CONFIG)
    assert len(sent) == metrics.sreq_transmissions + metrics.srep_transmissions
    for packet in sent:
        assert type(packet) is tuple
        named = Sreq._make(packet) if len(packet) == SREQ_FIELDS else Srep._make(packet)
        assert decode_packet(encode_packet(named)) == packet
    assert any(len(packet) != SREQ_FIELDS and packet[5] for packet in sent)


@pytest.mark.parametrize("cfg", [GOLDEN_DENSE, FLOOD50], ids=["forgetful", "flood50"])
def test_only_origins_create_flood_rows(cfg):
    # Only an origin's issue_request makes a row, one per request it
    # flooded, numbered by _issued; the rows still held have a slot per node.
    trace = []
    sim = Simulation(cfg, trace=trace)
    metrics = sim.run()
    flooded = Counter(int(line.split()[2]) for line in trace
                      if line.split()[1] == ISSUE and line.endswith(" local=0"))
    assert [node._issued for node in sim.nodes] == [flooded[nid] for nid in range(cfg.node_count)]
    assert sum(node._issued for node in sim.nodes) == metrics.broadcasts_originated > 0
    held = [row for node in sim.nodes for row in node._seen_order]
    assert all(len(row) == cfg.node_count for row in held + [e[5] for e in sim._deliveries])


def test_forgotten_flood_rows_are_freed():
    # A row lives only while a node remembers its flood or a queued
    # delivery carries it.  These seen memories hold 8 ids each, so by the
    # end of the run most floods are forgotten by every node, and the run
    # holds far less than a row per flood.
    cfg = SimConfig(node_count=100, service_count=10, field_size=(707.0, 707.0),
                    seen_capacity=8, sessions_per_consumer=3, sim_duration=270.0)
    sim = Simulation(cfg)
    tracemalloc.start()
    try:
        metrics = sim.run()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < metrics.broadcasts_originated * sys.getsizeof([None] * cfg.node_count)


def test_heap_entries_carry_the_timer_functions():
    timers = {Simulation._issue, Simulation._scan, Simulation._mining_tick}
    sim = Simulation(SMALL)
    assert {entry[2] for entry in sim._heap} == timers
    sim.run()
    assert {entry[2] for entry in sim._heap} <= timers


FLOAT_FIELDS = tuple(f.name for f in fields(SimConfig) if "float" in f.type)


# Unchecked, OVERLAPPING logged node 0's three sessions as the six keys
# (0,0), (0,1), (0,0), (0,1), (0,0), (0,2): each session's late requests
# reopened its key after the next session had opened.
OVERLAPPING = SimConfig(node_count=8, service_count=10, inter_request_gap=20.0,
                        session_window=500.0, sessions_per_consumer=3, eta=1.0,
                        log_capacity=20, seed=1)
# Unchecked, OUTLASTING's node 0 logged session (0,0) as {0,3,4,5,6,8} and
# again as {9}: the scan closed it at its 30 s window, and its last request,
# 54 s after its first, opened a second record under the same key.
OUTLASTING = SimConfig(node_count=8, service_count=10, inter_request_gap=6.0,
                       sessions_per_consumer=3, eta=1.0, log_capacity=20, seed=1)

# name: (change to SMALL, the reason it is refused)
CONFIG_REFUSALS = {
    "eta_zero": ({"eta": 0.0}, "eta must be in (0, 1], got 0.0"),
    "support_above_one": ({"support": 1.5}, "support must be in (0, 1], got 1.5"),
    "no_nodes": ({"node_count": 0}, "node_count must be positive, got 0"),
    "negative_duration": ({"sim_duration": -1.0}, "sim_duration must be >= 0, got -1.0"),
    "negative_seed": ({"seed": -2}, "seed must be >= 0, got -2"),
    # Packets carry two-byte node and service ids and at most 32 related records.
    "max_related_unencodable": ({"max_related": MAX_RELATED_RECORDS + 1},
                                "max_related must be at most 32"),
    "node_count_unencodable": ({"node_count": 65537}, "node_count must be at most 65536"),
    "service_count_unencodable": ({"service_count": 65537},
                                  "service_count must be at most 65536"),
    "overlapping_sessions": (vars(OVERLAPPING), "sessions overlap"),
    "sessions_outlast_the_window": (vars(OUTLASTING), "sessions outlast the window"),
}


def assert_refused(cfg: SimConfig, message: str) -> None:
    for build in (SimConfig.validate, Simulation):
        with pytest.raises(ValueError, match=re.escape(message)):
            build(cfg)


@pytest.mark.parametrize("change, message", CONFIG_REFUSALS.values(), ids=CONFIG_REFUSALS.keys())
def test_config_refusal(change, message):
    assert_refused(replace(SMALL, **change), message)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_config_rejects_non_finite_floats(name, value):
    bad = (value, 500.0) if name == "field_size" else value
    assert_refused(replace(SMALL, **{name: bad}), f"{name} must be finite")


def test_config_accepts_the_largest_encodable_values():
    # One session per consumer: 65536 requests a second apart would overrun
    # the next session's start (the overlapping_sessions refusal).
    # A 1e-4 s gap keeps all of them inside one session window.
    replace(SMALL, max_related=MAX_RELATED_RECORDS, node_count=65536,
            service_count=65536, initial_ttl=255, sessions_per_consumer=1,
            inter_request_gap=1e-4).validate()


def check_boundary(cfg: SimConfig, ok: bool, message: str) -> None:
    if not ok:
        assert_refused(cfg, message)
        return
    sim = Simulation(cfg)
    sim.run()
    for node in sim.nodes:
        keys = [record.key for record in node.log.records]
        assert len(keys) == len(set(keys))


@pytest.mark.parametrize("change, ok", [
    ({"inter_session_gap": 180.0}, False),   # the last request lands on the next start
    ({"inter_session_gap": 180.5}, True),
    ({"inter_request_gap": 6.6}, True),      # 9 * 6.6 = 59.4 < 60
    ({"inter_request_gap": 60 / 9}, False),
    ({"sessions_per_consumer": 1}, True),    # no next session to overlap
])
def test_overlap_rule_boundary(change, ok):
    check_boundary(replace(OVERLAPPING, **change), ok, "sessions overlap")


@pytest.mark.parametrize("change, ok", [
    ({"session_window": 54.0}, False),     # the last request lands on the close
    ({"session_window": 54.5}, True),
    ({"inter_request_gap": 30 / 9}, False),
    ({"inter_request_gap": 3.3}, True),    # 9 * 3.3 = 29.7 < 30
])
def test_window_rule_boundary(change, ok):
    check_boundary(replace(OUTLASTING, **change), ok, "sessions outlast the window")


@pytest.mark.parametrize("overrides", [{}, vars(FLOOD50), vars(MINE_HEAVY)])
def test_default_and_benchmark_configs_do_not_overlap(overrides):
    replace(SimConfig(node_count=20, service_count=10), **overrides).validate()


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


def test_traced_and_untraced_runs_mine_the_same_pairs():
    # Replies rank pairs from the kept masks, so every run mines singletons only.
    def kept(trace):
        sim = Simulation(MINE_HEAVY, trace=trace)
        sim.run()
        return [(node.itemsets, node._masks, node._threshold) for node in sim.nodes]

    traced = kept([])
    assert traced == kept(None)
    assert max(len(items) for mined, _, _ in traced for items in mined) == 1
    assert all(masks for _, masks, _ in traced)


@pytest.mark.parametrize("field", ["pairs", "txns"])
def test_audit_rejects_a_wrong_tick_count(field):
    trace = []
    metrics = run(MINE_HEAVY, trace=trace)
    tick = next(i for i, line in enumerate(trace)
                if " mining_tick " in line and not line.endswith(" pairs=0"))
    trace[tick] = re.sub(rf"{field}=(\d+)", lambda m: f"{field}={int(m[1]) + 1}", trace[tick])
    with pytest.raises(AssertionError, match="a tick closes each session"):
        audit(trace, MINE_HEAVY, metrics)


@pytest.mark.parametrize("rewrite, law", [
    (lambda answer, svc, provider: f"{svc}@{provider + 1}", "true provider"),
    (lambda answer, svc, provider: answer, "partners of it in frequent pairs"),
], ids=["provider", "service"])
def test_audit_rejects_a_wrong_related_record(rewrite, law):
    trace = []
    sim = Simulation(MINE_HEAVY, trace=trace)
    metrics = sim.run()
    line = next(i for i, text in enumerate(trace)
                if " tx_ucast " in text and not text.endswith("related=[]"))
    answer = re.search(r"answer=(\S+)", trace[line])[1]
    svc, provider = map(int, re.search(r"related=\[(\d+)@(\d+)", trace[line]).groups())
    assert sim.placement[svc] == provider
    trace[line] = trace[line].replace(f"related=[{svc}@{provider}",
                                      f"related=[{rewrite(answer, svc, provider)}")
    with pytest.raises(AssertionError, match=law):
        audit(trace, MINE_HEAVY, metrics)


@pytest.mark.parametrize("log_overheard", [False, True])
def test_mining_off_nodes_keep_no_session_log(log_overheard):
    cfg = replace(SMALL, log_overheard=log_overheard)
    off = Simulation(replace(cfg, mining_enabled=False))
    assert off.run().requests_issued > 0
    assert all(len(node.log) == 0 and node.log.closed_version == 0 for node in off.nodes)
    on = Simulation(cfg)
    on.run()
    assert any(len(node.log) for node in on.nodes)
