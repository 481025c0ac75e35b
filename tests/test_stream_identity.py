"""The bulk setup draws the same random streams as one scalar draw per value.

Each ``scalar_*`` function below is the builder as it was written before
the draws were batched: one ``rng.random()`` call per matrix cell, per
coordinate and per session candidate, and one heap push per request.
They are the reference.  Each test runs a reference and the program's
builder on two generators of the same seed and checks that both return
the same values and leave their generators in the same state.
"""

import heapq
from dataclasses import replace
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from corrdisc.netsim import SCAN_INTERVAL, SimConfig, Simulation, place_nodes
from corrdisc.workload import (EMPTY_SESSION_RETRIES, build_correlation_matrix,
                               build_schedule, candidate_set, consumer_ids,
                               generate_session)


def scalar_correlation_matrix(n, rng):
    return [[1 if rng.random() >= 0.5 else 0 for _ in range(n)] for _ in range(n)]


def scalar_place_nodes(config, rng):
    width, height = config.field_size
    positions = {i: (rng.random() * width, rng.random() * height)
                 for i in range(config.node_count)}
    limit_sq = config.radio_range ** 2
    neighbors = {i: [] for i in positions}
    for i in range(config.node_count):
        xi, yi = positions[i]
        for j in range(i + 1, config.node_count):
            xj, yj = positions[j]
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= limit_sq:
                neighbors[i].append(j)
                neighbors[j].append(i)
    return positions, {i: tuple(sorted(ns)) for i, ns in neighbors.items()}


def scalar_generate_session(seed_service, candidates, eta, rng):
    order = sorted(candidates)
    for _ in range(EMPTY_SESSION_RETRIES):
        session = {i for i in order if rng.random() < eta}
        if session:
            return session
    return {seed_service}


def scalar_schedule(config, cm, rng):
    """(consumer, session_seq, services, start_time, gap) per session,
    reading each session's candidate column afresh."""
    consumers = consumer_ids(config)
    specs = []
    if not consumers:
        return specs
    stagger = config.inter_session_gap / len(consumers)
    for k, consumer in enumerate(consumers):
        for j in range(config.sessions_per_consumer):
            seed_service = int(rng.integers(config.service_count))
            services = scalar_generate_session(
                seed_service, candidate_set(seed_service, cm), config.eta, rng)
            specs.append((consumer, j, frozenset(services),
                          k * stagger + j * config.inter_session_gap,
                          config.inter_request_gap))
    return specs


def pushed_heap(sim):
    """The timer heap as one ``heappush`` per request, then SCAN and tick."""
    heap, seq, cfg = [], count(), sim.cfg
    for spec in sim.schedule:
        for idx, service in enumerate(sorted(spec.services)):
            heapq.heappush(heap, (spec.start_time + idx * spec.inter_request_gap,
                                  next(seq), Simulation._issue,
                                  (spec.consumer, service, spec.session_seq)))
    heapq.heappush(heap, (SCAN_INTERVAL, next(seq), Simulation._scan, ()))
    if cfg.mining_enabled:
        heapq.heappush(heap, (cfg.mining_interval, next(seq), Simulation._mining_tick, ()))
    return heap


def pop_all(heap):
    heap = list(heap)
    return [heapq.heappop(heap) for _ in range(len(heap))]


def twin_rngs(seed):
    return default_rng(seed), default_rng(seed)


def same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("n", range(1, 25))
def test_correlation_matrix_matches_scalar_draws(n):
    for seed in range(5):
        ref_rng, rng = twin_rngs(seed)
        assert build_correlation_matrix(n, rng) == scalar_correlation_matrix(n, ref_rng)
        assert same_state(rng, ref_rng)


@pytest.mark.parametrize("node_count", [1, 2, 3, 50, 199, 200])
@pytest.mark.parametrize("field_size", [(500.0, 500.0), (1000.0, 150.0), (37.5, 820.0)])
def test_place_nodes_matches_scalar_draws(node_count, field_size):
    cfg = SimConfig(node_count=node_count, service_count=1, field_size=field_size)
    ref_rng, rng = twin_rngs(node_count)
    topo = place_nodes(cfg, rng)
    assert (topo.positions, topo.adjacency) == scalar_place_nodes(cfg, ref_rng)
    assert same_state(rng, ref_rng)


@settings(max_examples=60, deadline=None)
@given(node_count=st.integers(1, 200),
       width=st.floats(1.0, 2000.0), height=st.floats(1.0, 2000.0),
       radio_range=st.floats(1.0, 1000.0), seed=st.integers(0, 2**32))
def test_place_nodes_matches_scalar_draws_on_any_field(node_count, width, height,
                                                       radio_range, seed):
    cfg = SimConfig(node_count=node_count, service_count=1,
                    field_size=(width, height), radio_range=radio_range)
    ref_rng, rng = twin_rngs(seed)
    topo = place_nodes(cfg, rng)
    assert (topo.positions, topo.adjacency) == scalar_place_nodes(cfg, ref_rng)
    assert same_state(rng, ref_rng)


class CountingRng:
    """Counts the scalar draws the reference makes."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.rng.random()


@pytest.mark.parametrize("eta", [0.005, 0.02, 0.5, 1.0])
def test_generate_session_matches_scalar_draws_through_retries_and_fallback(eta):
    # The seed service 99 is never a candidate here, so a {99} result is
    # the fallback; at eta 0.005 one candidate comes up empty 100 times in
    # a row with probability 0.61.
    ref_rng, rng = twin_rngs(3)
    fallbacks = retried_hits = 0
    for candidates in ([], [4], [0, 7], [1, 2, 3], list(range(10))) * 20:
        counting = CountingRng(ref_rng)
        expected = scalar_generate_session(99, set(candidates), eta, counting)
        session = generate_session(99, candidates, eta, rng)
        assert session == expected
        assert same_state(rng, ref_rng)
        fallbacks += session == {99}
        retried_hits += session != {99} and counting.calls > len(candidates)
    if eta < 0.05:
        assert fallbacks > 0 and retried_hits > 0
    if eta == 1.0:
        assert fallbacks == 20  # only the empty candidate list falls back


@pytest.mark.parametrize("overrides", [
    dict(node_count=8, service_count=5, sessions_per_consumer=2),
    dict(node_count=50, service_count=10, sessions_per_consumer=4),
    dict(node_count=12, service_count=16, sessions_per_consumer=3, eta=0.05),
    dict(node_count=20, service_count=24, sessions_per_consumer=1, eta=0.3,
         consumer_fraction=0.5),
])
def test_schedule_matches_scalar_draws(overrides):
    cfg = SimConfig(**overrides)
    for seed in range(4):
        cm = build_correlation_matrix(cfg.service_count, default_rng(seed))
        ref_rng, rng = twin_rngs(seed + 100)
        specs = build_schedule(cfg, cm, rng)
        assert [tuple(spec) for spec in specs] == scalar_schedule(cfg, cm, ref_rng)
        assert same_state(rng, ref_rng)


@pytest.mark.parametrize("mining_enabled", [True, False])
@pytest.mark.parametrize("overrides", [
    dict(node_count=8, service_count=5, sessions_per_consumer=2, sim_duration=150.0),
    dict(node_count=50, service_count=10, sessions_per_consumer=4, sim_duration=330.0),
    dict(node_count=12, service_count=16, sessions_per_consumer=3, sim_duration=270.0,
         mining_interval=2.0),
])
def test_heapified_schedule_pops_in_push_order(overrides, mining_enabled):
    for seed in range(3):
        sim = Simulation(replace(SimConfig(**overrides), seed=seed,
                                 mining_enabled=mining_enabled))
        assert pop_all(sim._heap) == pop_all(pushed_heap(sim))
