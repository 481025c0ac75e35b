import numpy as np
import pytest
from numpy.random import default_rng

from corrdisc.netsim import SimConfig
from corrdisc.workload import (build_correlation_matrix, build_schedule,
                               candidate_set, generate_session)


class StubRng:
    """Feeds a fixed cycle of uniform draws, one at a time or, given
    ``size``, as an array filled row-major from the same cycle."""

    def __init__(self, values):
        self.values = list(values)
        self.i = 0

    def random(self, size=None):
        if size is not None:
            draws = [self.random() for _ in range(int(np.prod(size)))]
            return np.array(draws, dtype=float).reshape(size)
        v = self.values[self.i % len(self.values)]
        self.i += 1
        return v


def test_cm_boundary_half_maps_to_one():
    cm = build_correlation_matrix(2, StubRng([0.5]))
    assert cm == [[1, 1], [1, 1]]


def test_cm_below_half_maps_to_zero():
    cm = build_correlation_matrix(2, StubRng([0.3]))
    assert cm == [[0, 0], [0, 0]]


def test_cm_single_service():
    assert build_correlation_matrix(1, StubRng([0.9])) == [[1]]


def test_cm_bit_frequency():
    rng = default_rng(7)
    ones = total = 0
    for _ in range(10_000):
        cm = build_correlation_matrix(3, rng)
        ones += sum(sum(row) for row in cm)
        total += 9
    assert abs(ones / total - 0.5) < 0.02


def test_candidate_set_zero_matrix():
    cm = [[0] * 3 for _ in range(3)]
    assert candidate_set(1, cm) == {1}


def test_candidate_set_full_matrix():
    cm = [[1] * 4 for _ in range(4)]
    assert candidate_set(1, cm) == {0, 1, 2, 3}


def test_candidate_set_reads_column():
    # Column 2 = [1, 0, 0, 1] -> candidates {0, 2, 3}.
    cm = [[0, 0, 1, 0],
          [0, 0, 0, 0],
          [0, 0, 0, 0],
          [0, 0, 1, 0]]
    assert candidate_set(2, cm) == {0, 2, 3}


def test_candidate_set_range_check():
    with pytest.raises(ValueError):
        candidate_set(3, [[0]])


def test_generate_session_eta_one_keeps_all():
    rng = default_rng(0)
    for _ in range(50):
        assert generate_session(2, {0, 2, 5}, 1.0, rng) == {0, 2, 5}


def test_generate_session_fallback_to_seed():
    # Draws always >= eta -> every attempt is empty -> falls back to {s}.
    assert generate_session(3, {3}, 0.5, StubRng([0.9])) == {3}


def test_generate_session_subset_and_nonempty():
    rng = default_rng(1)
    candidates = {1, 3, 4, 8}
    for _ in range(200):
        s = generate_session(1, candidates, 0.8, rng)
        assert s and s <= candidates


def test_generate_session_draws_in_ascending_order():
    # Candidates {1, 5}: first draw belongs to 1, second to 5.
    session = generate_session(1, {5, 1}, 0.5, StubRng([0.1, 0.9]))
    assert session == {1}


def test_schedule_one_consumer_one_session():
    cfg = SimConfig(node_count=1, service_count=4, sessions_per_consumer=1)
    cm = [[1] * 4 for _ in range(4)]
    specs = build_schedule(cfg, cm, default_rng(3))
    assert len(specs) == 1
    assert specs[0].consumer == 0
    assert specs[0].start_time == 0.0
    assert specs[0].services


def test_schedule_spacing_and_stagger():
    cfg = SimConfig(node_count=2, service_count=4, sessions_per_consumer=2,
                    inter_session_gap=60.0)
    cm = [[1] * 4 for _ in range(4)]
    specs = build_schedule(cfg, cm, default_rng(3))
    starts = {(s.consumer, s.session_seq): s.start_time for s in specs}
    assert starts[(0, 0)] == 0.0
    assert starts[(0, 1)] == 60.0
    assert starts[(1, 0)] == 30.0   # staggered by gap / node_count
    assert starts[(1, 1)] == 90.0


