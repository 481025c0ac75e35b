"""Correlated workload generation.

A binary n x n correlation matrix is drawn once per experiment by
thresholding uniform randoms at 0.5.  Each session picks a seed service
s, collects the candidate set C = {i : i = s or cm[i][s] = 1} (column s),
and keeps each candidate independently with probability eta.  An empty
draw is retried; after 100 attempts the session falls back to {s}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .netsim import SimConfig

CorrelationMatrix = list[list[int]]

EMPTY_SESSION_RETRIES = 100


@dataclass(frozen=True, slots=True)
class SessionSpec:
    consumer: int
    session_seq: int
    seed_service: int
    services: frozenset[int]
    start_time: float
    inter_request_gap: float


def build_correlation_matrix(n: int, rng) -> CorrelationMatrix:
    """n x n bit matrix; bit (i, j) is 1 iff the uniform draw was >= 0.5.

    Draws row-major (i outer, j inner), one call to ``rng.random()`` per
    cell, so a given generator state always yields the same matrix.
    """
    if n < 1:
        raise ValueError(f"need at least one service, got n={n}")
    return [[1 if rng.random() >= 0.5 else 0 for _ in range(n)] for _ in range(n)]


def candidate_set(seed_service: int, cm: CorrelationMatrix) -> set[int]:
    """Services eligible for a session seeded by ``seed_service``: the seed
    itself plus every i with cm[i][seed] = 1 (a column read)."""
    n = len(cm)
    if not 0 <= seed_service < n:
        raise ValueError(f"seed service {seed_service} out of range for n={n}")
    return {i for i in range(n) if i == seed_service or cm[i][seed_service] == 1}


def generate_session(seed_service: int, candidates: set[int], eta: float,
                     rng) -> set[int]:
    """Probabilistic session: keep each candidate i with p_i < eta, draws in
    ascending id order.  Resamples an empty result, bounded at
    ``EMPTY_SESSION_RETRIES`` attempts, then falls back to the seed alone."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    order = sorted(candidates)
    for _ in range(EMPTY_SESSION_RETRIES):
        session = {i for i in order if rng.random() < eta}
        if session:
            return session
    return {seed_service}


def build_schedule(config: "SimConfig", cm: CorrelationMatrix, rng) -> list[SessionSpec]:
    """Session plans for every consumer, fully determined by the rng state.

    Consumer k starts its sessions at k * (inter_session_gap / consumers)
    so session closings trickle in instead of arriving in lockstep; within
    a consumer, sessions are inter_session_gap apart.
    """
    consumers = consumer_ids(config)
    specs: list[SessionSpec] = []
    if not consumers:
        return specs
    stagger = config.inter_session_gap / len(consumers)
    for k, consumer in enumerate(consumers):
        for j in range(config.sessions_per_consumer):
            seed_service = int(rng.integers(config.service_count))
            services = generate_session(
                seed_service, candidate_set(seed_service, cm), config.eta, rng)
            specs.append(SessionSpec(
                consumer=consumer,
                session_seq=j,
                seed_service=seed_service,
                services=frozenset(services),
                start_time=k * stagger + j * config.inter_session_gap,
                inter_request_gap=config.inter_request_gap,
            ))
    return specs


def consumer_ids(config: "SimConfig") -> list[int]:
    count = int(config.consumer_fraction * config.node_count + 0.5)
    return list(range(min(count, config.node_count)))


def cm_to_text(cm: CorrelationMatrix) -> str:
    """n lines of n space-separated bits."""
    return "\n".join(" ".join(str(bit) for bit in row) for row in cm)
