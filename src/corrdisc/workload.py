"""Correlated workload generation.

A binary n x n correlation matrix is drawn once per experiment by
thresholding uniform randoms at 0.5.  Each session picks a seed service
s, collects the candidate set C = {i : i = s or cm[i][s] = 1} (column s),
and keeps each candidate independently with probability eta.  An empty
draw is retried; after 100 attempts the session falls back to {s}.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from collections.abc import Iterable

    from .netsim import SimConfig

CorrelationMatrix = list[list[int]]

EMPTY_SESSION_RETRIES = 100


class SessionSpec(NamedTuple):
    consumer: int
    session_seq: int
    services: frozenset[int]
    start_time: float
    inter_request_gap: float


def build_correlation_matrix(n: int, rng) -> CorrelationMatrix:
    """n x n bit matrix; bit (i, j) is 1 iff the uniform draw was >= 0.5.

    Draws all n * n cells in one ``rng.random((n, n))`` call, row-major
    (i outer, j inner): the same stream as one scalar draw per cell, so a
    given generator state always yields the same matrix.
    """
    if n < 1:
        raise ValueError(f"need at least one service, got n={n}")
    return [[1 if u >= 0.5 else 0 for u in row] for row in rng.random((n, n)).tolist()]


def candidate_set(seed_service: int, cm: CorrelationMatrix) -> set[int]:
    """Services eligible for a session seeded by ``seed_service``: the seed
    itself plus every i with cm[i][seed] = 1 (a column read)."""
    n = len(cm)
    if not 0 <= seed_service < n:
        raise ValueError(f"seed service {seed_service} out of range for n={n}")
    return {i for i in range(n) if i == seed_service or cm[i][seed_service] == 1}


def generate_session(seed_service: int, candidates: Iterable[int], eta: float,
                     rng) -> set[int]:
    """Probabilistic session: keep each candidate i with p_i < eta, draws in
    ascending id order, one ``rng.random(k)`` call per attempt.  Resamples
    an empty result, bounded at ``EMPTY_SESSION_RETRIES`` attempts, then
    falls back to the seed alone."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    order = sorted(candidates)
    for _ in range(EMPTY_SESSION_RETRIES):
        session = {i for i, u in zip(order, rng.random(len(order)).tolist()) if u < eta}
        if session:
            return session
    return {seed_service}


def build_schedule(config: "SimConfig", cm: CorrelationMatrix, rng) -> list[SessionSpec]:
    """Session plans for every node, fully determined by the rng state:
    every node is a consumer.

    Node k starts its sessions at k * (inter_session_gap / node_count) so
    session closings trickle in instead of arriving in lockstep; within a
    consumer, sessions are inter_session_gap apart.  Each seed service's
    candidate column is read once per schedule.
    """
    specs: list[SessionSpec] = []
    stagger = config.inter_session_gap / config.node_count
    columns: dict[int, list[int]] = {}
    for consumer in range(config.node_count):
        for j in range(config.sessions_per_consumer):
            # Scalar on purpose: integers(size=k) packs two 32-bit draws
            # into each 64-bit word, which would change the stream.
            seed_service = int(rng.integers(config.service_count))
            column = columns.get(seed_service)
            if column is None:
                column = columns[seed_service] = sorted(candidate_set(seed_service, cm))
            services = generate_session(seed_service, column, config.eta, rng)
            specs.append(SessionSpec(
                consumer=consumer,
                session_seq=j,
                services=frozenset(services),
                start_time=consumer * stagger + j * config.inter_session_gap,
                inter_request_gap=config.inter_request_gap,
            ))
    return specs


def cm_to_text(cm: CorrelationMatrix) -> str:
    """n lines of n space-separated bits."""
    return "\n".join(" ".join(str(bit) for bit in row) for row in cm)
