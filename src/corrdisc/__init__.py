"""Correlation-aware service discovery simulator."""

from .mining import (brute_force_frequent_itemsets, build_fp_tree,
                     mine_frequent_itemsets)
from .netsim import Metrics, SimConfig, Simulation, run
from .sessionlog import LogDatabase, SessionRecord
from .workload import build_correlation_matrix, build_schedule, candidate_set, generate_session

__version__ = "0.1.0"

__all__ = [
    "Metrics",
    "SimConfig",
    "Simulation",
    "LogDatabase",
    "SessionRecord",
    "brute_force_frequent_itemsets",
    "build_correlation_matrix",
    "build_fp_tree",
    "build_schedule",
    "candidate_set",
    "generate_session",
    "mine_frequent_itemsets",
    "run",
]
