"""Frequent-itemset mining over logged service sessions.

Transactions are sets of integer service ids.  ``mine_frequent_itemsets``
mines depth first over vertical bitsets (Eclat's tid-sets: one transaction
mask per item, support by popcount of the masks' AND, no candidate
generation).  It builds the masks from the transactions, or reads them
from the caller, as the simulation does from each node's
``LogDatabase.masks``, which the log keeps up to date across mines;
``brute_force_frequent_itemsets`` is the independent oracle that
enumerates every subset of the item universe and counts containment
directly.  Both return exact support counts.

A reply ranks related services by exact pair supports, which
``rank_related`` reads from the vertical bitsets a node kept at its last
re-mine, one requested service at a time; so the simulation mines only
the singletons (``max_size=1``).  That size returns the frequent items
straight from the masks, with no itemset recursion.  ``min_count`` is
memoized, since a run asks it the same few (support, log length)
questions at every re-mine.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

ServiceId = int
Transaction = frozenset[ServiceId]
ItemsetCounts = dict[frozenset[ServiceId], int]

# Mining over fewer sessions than this is noise; callers feed the
# prediction layer an empty itemset collection instead.
MIN_MINING_TRANSACTIONS = 3

# Guard for the exponential oracle.
MAX_ORACLE_UNIVERSE = 20


@lru_cache(maxsize=256, typed=True)
def min_count(fraction: float, n_transactions: int) -> int:
    """Absolute support count implied by a fractional threshold.

    ceil(fraction * n), floored at 1.  The product is rounded to 9
    decimals first so float dust (0.8 * 5 -> 4.000000000000001) cannot
    bump the ceiling.  The result is memoized, so the rounding is paid
    once per argument pair.  The memo is exact: it hands back what this
    function returned for equal arguments of the same types, and an
    invalid fraction raises on every call, as exceptions are not cached.
    (A closed form without ``round`` would not match it at the 9-decimal
    rounding ties.)
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"support fraction must be in (0, 1], got {fraction}")
    return max(1, math.ceil(round(fraction * n_transactions, 9)))


def mine_frequent_itemsets(transactions: Sequence[Transaction], support: float,
                           masks: Mapping[ServiceId, int] | None = None,
                           max_size: int | None = None) -> ItemsetCounts:
    """All itemsets appearing in at least ceil(support * len(transactions))
    transactions, mapped to their exact support counts.

    Empty input yields an empty result.  Singletons are included; the
    empty itemset is not.  ``masks``, when given, must be the vertical
    bitsets of ``transactions``: one distinct bit per transaction, set in
    the mask of each of its items, and no other item.  Only popcounts are
    read, so the result is the same whichever bit each transaction has.
    ``max_size``, when given, keeps only the itemsets of at most that many
    items: exactly those of the full result, as it is downward closed.
    At ``max_size=1`` the frequent singletons are read off the masks'
    popcounts directly, in item order, as the recursion would record them.
    """
    threshold = min_count(support, len(transactions))
    if max_size is not None and max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    if not transactions:
        return {}
    if masks is None:
        # Bit t of an item's mask is set when transaction t holds the item,
        # so the support of an itemset is the popcount of its members' AND.
        masks = {}
        bit = 1
        for items in transactions:
            for item in items:
                masks[item] = masks.get(item, 0) | bit
            bit <<= 1
    if max_size == 1:
        return {frozenset((item,)): count for item, mask in sorted(masks.items())
                if (count := mask.bit_count()) >= threshold}
    frequent = []
    for item, mask in sorted(masks.items()):
        count = mask.bit_count()
        if count >= threshold:
            frequent.append((item, mask, count))
    out: ItemsetCounts = {}
    # Without max_size, no itemset can outgrow the frequent items.
    _extend(frozenset(), frequent, threshold, out, max_size or len(frequent))
    return out


def _extend(prefix: frozenset[ServiceId], tail: list[tuple[ServiceId, int, int]],
            threshold: int, out: ItemsetCounts, room: int) -> None:
    """Record ``prefix`` plus each item of ``tail`` (already frequent with
    it; each entry is item, mask, popcount), then grow each such itemset
    with the later items of ``tail`` only, so every itemset is reached
    exactly once and every popcount is taken once.  ``room`` is how many
    more items the recorded itemsets may hold than ``prefix``; at 1 they
    are not grown."""
    for i, (item, mask, count) in enumerate(tail, 1):
        itemset = prefix | {item}
        out[itemset] = count
        if room == 1:
            continue
        later = []
        for other, other_mask, _ in tail[i:]:
            joint = mask & other_mask
            joint_count = joint.bit_count()
            if joint_count >= threshold:
                later.append((other, joint, joint_count))
        if later:
            _extend(itemset, later, threshold, out, room - 1)


def brute_force_frequent_itemsets(transactions: Sequence[Transaction],
                                  support: float) -> ItemsetCounts:
    """Oracle with the same contract as ``mine_frequent_itemsets``.

    Enumerates every non-empty subset of the item universe and counts
    containment directly; rejects universes larger than
    ``MAX_ORACLE_UNIVERSE`` items.
    """
    threshold = min_count(support, len(transactions))
    if not transactions:
        return {}
    universe = sorted(set().union(*transactions))
    if len(universe) > MAX_ORACLE_UNIVERSE:
        raise ValueError(
            f"oracle universe limited to {MAX_ORACLE_UNIVERSE} items, got {len(universe)}")
    out: ItemsetCounts = {}
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            items = frozenset(combo)
            count = sum(1 for t in transactions if items <= t)
            if count >= threshold:
                out[items] = count
    return out


def rank_related(service: ServiceId, masks: Mapping[ServiceId, int],
                 threshold: int) -> list[ServiceId]:
    """The services ``o`` whose pair with ``service`` is frequent,
    ``popcount(masks[service] & masks[o]) >= threshold``, by that count
    descending, then by id.

    ``masks`` are vertical bitsets as ``mine_frequent_itemsets`` takes
    them, and ``threshold`` an absolute count (``min_count``).  Only
    popcounts are read, so any one-to-one bit assignment ranks the same.
    """
    mask = masks.get(service, 0)
    if mask.bit_count() < threshold:
        return []   # no pair can be more frequent than its members
    counts = {}
    for other, other_mask in masks.items():
        if other != service:
            count = (mask & other_mask).bit_count()
            if count >= threshold:
                counts[other] = count
    return sorted(counts, key=lambda o: (-counts[o], o))


def parse_transactions_text(text: str) -> list[Transaction]:
    """Parse the transaction file format: one transaction per line,
    space-separated decimal service ids, ``#`` lines ignored."""
    transactions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            items = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if any(i < 0 for i in items):
            raise ValueError(f"line {lineno}: service ids must be non-negative")
        transactions.append(frozenset(items))
    return transactions
