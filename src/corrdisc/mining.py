"""Frequent-itemset mining over logged service sessions.

Transactions are sets of integer service ids.  ``mine_frequent_itemsets``
implements FP-Growth (prefix-tree compression, conditional pattern bases,
no candidate generation); ``brute_force_frequent_itemsets`` is the
independent oracle that enumerates every subset of the item universe and
counts containment directly.  Both return exact support counts.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations
from typing import Iterable, Mapping, Sequence

ServiceId = int
Transaction = frozenset[ServiceId]
ItemsetCounts = dict[frozenset[ServiceId], int]

# Mining over fewer sessions than this is noise; callers feed the
# prediction layer an empty itemset collection instead.
MIN_MINING_TRANSACTIONS = 3

# Guard for the exponential oracle.
MAX_ORACLE_UNIVERSE = 20


def min_count(fraction: float, n_transactions: int) -> int:
    """Absolute support count implied by a fractional threshold.

    ceil(fraction * n), floored at 1.  The product is rounded to 9
    decimals first so float dust (0.8 * 5 -> 4.000000000000001) cannot
    bump the ceiling.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"support fraction must be in (0, 1], got {fraction}")
    return max(1, math.ceil(round(fraction * n_transactions, 9)))


class FPNode:
    """One prefix-tree node: an item, its path count, and tree links."""

    __slots__ = ("item", "count", "parent", "children")

    def __init__(self, item: ServiceId | None, parent: "FPNode | None"):
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: dict[ServiceId, FPNode] = {}


class FPTree:
    """Prefix tree plus header table.

    ``header`` maps each frequent item to the list of tree nodes carrying
    it, keyed in descending global frequency (ties by ascending id) --
    the same order items take along any root-to-leaf path.
    ``item_counts`` holds the global transaction frequency of each
    frequent item.
    """

    __slots__ = ("root", "header", "item_counts")

    def __init__(self, root: FPNode, header: dict[ServiceId, list[FPNode]],
                 item_counts: dict[ServiceId, int]):
        self.root = root
        self.header = header
        self.item_counts = item_counts


def _build_tree(weighted: Iterable[tuple[Iterable[ServiceId], int]],
                threshold: int) -> FPTree:
    counts: Counter[ServiceId] = Counter()
    weighted = list(weighted)
    for items, weight in weighted:
        for item in items:
            counts[item] += weight
    frequent = {i: c for i, c in counts.items() if c >= threshold}
    order = sorted(frequent, key=lambda i: (-frequent[i], i))
    rank = {item: r for r, item in enumerate(order)}
    header: dict[ServiceId, list[FPNode]] = {item: [] for item in order}

    root = FPNode(None, None)
    for items, weight in weighted:
        path = sorted((i for i in items if i in rank), key=rank.__getitem__)
        node = root
        for item in path:
            child = node.children.get(item)
            if child is None:
                child = FPNode(item, node)
                node.children[item] = child
                header[item].append(child)
            child.count += weight
            node = child
    return FPTree(root, header, frequent)


def build_fp_tree(transactions: Sequence[Transaction], min_count: int) -> FPTree:
    """Build the prefix tree for a transaction list.

    Only items with global frequency >= ``min_count`` enter the tree; each
    transaction's surviving items are inserted in descending (frequency,
    then ascending id) order so shared prefixes merge.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    return _build_tree(((t, 1) for t in transactions), min_count)


def _mine_tree(tree: FPTree, threshold: int, suffix: frozenset[ServiceId],
               out: ItemsetCounts) -> None:
    for item in reversed(tree.header):
        chain = tree.header[item]
        support = sum(node.count for node in chain)
        itemset = suffix | {item}
        out[itemset] = support
        # Conditional pattern base: the prefix path of every node
        # carrying `item`, weighted by that node's count.
        base = []
        for node in chain:
            path = []
            parent = node.parent
            while parent is not None and parent.item is not None:
                path.append(parent.item)
                parent = parent.parent
            if path:
                base.append((path, node.count))
        if base:
            _mine_tree(_build_tree(base, threshold), threshold, itemset, out)


def mine_frequent_itemsets(transactions: Sequence[Transaction],
                           support: float) -> ItemsetCounts:
    """All itemsets appearing in at least ceil(support * len(transactions))
    transactions, mapped to their exact support counts.

    Empty input yields an empty result.  Singletons are included; the
    empty itemset is not.
    """
    if not transactions:
        return {}
    threshold = min_count(support, len(transactions))
    out: ItemsetCounts = {}
    _mine_tree(build_fp_tree(transactions, threshold), threshold, frozenset(), out)
    return out


def brute_force_frequent_itemsets(transactions: Sequence[Transaction],
                                  support: float) -> ItemsetCounts:
    """Oracle with the same contract as ``mine_frequent_itemsets``.

    Enumerates every non-empty subset of the item universe and counts
    containment directly; rejects universes larger than
    ``MAX_ORACLE_UNIVERSE`` items.
    """
    if not transactions:
        return {}
    universe = sorted(set().union(*transactions))
    if len(universe) > MAX_ORACLE_UNIVERSE:
        raise ValueError(
            f"oracle universe limited to {MAX_ORACLE_UNIVERSE} items, got {len(universe)}")
    threshold = min_count(support, len(transactions))
    out: ItemsetCounts = {}
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            items = frozenset(combo)
            count = sum(1 for t in transactions if items <= t)
            if count >= threshold:
                out[items] = count
    return out


def rank_related(service: ServiceId,
                 itemsets: Mapping[frozenset[ServiceId], int]) -> list[ServiceId]:
    """Related services ordered by strongest supporting itemset.

    Ties break toward the lower service id.
    """
    best: dict[ServiceId, int] = {}
    for items, count in itemsets.items():
        if service not in items:
            continue
        for other in items:
            if other != service and count > best.get(other, -1):
                best[other] = count
    return sorted(best, key=lambda b: (-best[b], b))


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
