import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdisc.mining import (MAX_ORACLE_UNIVERSE, brute_force_frequent_itemsets,
                             build_fp_tree, min_count, mine_frequent_itemsets,
                             parse_transactions_text, rank_related)


def fs(*items):
    return frozenset(items)


# -- support threshold ----------------------------------------------------

def test_min_count_ceiling():
    assert min_count(0.8, 3) == 3     # ceil(2.4)
    assert min_count(0.6, 3) == 2     # ceil(1.8)
    assert min_count(1.0, 4) == 4
    assert min_count(0.2, 1) == 1     # floor at 1


def test_min_count_float_dust():
    # 0.8 * 5 evaluates above 4.0 in binary; the ceiling must stay 4.
    for m in range(1, 100):
        for frac in (0.2, 0.4, 0.6, 0.8, 1.0):
            exact = math.ceil(round(frac * m, 9))
            assert min_count(frac, m) == max(1, exact)
    assert min_count(0.8, 5) == 4
    assert min_count(0.2, 5) == 1


def test_min_count_rejects_bad_fraction():
    with pytest.raises(ValueError):
        min_count(0.0, 3)
    with pytest.raises(ValueError):
        min_count(1.2, 3)


# -- tree construction -----------------------------------------------------

def test_build_fp_tree_empty():
    tree = build_fp_tree([], 1)
    assert tree.root.children == {}
    assert tree.header == {}


def test_build_fp_tree_single_transaction():
    tree = build_fp_tree([fs(1, 2)], 1)
    # Tie on frequency 1 broken by ascending id: path 1 -> 2.
    assert list(tree.root.children) == [1]
    n1 = tree.root.children[1]
    assert n1.count == 1
    assert list(n1.children) == [2]
    assert n1.children[2].count == 1


def test_build_fp_tree_shared_prefix():
    tree = build_fp_tree([fs(1, 2), fs(1, 3)], 1)
    n1 = tree.root.children[1]
    assert n1.count == 2
    assert sorted(n1.children) == [2, 3]
    assert n1.children[2].count == 1
    assert n1.children[3].count == 1
    # Oracle cross-check on per-item counts.
    oracle = brute_force_frequent_itemsets([fs(1, 2), fs(1, 3)], 0.1)
    assert oracle[fs(1)] == 2 and oracle[fs(2)] == 1 and oracle[fs(3)] == 1


def test_build_fp_tree_filters_infrequent():
    tree = build_fp_tree([fs(1, 2), fs(1, 3)], 2)
    assert list(tree.header) == [1]
    assert list(tree.root.children) == [1]
    assert tree.root.children[1].children == {}


# -- mining ------------------------------------------------------------------

def test_mine_spec_example_high_support():
    got = mine_frequent_itemsets([fs(1, 2), fs(1, 2), fs(1, 3)], 0.8)
    assert got == {fs(1): 3}


def test_mine_spec_example_mid_support():
    got = mine_frequent_itemsets([fs(1, 2, 3), fs(1, 2), fs(1, 2)], 0.6)
    assert got == {fs(1): 3, fs(2): 3, fs(1, 2): 3}


def test_mine_empty_input():
    assert mine_frequent_itemsets([], 0.8) == {}


def test_brute_force_examples():
    assert brute_force_frequent_itemsets([fs(1)], 1.0) == {fs(1): 1}
    assert brute_force_frequent_itemsets([fs(1, 2), fs(1, 2), fs(1, 3)], 0.8) == {fs(1): 3}
    assert brute_force_frequent_itemsets([fs(1), fs(2)], 1.0) == {}


def test_brute_force_universe_guard():
    txns = [frozenset(range(MAX_ORACLE_UNIVERSE + 1))]
    with pytest.raises(ValueError):
        brute_force_frequent_itemsets(txns, 1.0)


# -- related services ----------------------------------------------------------

def test_rank_related_order():
    itemsets = {fs(1, 2): 3, fs(1, 3): 5, fs(1, 4): 5}
    # 3 and 4 tie on support 5 -> ascending id; 2 trails on support 3.
    assert rank_related(1, itemsets) == [3, 4, 2]


# -- property tests against the oracle ----------------------------------------

transactions_st = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
    min_size=0, max_size=8)
support_st = st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0])


@settings(max_examples=300, deadline=None)
@given(transactions_st, support_st)
def test_fp_growth_matches_oracle(txns, support):
    assert mine_frequent_itemsets(txns, support) == \
        brute_force_frequent_itemsets(txns, support)


@settings(max_examples=200, deadline=None)
@given(transactions_st, support_st)
def test_downward_closure_and_exactness(txns, support):
    mined = mine_frequent_itemsets(txns, support)
    for items, count in mined.items():
        # Exact recount over the input.
        assert count == sum(1 for t in txns if items <= t)
        for item in items:
            subset = items - {item}
            if subset:
                assert subset in mined
                assert mined[subset] >= count


@settings(max_examples=200, deadline=None)
@given(transactions_st, st.integers(min_value=1, max_value=5))
def test_tree_invariants(txns, threshold):
    tree = build_fp_tree(txns, threshold)
    # Header keys in descending (frequency, ascending id) order; chains
    # conserve each item's global frequency.
    keys = list(tree.header)
    ranks = [(-tree.item_counts[i], i) for i in keys]
    assert ranks == sorted(ranks)
    for item, chain in tree.header.items():
        assert sum(node.count for node in chain) == tree.item_counts[item]
    # Path order strictly follows the insertion key; child counts never
    # exceed the parent's.
    def walk(node):
        child_sum = 0
        for item, child in node.children.items():
            if node.item is not None:
                assert (-tree.item_counts[node.item], node.item) < \
                    (-tree.item_counts[item], item)
            child_sum += child.count
            walk(child)
        if node.item is not None:
            assert node.count >= child_sum
    walk(tree.root)


def test_mining_is_deterministic_over_item_order():
    rng = random.Random(7)
    for _ in range(50):
        txns = [frozenset(rng.sample(range(6), rng.randint(1, 5)))
                for _ in range(rng.randint(1, 8))]
        a = mine_frequent_itemsets(txns, 0.4)
        b = mine_frequent_itemsets(list(reversed(txns)), 0.4)
        # Same multiset of transactions (reversed order) -> same itemsets.
        assert a == b


# -- transaction file parsing ---------------------------------------------------

def test_parse_transactions_text():
    text = "# comment\n1 2 3\n\n4\n  # indented comment\n2 2\n"
    assert parse_transactions_text(text) == [fs(1, 2, 3), fs(4), fs(2)]


def test_parse_transactions_rejects_garbage():
    with pytest.raises(ValueError, match="line 2"):
        parse_transactions_text("1 2\n1 x\n")
    with pytest.raises(ValueError, match="non-negative"):
        parse_transactions_text("-3\n")
