import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdisc.mining import (MAX_ORACLE_UNIVERSE, brute_force_frequent_itemsets,
                             min_count, mine_frequent_itemsets,
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


# The scale of the mine_heavy benchmark logs: up to 48 closed sessions
# over 16 services, so transaction masks are wide and itemsets long.
@settings(max_examples=25, deadline=None)
@given(st.lists(st.frozensets(st.integers(min_value=0, max_value=15), min_size=1,
                              max_size=16),
                min_size=1, max_size=48),
       st.sampled_from([0.3, 0.5, 0.8]))
def test_miner_matches_oracle_at_benchmark_scale(txns, support):
    assert mine_frequent_itemsets(txns, support) == \
        brute_force_frequent_itemsets(txns, support)


def ranked_by_pair_counts(service, txns, support):
    """The services that share at least the support count of transactions
    with ``service``, by that count descending, then by id: counted
    straight from the transactions."""
    pairs = Counter(other for t in txns if service in t for other in t - {service})
    threshold = min_count(support, len(txns))
    return sorted((o for o in pairs if pairs[o] >= threshold), key=lambda o: (-pairs[o], o))


@settings(max_examples=300, deadline=None)
@given(st.one_of(transactions_st,
                 st.lists(st.frozensets(st.integers(min_value=0, max_value=15),
                                        min_size=1, max_size=16),
                          min_size=1, max_size=48)),
       st.sampled_from([0.1, 0.3, 0.5, 0.8, 1.0]))
def test_pair_ranking_equals_pair_counts_of_the_transactions(txns, support):
    mined = mine_frequent_itemsets(txns, support)
    for service in range(17):   # 16 is never in a transaction
        assert rank_related(service, mined) == ranked_by_pair_counts(service, txns, support)


# -- transaction file parsing ---------------------------------------------------

def test_parse_transactions_text():
    text = "# comment\n1 2 3\n\n4\n  # indented comment\n2 2\n"
    assert parse_transactions_text(text) == [fs(1, 2, 3), fs(4), fs(2)]


def test_parse_transactions_rejects_garbage():
    with pytest.raises(ValueError, match="line 2"):
        parse_transactions_text("1 2\n1 x\n")
    with pytest.raises(ValueError, match="non-negative"):
        parse_transactions_text("-3\n")
