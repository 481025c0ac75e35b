import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdisc.mining import (MAX_ORACLE_UNIVERSE, brute_force_frequent_itemsets,
                             min_count, mine_frequent_itemsets,
                             parse_transactions_text, rank_related)
from trace_audit import ranked_by_pair_counts


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


# Bad arguments are refused whether or not there is anything to mine.
@pytest.mark.parametrize("txns", [[], [fs(1)]], ids=["empty", "one"])
@pytest.mark.parametrize("mine", [
    lambda txns: mine_frequent_itemsets(txns, 2.0),
    lambda txns: mine_frequent_itemsets(txns, 0.0),
    lambda txns: mine_frequent_itemsets(txns, float("nan")),
    lambda txns: mine_frequent_itemsets(txns, 0.5, max_size=0),
    lambda txns: brute_force_frequent_itemsets(txns, 2.0),
    lambda txns: brute_force_frequent_itemsets(txns, float("nan")),
], ids=["miner-above-1", "miner-zero", "miner-nan", "miner-max-size-0",
        "oracle-above-1", "oracle-nan"])
def test_mining_refuses_bad_arguments(mine, txns):
    with pytest.raises(ValueError):
        mine(txns)


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
    masks = {1: 0b11111, 2: 0b00111, 3: 0b11111, 4: 0b11111, 5: 0b00001, 6: 0b11100}
    # 3 and 4 tie on count 5 -> ascending id; 2 and 6 trail on count 3;
    # 5 shares one transaction only, below the threshold of 2.
    assert rank_related(1, masks, 2) == [3, 4, 2, 6]
    assert rank_related(1, masks, 4) == [3, 4]
    assert rank_related(5, masks, 2) == []   # 5 itself is below the threshold
    assert rank_related(7, masks, 1) == []   # 7 is in no transaction


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
benchmark_scale_st = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=15), min_size=1, max_size=16),
    min_size=1, max_size=48)


@settings(max_examples=25, deadline=None)
@given(benchmark_scale_st, st.sampled_from([0.3, 0.5, 0.8]))
def test_miner_matches_oracle_at_benchmark_scale(txns, support):
    assert mine_frequent_itemsets(txns, support) == \
        brute_force_frequent_itemsets(txns, support)


def masks_of(txns, bits):
    """Vertical bitsets of ``txns``, transaction ``t`` on bit ``bits[t]``."""
    masks = {}
    for items, bit in zip(txns, bits):
        for item in items:
            masks[item] = masks.get(item, 0) | 1 << bit
    return masks


@settings(max_examples=60, deadline=None)
@given(st.one_of(transactions_st, benchmark_scale_st), st.sampled_from([0.3, 0.5, 0.8]),
       st.randoms(use_true_random=False))
def test_truncated_mining_equals_the_filtered_oracle(txns, support, rng):
    # Masks as a LogDatabase keeps them: each transaction's bit is the slot
    # it happens to hold in the ring, not its index in the snapshot.
    masks = masks_of(txns, rng.sample(range(64), len(txns)))
    full = brute_force_frequent_itemsets(txns, support)
    for max_size in (1, 2, 3):
        expected = {items: c for items, c in full.items() if len(items) <= max_size}
        assert mine_frequent_itemsets(txns, support, max_size=max_size) == expected
        assert mine_frequent_itemsets(txns, support, masks, max_size) == expected


@settings(max_examples=300, deadline=None)
@given(st.one_of(transactions_st, benchmark_scale_st),
       st.sampled_from([0.1, 0.3, 0.5, 0.8, 1.0]), st.randoms(use_true_random=False))
def test_pair_ranking_equals_pair_counts_of_the_transactions(txns, support, rng):
    # Masks by snapshot position, and with the slot bits a LogDatabase's
    # ring would give them.
    threshold = min_count(support, len(txns))
    for masks in (masks_of(txns, range(len(txns))),
                  masks_of(txns, rng.sample(range(64), len(txns)))):
        for service in range(17):   # 16 is never in a transaction
            expected = ranked_by_pair_counts(service, txns, support)
            assert rank_related(service, masks, threshold) == expected


# -- transaction file parsing ---------------------------------------------------

def test_parse_transactions_text():
    text = "# comment\n1 2 3\n\n4\n  # indented comment\n2 2\n"
    assert parse_transactions_text(text) == [fs(1, 2, 3), fs(4), fs(2)]


def test_parse_transactions_rejects_garbage():
    with pytest.raises(ValueError, match="line 2"):
        parse_transactions_text("1 2\n1 x\n")
    with pytest.raises(ValueError, match="non-negative"):
        parse_transactions_text("-3\n")
