"""Tests for the oblivious sub-protocols (shuffle, sort, merge, indexing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.oblivious import (
    oblivious_index,
    oblivious_merge,
    oblivious_shuffle,
    oblivious_sort,
)
from repro.mpc.secretshare import SecretSharingEngine


def share_columns(engine, *columns):
    return [engine.input_vector(np.array(col, dtype=np.int64)) for col in columns]


class TestShuffle:
    def test_preserves_multiset_and_row_alignment(self, engine):
        keys, values = share_columns(engine, [3, 1, 2, 5], [30, 10, 20, 50])
        out = oblivious_shuffle(engine, [keys, values], permutation=np.array([2, 0, 3, 1]))
        got = list(zip(out[0].reveal().tolist(), out[1].reveal().tolist()))
        assert sorted(got) == [(1, 10), (2, 20), (3, 30), (5, 50)]
        assert got == [(2, 20), (3, 30), (5, 50), (1, 10)]

    def test_random_shuffle_preserves_rows(self, engine):
        keys, values = share_columns(engine, list(range(20)), list(range(100, 120)))
        out = oblivious_shuffle(engine, [keys, values])
        got = sorted(zip(out[0].reveal().tolist(), out[1].reveal().tolist()))
        assert got == [(i, 100 + i) for i in range(20)]

    def test_shuffle_is_metered(self, engine):
        cols = share_columns(engine, [1, 2, 3], [4, 5, 6])
        before = engine.meter.shuffled_elements
        oblivious_shuffle(engine, cols)
        assert engine.meter.shuffled_elements == before + 6

    @pytest.mark.parametrize(
        "rows, permutation",
        [
            ([1, 2, 3], [0, 0, 1]),      # duplicate entry
            ([1, 2, 3], [0, 1, 3]),      # out of range
            ([1, 2, 3], [0, -1, 2]),     # out of range, negative
            ([1, 2, 3], [0, 1]),         # too short
            ([1, 2, 3], [0, 1, 2, 3]),   # too long
            ([1, 2, 3], [[0, 1, 2]]),    # wrong shape
            ([], [0]),                   # nothing to permute: used to pass unchecked
        ],
    )
    def test_invalid_permutation_rejected(self, engine, rows, permutation):
        cols = share_columns(engine, rows)
        with pytest.raises(ValueError, match="permutation of 0..n-1"):
            oblivious_shuffle(engine, cols, permutation=np.array(permutation))

    def test_empty_permutation_of_an_empty_relation(self, engine):
        cols = share_columns(engine, [])
        out = oblivious_shuffle(engine, cols, permutation=np.array([], dtype=np.int64))
        assert len(out[0]) == 0

    def test_empty_relation(self, engine):
        cols = share_columns(engine, [])
        out = oblivious_shuffle(engine, cols)
        assert len(out[0]) == 0

    def test_no_columns(self, engine):
        assert oblivious_shuffle(engine, []) == []


class TestSort:
    def test_sorts_key_and_carries_payload(self, engine):
        key, payload = share_columns(engine, [5, 1, 4, 2, 3], [50, 10, 40, 20, 30])
        skey, spayload = oblivious_sort(engine, key, [payload])
        assert skey.reveal().tolist() == [1, 2, 3, 4, 5]
        assert spayload[0].reveal().tolist() == [10, 20, 30, 40, 50]

    def test_handles_duplicate_keys(self, engine):
        key, payload = share_columns(engine, [2, 1, 2, 1], [1, 2, 3, 4])
        skey, spayload = oblivious_sort(engine, key, [payload])
        assert skey.reveal().tolist() == [1, 1, 2, 2]
        assert sorted(spayload[0].reveal().tolist()[:2]) == [2, 4]

    def test_non_power_of_two_sizes(self, engine):
        values = [9, 3, 7, 1, 5, 8, 2]
        key, = share_columns(engine, values)
        skey, _ = oblivious_sort(engine, key, [])
        assert skey.reveal().tolist() == sorted(values)

    def test_single_element_and_empty(self, engine):
        key, = share_columns(engine, [42])
        skey, _ = oblivious_sort(engine, key, [])
        assert skey.reveal().tolist() == [42]

    def test_sort_charges_comparisons(self, engine):
        key, = share_columns(engine, [4, 3, 2, 1])
        before = engine.meter.comparisons
        oblivious_sort(engine, key, [])
        assert engine.meter.comparisons > before

    @given(values=st.lists(st.integers(-1000, 1000), min_size=2, max_size=24))
    @settings(max_examples=25, deadline=None)
    def test_sort_matches_sorted_property(self, values):
        engine = SecretSharingEngine(["a", "b", "c"], seed=3)
        key = engine.input_vector(np.array(values, dtype=np.int64))
        skey, _ = oblivious_sort(engine, key, [])
        assert skey.reveal().tolist() == sorted(values)


class TestMerge:
    def test_merges_sorted_runs(self, engine):
        k1, v1 = share_columns(engine, [1, 3, 5], [10, 30, 50])
        k2, v2 = share_columns(engine, [2, 4, 6], [20, 40, 60])
        key, payload = oblivious_merge(engine, [(k1, [v1]), (k2, [v2])])
        assert key.reveal().tolist() == [1, 2, 3, 4, 5, 6]
        assert payload[0].reveal().tolist() == [10, 20, 30, 40, 50, 60]

    def test_merge_cheaper_than_sort(self, engine):
        values = list(range(32))
        k1, = share_columns(engine, values[:16])
        k2, = share_columns(engine, values[16:])
        merge_engine = SecretSharingEngine(["a", "b", "c"], seed=1)
        mk1 = merge_engine.input_vector(np.array(values[:16], dtype=np.int64))
        mk2 = merge_engine.input_vector(np.array(values[16:], dtype=np.int64))
        oblivious_merge(merge_engine, [(mk1, []), (mk2, [])])
        merge_cost = merge_engine.meter.comparisons

        sort_engine = SecretSharingEngine(["a", "b", "c"], seed=1)
        key = sort_engine.input_vector(np.array(values, dtype=np.int64))
        oblivious_sort(sort_engine, key, [])
        sort_cost = sort_engine.meter.comparisons
        assert merge_cost < sort_cost

    def test_mismatched_payload_width_rejected(self, engine):
        k1, v1 = share_columns(engine, [1], [2])
        k2, = share_columns(engine, [3])
        with pytest.raises(ValueError):
            oblivious_merge(engine, [(k1, [v1]), (k2, [])])

    def test_empty_run_list_rejected(self, engine):
        with pytest.raises(ValueError):
            oblivious_merge(engine, [])


class TestObliviousIndex:
    def test_selects_rows_at_secret_indices(self, engine):
        col1, col2 = share_columns(engine, [10, 20, 30, 40], [1, 2, 3, 4])
        idx = engine.input_vector(np.array([2, 0], dtype=np.int64))
        out = oblivious_index(engine, [col1, col2], engine.env_open(idx))
        assert out[0].reveal().tolist() == [30, 10]
        assert out[1].reveal().tolist() == [3, 1]

    def test_duplicate_indices_allowed(self, engine):
        col, = share_columns(engine, [7, 8, 9])
        idx = engine.input_vector(np.array([1, 1, 1], dtype=np.int64))
        out = oblivious_index(engine, [col], engine.env_open(idx))
        assert out[0].reveal().tolist() == [8, 8, 8]

    def test_out_of_range_index_rejected(self, engine):
        col, = share_columns(engine, [7, 8])
        idx = engine.input_vector(np.array([5], dtype=np.int64))
        with pytest.raises(IndexError):
            oblivious_index(engine, [col], engine.env_open(idx))

    def test_cost_is_loglinear_not_quadratic(self, engine):
        col, = share_columns(engine, list(range(64)))
        idx = engine.input_vector(np.arange(64, dtype=np.int64))
        before = engine.meter.comparisons
        oblivious_index(engine, [col], engine.env_open(idx))
        cost = engine.meter.comparisons - before
        assert cost < 64 * 64  # far below the quadratic MPC-join cost
        assert cost >= 128  # but not free: (n+m) log(n+m) lower bound
