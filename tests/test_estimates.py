"""Tests that the analytic cost formulas track the functional protocols.

The benchmark harness extrapolates large-scale runtimes from the formulas in
``repro.mpc.estimates``; these tests pin the formulas to the actual counts
the functional protocols record for small inputs, so the extrapolations stay
honest as the code evolves.
"""

import numpy as np
import pytest

from repro.data.schema import ColumnDef, Schema
from repro.data.table import Table
from repro.exec.engine import ColumnarBackend
from repro.hybrid import SelectivelyTrustedParty, hybrid_aggregate, hybrid_join
from repro.mpc import estimates, protocols
from repro.mpc.oblivious import oblivious_shuffle, oblivious_sort
from repro.mpc.protocols import SharedTable
from repro.mpc.secretshare import SecretSharingEngine
from repro.mpc.sharemind import SharemindBackend
from tests.conftest import PARTIES


def fresh_engine():
    return SecretSharingEngine(PARTIES, seed=42)


def shared_kv(engine, n, keys=3):
    rng = np.random.default_rng(0)
    schema = Schema([ColumnDef("key"), ColumnDef("value")])
    table = Table(schema, [rng.integers(0, keys, n), rng.integers(0, 100, n)])
    return table, SharedTable.from_table(engine, table)


def fresh_stp():
    return SelectivelyTrustedParty("stp.example", ColumnarBackend())


def counted(meter):
    """The counters an analytic formula must share with the execution."""
    return dict(
        multiplications=meter.multiplications,
        comparisons=meter.comparisons,
        shuffled_elements=meter.shuffled_elements,
        input_records=meter.input_records,
        output_records=meter.output_records,
        local_ops=meter.local_ops,
        messages=meter.network.messages,
        rounds=meter.network.rounds,
    )


class TestComparatorCounts:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 16, 33])
    def test_bitonic_comparator_count_matches_execution(self, n):
        engine = fresh_engine()
        key = engine.input_vector(np.arange(n, dtype=np.int64)[::-1].copy())
        before = engine.meter.comparisons
        oblivious_sort(engine, key, [])
        measured = engine.meter.comparisons - before
        assert measured == estimates.bitonic_comparator_count(n)

    def test_counts_grow_loglinearly(self):
        small = estimates.bitonic_comparator_count(1024)
        large = estimates.bitonic_comparator_count(2048)
        # doubling n should far less than quadruple the comparator count
        assert large < 3 * small

    def test_degenerate_sizes(self):
        assert estimates.bitonic_comparator_count(0) == 0
        assert estimates.bitonic_comparator_count(1) == 0
        assert estimates.bitonic_merge_comparator_count(1) == 0


class TestMeterFormulas:
    def test_shuffle_meter_matches_execution(self):
        engine = fresh_engine()
        _, shared = shared_kv(engine, 10)
        engine.meter.reset()
        engine.network.reset_stats()
        oblivious_shuffle(engine, shared.columns)
        expected = estimates.shuffle_meter(10, 2, num_parties=3)
        assert engine.meter.shuffled_elements == expected.shuffled_elements
        assert engine.network.stats.rounds == expected.network.rounds

    def test_join_meter_comparisons_match_execution(self):
        engine = fresh_engine()
        left_table, left = shared_kv(engine, 6)
        right_table, right = shared_kv(engine, 5)
        engine.meter.reset()
        protocols.mpc_join(left, right, "key", "key")
        expected = estimates.join_meter(6, 5, 3, num_parties=3)
        assert engine.meter.comparisons == expected.comparisons

    def test_aggregate_meter_comparisons_match_execution(self):
        engine = fresh_engine()
        _, shared = shared_kv(engine, 9)
        engine.meter.reset()
        protocols.mpc_aggregate(shared, "key", "value", "sum", "total")
        expected = estimates.aggregate_meter(9, num_parties=3)
        assert engine.meter.comparisons == expected.comparisons

    def test_hybrid_aggregate_meter_matches_execution(self):
        backend, stp = SharemindBackend(PARTIES, seed=42), fresh_stp()
        table, shared = shared_kv(backend.engine, 64, keys=7)
        backend.meter.reset()
        result = hybrid_aggregate(backend, stp, shared, "key", "value", "sum", "total")
        expected = estimates.hybrid_aggregate_meter(64, result.num_rows, num_parties=3)
        assert counted(backend.meter) == counted(expected)

    def test_hybrid_join_meter_matches_execution(self):
        backend, stp = SharemindBackend(PARTIES, seed=42), fresh_stp()
        _, left = shared_kv(backend.engine, 64, keys=40)
        _, right = shared_kv(backend.engine, 48, keys=40)
        backend.meter.reset()
        result = hybrid_join(backend, stp, left, right, "key", "key")
        expected = estimates.hybrid_join_meter(64, 48, result.num_rows, 2, 2, num_parties=3)
        assert counted(backend.meter) == counted(expected)

    def test_scalar_aggregate_is_linear_and_cheap(self):
        meter = estimates.aggregate_meter(1000, scalar=True)
        assert meter.comparisons == 0
        assert meter.multiplications == 0
        assert meter.local_ops == 1000

    def test_presorted_aggregate_cheaper(self):
        sorted_meter = estimates.aggregate_meter(1000, presorted=True)
        unsorted_meter = estimates.aggregate_meter(1000, presorted=False)
        assert sorted_meter.comparisons < unsorted_meter.comparisons

    def test_share_and_reveal_meters(self):
        share = estimates.share_input_meter(100, 2, num_parties=3)
        reveal = estimates.reveal_meter(100, 2, num_parties=3)
        assert share.input_records == 200
        assert reveal.output_records == 200
        assert share.network.bytes_sent > 0
        assert reveal.network.bytes_sent > 0


class TestAsymptoticRelationships:
    def test_hybrid_join_beats_mpc_join_asymptotically(self):
        n = 50_000
        mpc = estimates.join_meter(n, n, 4)
        hybrid = estimates.hybrid_join_meter(n, n, n, 2, 3)
        assert hybrid.comparisons < mpc.comparisons / 100

    def test_hybrid_aggregate_beats_mpc_aggregate(self):
        n = 50_000
        mpc = estimates.aggregate_meter(n)
        hybrid = estimates.hybrid_aggregate_meter(n, n // 10)
        assert hybrid.comparisons < mpc.comparisons / 10

    def test_oblivious_index_is_loglinear(self):
        n = 10_000
        meter = estimates.oblivious_index_meter(n, n, 1)
        assert meter.comparisons < n * n / 100
        assert meter.comparisons >= 2 * n

    def test_merge_cheaper_than_sort(self):
        n = 4096
        assert (
            estimates.bitonic_merge_comparator_count(n)
            < estimates.bitonic_comparator_count(n) / 2
        )

    def test_filter_meter_linear(self):
        small = estimates.filter_meter(1_000, 2)
        large = estimates.filter_meter(10_000, 2)
        assert 8 <= large.comparisons / small.comparisons <= 12


class TestCostMeter:
    def test_merge_accumulates_all_fields(self):
        a = estimates.share_input_meter(10, 1)
        b = estimates.reveal_meter(5, 1)
        a.merge(b)
        assert a.input_records == 10
        assert a.output_records == 5
        assert a.network.rounds == 2

    def test_copy_is_independent(self):
        a = estimates.share_input_meter(10, 1)
        b = a.copy()
        b.input_records += 5
        b.network.rounds += 1
        assert a.input_records == 10
        assert a.network.rounds == 1

    def test_reset(self):
        a = estimates.join_meter(10, 10, 3)
        a.reset()
        assert a.comparisons == 0
        assert a.network.bytes_sent == 0
