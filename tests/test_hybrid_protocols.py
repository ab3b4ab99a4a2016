"""Tests for the hybrid protocol runtimes (hybrid join, public join, hybrid aggregation)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.schema import ColumnDef, Schema
from repro.data.table import Table
from repro.exec.engine import ColumnarBackend
from repro.hybrid.hybrid_agg import hybrid_aggregate
from repro.hybrid.hybrid_join import hybrid_join
from repro.hybrid.public_join import public_join
from repro.hybrid.stp import LeakageReport, SelectivelyTrustedParty
from repro.model.prices import SharemindCostModel
from repro.mpc.sharemind import SharemindBackend
from repro.workloads.generators import uniform_key_value_table
from tests.conftest import PARTIES

STP_NAME = "stp.example"


@pytest.fixture
def backend():
    return SharemindBackend(PARTIES, seed=21)


@pytest.fixture
def stp():
    return SelectivelyTrustedParty(STP_NAME, ColumnarBackend())


def kv(rows, keys, seed):
    return uniform_key_value_table(rows, keys, seed=seed)


class TestHybridJoin:
    def test_matches_cleartext_join(self, backend, stp):
        left = kv(20, 6, seed=1)
        right = kv(15, 6, seed=2)
        result = hybrid_join(
            backend, stp, backend.ingest(left), backend.ingest(right), "key", "key"
        )
        expected = left.join(right, ["key"], ["key"])
        assert result.reveal().equals_unordered(expected)
        assert result.schema.names == expected.schema.names

    def test_empty_result(self, backend, stp):
        schema = Schema([ColumnDef("key"), ColumnDef("value")])
        left = Table.from_rows(schema, [(1, 10)])
        right = Table.from_rows(schema, [(2, 20)])
        result = hybrid_join(
            backend, stp, backend.ingest(left), backend.ingest(right), "key", "key"
        )
        assert result.num_rows == 0

    def test_leakage_records_key_reveal_and_cardinality(self, backend, stp):
        left, right = kv(10, 3, seed=3), kv(10, 3, seed=4)
        leakage = LeakageReport()
        hybrid_join(
            backend, stp, backend.ingest(left), backend.ingest(right), "key", "key", leakage
        )
        reveals = leakage.column_reveals_to(STP_NAME)
        assert len(reveals) == 1
        assert set(reveals[0].columns) == {"key"}
        assert len(leakage.cardinality_events()) == 1

    def test_stp_never_sees_value_columns(self, backend, stp):
        left, right = kv(10, 3, seed=5), kv(10, 3, seed=6)
        leakage = LeakageReport()
        hybrid_join(
            backend, stp, backend.ingest(left), backend.ingest(right), "key", "key", leakage
        )
        for event in leakage.column_reveals_to(STP_NAME):
            assert "value" not in event.columns

    def test_stp_hands_back_the_count_and_inputs_the_indices(self, backend):
        """A compute-party STP alone sees the keys; it hands back the match
        count, one int64, and its index relations enter as its private
        input, priced as Sharemind's input step of both index vectors and
        carrying nothing: the join's carried rounds are the key reveal, the
        hand-back and the opening of the indices."""
        stp = SelectivelyTrustedParty(PARTIES[0], ColumnarBackend())
        left, right = backend.ingest(kv(12, 4, seed=9)), backend.ingest(kv(10, 4, seed=10))
        network = backend.engine.network
        records, carried = backend.meter.input_records, len(network.schedule)
        result = hybrid_join(backend, stp, left, right, "key", "key")
        assert backend.meter.input_records - records == 2 * result.num_rows
        schedule = network.schedule[carried:]
        assert [tag for tag, _, _ in schedule] == ["reveal-share", "hand-back", "env-open"]
        assert schedule[1] == ("hand-back", len(PARTIES) - 1, 8 * (len(PARTIES) - 1))
        assert result.reveal().equals_unordered(
            kv(12, 4, seed=9).join(kv(10, 4, seed=10), ["key"], ["key"])
        )

    def test_stp_outside_the_mpc_needs_no_hand_back(self, backend, stp):
        """An STP that is no compute party is played by the environment:
        the keys open to every engine, and the count and indices need no
        round."""
        left, right = backend.ingest(kv(12, 4, seed=9)), backend.ingest(kv(10, 4, seed=10))
        network = backend.engine.network
        records, carried = backend.meter.input_records, len(network.schedule)
        result = hybrid_join(backend, stp, left, right, "key", "key")
        assert backend.meter.input_records - records == 2 * result.num_rows
        assert [tag for tag, _, _ in network.schedule[carried:]] == ["env-open", "env-open"]

    def test_cheaper_than_oblivious_join(self):
        # Near-unique keys, as in the credit-card query: the hybrid join's
        # O((n+m) log(n+m)) work beats the MPC join's O(n*m) comparisons.
        left, right = kv(60, 60, seed=7), kv(60, 60, seed=8)
        hybrid_backend = SharemindBackend(PARTIES, seed=1)
        helper = SelectivelyTrustedParty(STP_NAME, ColumnarBackend())
        hybrid_join(
            hybrid_backend, helper,
            hybrid_backend.ingest(left), hybrid_backend.ingest(right), "key", "key",
        )
        mpc_backend = SharemindBackend(PARTIES, seed=1)
        mpc_backend.join(mpc_backend.ingest(left), mpc_backend.ingest(right), "key", "key")
        assert hybrid_backend.meter.comparisons < mpc_backend.meter.comparisons
        assert (
            SharemindCostModel().work_seconds(hybrid_backend.meter)
            < SharemindCostModel().work_seconds(mpc_backend.meter)
        )

    @given(
        left_rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50)), min_size=1, max_size=10),
        right_rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50)), min_size=1, max_size=10),
    )
    @settings(max_examples=10, deadline=None)
    def test_equivalence_property(self, left_rows, right_rows):
        schema = Schema([ColumnDef("key"), ColumnDef("value")])
        left, right = Table.from_rows(schema, left_rows), Table.from_rows(schema, right_rows)
        backend = SharemindBackend(PARTIES, seed=9)
        stp = SelectivelyTrustedParty(STP_NAME, ColumnarBackend())
        result = hybrid_join(
            backend, stp, backend.ingest(left), backend.ingest(right), "key", "key"
        )
        assert result.reveal().equals_unordered(left.join(right, ["key"], ["key"]))


class TestPublicJoin:
    def test_matches_cleartext_join(self, backend, stp):
        left, right = kv(25, 8, seed=10), kv(20, 8, seed=11)
        result = public_join(
            backend, stp, backend.ingest(left), backend.ingest(right), "key", "key"
        )
        assert result.reveal().equals_unordered(left.join(right, ["key"], ["key"]))

    def test_requires_no_oblivious_operations(self, backend, stp):
        left, right = kv(25, 8, seed=12), kv(20, 8, seed=13)
        left_h, right_h = backend.ingest(left), backend.ingest(right)
        backend.meter.comparisons = 0
        backend.meter.shuffled_elements = 0
        public_join(backend, stp, left_h, right_h, "key", "key")
        assert backend.meter.comparisons == 0
        assert backend.meter.shuffled_elements == 0

    def test_leakage_mentions_host_and_cardinality(self, backend, stp):
        left, right = kv(10, 4, seed=14), kv(10, 4, seed=15)
        leakage = LeakageReport()
        public_join(
            backend, stp, backend.ingest(left), backend.ingest(right), "key", "key", leakage
        )
        assert leakage.column_reveals_to(STP_NAME)
        assert leakage.cardinality_events()


class TestHybridAggregate:
    def test_sum_matches_cleartext(self, backend, stp):
        table = kv(30, 5, seed=16)
        result = hybrid_aggregate(
            backend, stp, backend.ingest(table), "key", [("sum", "value", "total")]
        )
        assert result.reveal().equals_unordered(
            table.aggregate(["key"], "value", "sum", "total")
        )

    def test_count_matches_cleartext(self, backend, stp):
        table = kv(30, 5, seed=17)
        result = hybrid_aggregate(
            backend, stp, backend.ingest(table), "key", [("count", None, "cnt")]
        )
        assert result.reveal().equals_unordered(
            table.aggregate(["key"], None, "count", "cnt")
        )

    def test_unsupported_function_rejected(self, backend, stp):
        table = kv(5, 2, seed=18)
        with pytest.raises(ValueError):
            hybrid_aggregate(backend, stp, backend.ingest(table), "key", [("mean", "value", "m")])

    def test_empty_input(self, backend, stp):
        schema = Schema([ColumnDef("key"), ColumnDef("value")])
        result = hybrid_aggregate(
            backend, stp, backend.ingest(Table.empty(schema)), "key", [("sum", "value", "t")]
        )
        assert result.num_rows == 0

    def test_no_oblivious_comparisons_needed(self, backend, stp):
        table = kv(40, 6, seed=19)
        handle = backend.ingest(table)
        backend.meter.comparisons = 0
        hybrid_aggregate(backend, stp, handle, "key", [("sum", "value", "total")])
        assert backend.meter.comparisons == 0

    def test_cheaper_than_oblivious_aggregation(self):
        table = kv(40, 6, seed=20)
        hybrid_backend = SharemindBackend(PARTIES, seed=2)
        helper = SelectivelyTrustedParty(STP_NAME, ColumnarBackend())
        hybrid_aggregate(
            hybrid_backend, helper, hybrid_backend.ingest(table), "key", [("sum", "value", "t")]
        )
        mpc_backend = SharemindBackend(PARTIES, seed=2)
        mpc_backend.aggregate(mpc_backend.ingest(table), "key", [("sum", "value", "t")])
        assert (
            SharemindCostModel().work_seconds(hybrid_backend.meter)
            < SharemindCostModel().work_seconds(mpc_backend.meter)
        )

    def test_leakage_records_group_column_and_output_size(self, backend, stp):
        table = kv(20, 4, seed=21)
        leakage = LeakageReport()
        hybrid_aggregate(
            backend, stp, backend.ingest(table), "key", [("sum", "value", "t")], leakage
        )
        reveals = leakage.column_reveals_to(STP_NAME)
        assert reveals and reveals[0].columns == ("key",)
        assert leakage.cardinality_events()

    @given(
        rows=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 40)), min_size=1, max_size=14)
    )
    @settings(max_examples=10, deadline=None)
    def test_equivalence_property(self, rows):
        schema = Schema([ColumnDef("key"), ColumnDef("value")])
        table = Table.from_rows(schema, rows)
        backend = SharemindBackend(PARTIES, seed=31)
        stp = SelectivelyTrustedParty(STP_NAME, ColumnarBackend())
        result = hybrid_aggregate(
            backend, stp, backend.ingest(table), "key", [("sum", "value", "total")]
        )
        assert result.reveal().equals_unordered(
            table.aggregate(["key"], "value", "sum", "total")
        )


def one_group(n):
    return [(7, v) for v in range(n)]


class TestSharedAccumulationScan:
    """The hybrid aggregation runs the oblivious aggregation's own scan."""

    def test_wire_rounds_do_not_depend_on_row_count(self):
        wire_rounds = set()
        for n in (2, 64, 4096):
            backend = SharemindBackend(PARTIES, seed=5)
            handle = backend.ingest(kv(n, max(1, n // 8), seed=n))
            before = backend.meter.network.wire_rounds
            hybrid_aggregate(
                backend, SelectivelyTrustedParty(STP_NAME, ColumnarBackend()),
                handle, "key", [("sum", "value", "total")],
            )
            wire_rounds.add(backend.meter.network.wire_rounds - before)
        assert len(wire_rounds) == 1

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(-3, 3),
                st.one_of(st.integers(-40, 40), st.integers(-(2**63), 2**63 - 1)),
            ),
            min_size=1,
            max_size=24,
        ),
        func=st.sampled_from(["sum", "count"]),
    )
    @example(rows=[(0, -5)], func="sum")  # n = 1
    @example(rows=one_group(9), func="count")
    @example(rows=[(k, -k) for k in range(12)], func="sum")  # all-distinct keys
    @example(rows=[(1, 2**62), (1, 2**62), (1, 2**62), (2, -(2**62)), (2, -(2**62) - 1)], func="sum")
    @settings(max_examples=25, deadline=None)
    def test_hybrid_oblivious_and_cleartext_aggregation_agree(self, rows, func):
        schema = Schema([ColumnDef("key"), ColumnDef("value")])
        table = Table.from_rows(schema, rows)
        agg_col = None if func == "count" else "value"
        expected = table.aggregate(["key"], agg_col, func, "out")
        backend = SharemindBackend(PARTIES, seed=13)
        stp = SelectivelyTrustedParty(STP_NAME, ColumnarBackend())
        hybrid = hybrid_aggregate(
            backend, stp, backend.ingest(table), "key", [(func, agg_col, "out")]
        )
        oblivious = backend.aggregate(backend.ingest(table), "key", [(func, agg_col, "out")])
        assert hybrid.schema == oblivious.schema == expected.schema
        assert hybrid.reveal().equals_unordered(expected)
        assert oblivious.reveal().equals_unordered(expected)

    def test_twenty_thousand_rows_in_process(self, backend, stp):
        table = kv(20_000, 500, seed=22)
        result = hybrid_aggregate(
            backend, stp, backend.ingest(table), "key", [("sum", "value", "total")]
        )
        assert result.reveal().equals_unordered(
            table.aggregate(["key"], "value", "sum", "total")
        )


class TestLeakageReport:
    def test_summary_lists_all_events(self):
        report = LeakageReport()
        report.record("column_reveal", "rel_a", ["k"], ["p1"], "detail-1")
        report.record("cardinality", "rel_b", [], [], "42 rows")
        text = report.summary()
        assert "rel_a" in text and "rel_b" in text and "42 rows" in text
        assert len(report) == 2

    def test_filtering_helpers(self):
        report = LeakageReport()
        report.record("column_reveal", "rel", ["k"], ["p1"])
        report.record("column_reveal", "rel", ["k"], ["p2"])
        report.record("cardinality", "rel")
        assert len(report.column_reveals_to("p1")) == 1
        assert len(report.cardinality_events()) == 1
