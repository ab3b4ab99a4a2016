"""Tests for the oblivious relational operators over secret-shared tables."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table
from repro.exec.engine import ColumnarBackend
from repro.hybrid import SelectivelyTrustedParty, hybrid_agg
from repro.mpc import protocols
from repro.mpc.network import Network
from repro.mpc.protocols import SharedTable
from repro.mpc.secretshare import AdditiveSharing, SecretSharingEngine
from repro.mpc.sharemind import SharemindBackend
from test_differential import NUM_PLANS, SEED, generate_spec, run_spec
from tests.conftest import PARTIES, make_table


def share(engine, table):
    return SharedTable.from_table(engine, table)


class TestShareAndReveal:
    def test_roundtrip(self, engine, kv_table):
        shared = share(engine, kv_table)
        assert shared.reveal() == kv_table

    def test_roundtrip_float_columns(self, engine):
        table = make_table({"x": [1.25, -2.5, 0.0]}, float_cols={"x"})
        shared = share(engine, table)
        assert np.allclose(shared.reveal().column("x"), [1.25, -2.5, 0.0])

    def test_reveal_to_single_party(self, engine, kv_table):
        shared = share(engine, kv_table)
        revealed = shared.reveal_to(PARTIES[1])
        assert revealed == kv_table

    def test_schema_width_mismatch_rejected(self, engine, kv_table):
        shared = share(engine, kv_table)
        with pytest.raises(ValueError):
            SharedTable(engine, kv_table.schema, shared.columns[:1])


class TestProjectConcat:
    def test_project(self, engine, kv_table):
        shared = share(engine, kv_table)
        projected = protocols.mpc_project(shared, ["value"])
        assert projected.reveal() == kv_table.project(["value"])

    def test_concat(self, engine, kv_table, other_kv_table):
        a, b = share(engine, kv_table), share(engine, other_kv_table)
        combined = protocols.mpc_concat([a, b])
        assert combined.reveal().equals_unordered(kv_table.concat(other_kv_table))

    def test_concat_incompatible_schemas_rejected(self, engine, kv_table):
        other = make_table({"a": [1]})
        with pytest.raises(ValueError):
            protocols.mpc_concat([share(engine, kv_table), share(engine, other)])

    def test_concat_across_engines_rejected(self, engine, kv_table):
        other_engine = SecretSharingEngine(["x", "y"], seed=0)
        with pytest.raises(ValueError):
            protocols.mpc_concat([share(engine, kv_table), share(other_engine, kv_table)])


class TestFilterSort:
    @pytest.mark.parametrize("op,value", [("==", 1), ("!=", 1), ("<", 3), (">", 2), ("<=", 2), (">=", 3)])
    def test_filter_matches_cleartext(self, engine, kv_table, op, value):
        shared = share(engine, kv_table)
        result = protocols.mpc_filter(shared, "key", op, value)
        assert result.reveal().equals_unordered(kv_table.filter("key", op, value))

    def test_filter_unknown_op_rejected(self, engine, kv_table):
        with pytest.raises(ValueError):
            protocols.mpc_filter(share(engine, kv_table), "key", "~", 1)

    def test_sort_matches_cleartext(self, engine, kv_table):
        shared = share(engine, kv_table)
        result = protocols.mpc_sort(shared, "value")
        assert result.reveal() == kv_table.sort_by(["value"])

    def test_sort_descending(self, engine, kv_table):
        shared = share(engine, kv_table)
        result = protocols.mpc_sort(shared, "value", ascending=False)
        assert result.reveal() == kv_table.sort_by(["value"], ascending=False)


class TestJoin:
    def test_join_matches_cleartext(self, engine, kv_table, other_kv_table):
        left, right = share(engine, kv_table), share(engine, other_kv_table)
        joined = protocols.mpc_join(left, right, "key", "key")
        expected = kv_table.join(other_kv_table, ["key"], ["key"])
        assert joined.reveal().equals_unordered(expected)
        assert joined.schema.names == expected.schema.names

    def test_join_cost_is_quadratic_comparisons(self, engine, kv_table, other_kv_table):
        left, right = share(engine, kv_table), share(engine, other_kv_table)
        before = engine.meter.comparisons
        protocols.mpc_join(left, right, "key", "key")
        assert engine.meter.comparisons - before >= kv_table.num_rows * other_kv_table.num_rows

    def test_join_empty_side(self, engine, kv_table, kv_schema):
        left = share(engine, kv_table)
        right = share(engine, Table.empty(kv_schema))
        joined = protocols.mpc_join(left, right, "key", "key")
        assert joined.num_rows == 0

    def test_join_across_engines_rejected(self, engine, kv_table):
        other_engine = SecretSharingEngine(["x", "y"], seed=0)
        with pytest.raises(ValueError):
            protocols.mpc_join(share(engine, kv_table), share(other_engine, kv_table), "key", "key")


class TestAggregate:
    def test_grouped_sum_matches_cleartext(self, engine, kv_table):
        shared = share(engine, kv_table)
        result = protocols.mpc_aggregate(shared, "key", "value", "sum", "total")
        expected = kv_table.aggregate(["key"], "value", "sum", "total")
        assert result.reveal().equals_unordered(expected)

    def test_grouped_count_matches_cleartext(self, engine, kv_table):
        shared = share(engine, kv_table)
        result = protocols.mpc_aggregate(shared, "key", None, "count", "cnt")
        expected = kv_table.aggregate(["key"], None, "count", "cnt")
        assert result.reveal().equals_unordered(expected)

    def test_scalar_sum_and_count(self, engine, kv_table):
        shared = share(engine, kv_table)
        total = protocols.mpc_aggregate(shared, None, "value", "sum", "s")
        count = protocols.mpc_aggregate(shared, None, None, "count", "c")
        assert total.reveal().rows() == [(210,)]
        assert count.reveal().rows() == [(6,)]

    def test_scalar_sum_requires_no_comparisons(self, engine, kv_table):
        shared = share(engine, kv_table)
        before = engine.meter.comparisons
        protocols.mpc_aggregate(shared, None, "value", "sum", "s")
        assert engine.meter.comparisons == before

    def test_presorted_aggregation_skips_sort(self, engine, kv_table):
        sorted_table = kv_table.sort_by(["key"])
        shared = share(engine, sorted_table)
        before = engine.meter.comparisons
        result = protocols.mpc_aggregate(shared, "key", "value", "sum", "t", presorted=True)
        presorted_cost = engine.meter.comparisons - before
        expected = kv_table.aggregate(["key"], "value", "sum", "t")
        assert result.reveal().equals_unordered(expected)

        engine2 = SecretSharingEngine(PARTIES, seed=5)
        shared2 = SharedTable.from_table(engine2, sorted_table)
        before2 = engine2.meter.comparisons
        protocols.mpc_aggregate(shared2, "key", "value", "sum", "t", presorted=False)
        unsorted_cost = engine2.meter.comparisons - before2
        assert presorted_cost < unsorted_cost

    def test_unsupported_grouped_function_rejected(self, engine, kv_table):
        with pytest.raises(ValueError):
            protocols.mpc_aggregate(share(engine, kv_table), "key", "value", "mean", "m")

    def test_empty_relation(self, engine, kv_schema):
        shared = share(engine, Table.empty(kv_schema))
        result = protocols.mpc_aggregate(shared, "key", "value", "sum", "t")
        assert result.num_rows == 0

    def test_distinct(self, engine, kv_table):
        shared = share(engine, kv_table)
        result = protocols.mpc_distinct(shared, ["key"])
        assert sorted(result.reveal().column("key").tolist()) == [1, 2, 3, 4]


class RoundLog(Network):
    """The in-process network, remembering ``(tag, size_bytes)`` of every
    round that carries traffic."""

    def __init__(self, party_names):
        super().__init__(party_names)
        self.rounds = []

    def round(self, tag, sends, size_bytes):
        if sends:
            self.rounds.append((tag, int(size_bytes)))
        return super().round(tag, sends, size_bytes)


#: Relations for the single-opening test; every one is sorted by key, so the
#: same rows serve the sorted and the presorted path.
AGGREGATE_CASES = {
    "empty": [],
    "one-row": [(3, 10)],
    "two-rows": [(1, 5), (2, 7)],
    "all-equal": [(4, v) for v in (6, 1, 5, 2, 4, 3)],
    "all-distinct": [(k, 10 * k) for k in range(1, 7)],
}

#: ``(comparisons, multiplications)`` one aggregation charged at the commit
#: before the key column was opened once — by ``(scan kind, presorted, rows)``.
#: The ideal functionality may be computed from fewer openings; the price of
#: the oblivious protocol it stands for may not move.
AGGREGATE_CHARGES = {
    ("sum", False, 2): (2, 5), ("sum", False, 6): (29, 101),
    ("sum", True, 2): (1, 1), ("sum", True, 6): (5, 5),
    ("extremum", False, 2): (3, 6), ("extremum", False, 6): (34, 106),
    ("extremum", True, 2): (2, 2), ("extremum", True, 6): (10, 10),
}


class TestAggregateOpensItsKeyOnce:
    @pytest.mark.parametrize("case", AGGREGATE_CASES)
    @pytest.mark.parametrize("presorted", [False, True], ids=["sorted", "presorted"])
    @pytest.mark.parametrize("func", ["sum", "count", "min", "max"])
    def test_one_key_opening_same_rows_same_charges(self, func, presorted, case, kv_schema):
        rows = AGGREGATE_CASES[case]
        n = len(rows)
        table = Table.from_rows(kv_schema, rows) if rows else Table.empty(kv_schema)
        log = RoundLog(PARTIES)
        engine = SecretSharingEngine(PARTIES, seed=3, network=log)
        shared = share(engine, table)
        del log.rounds[:]
        comparisons, multiplications = engine.meter.comparisons, engine.meter.multiplications

        agg_col = None if func == "count" else "value"
        result = protocols.mpc_aggregate(shared, "key", agg_col, func, "out", presorted=presorted)

        assert result.reveal().equals_unordered(table.aggregate(["key"], agg_col, func, "out"))
        scan = "sum" if func in ("sum", "count") else "extremum"
        # The key column, and for min/max the value column the scan runs on.
        expected_openings = [] if n <= 1 else [n * 8] * (1 if scan == "sum" else 2)
        assert [size for tag, size in log.rounds if tag == "env-open"] == expected_openings
        assert (
            engine.meter.comparisons - comparisons,
            engine.meter.multiplications - multiplications,
        ) == AGGREGATE_CHARGES.get((scan, presorted, n), (0, 0))

    def test_distinct_opens_its_column_once(self, kv_table):
        log = RoundLog(PARTIES)
        engine = SecretSharingEngine(PARTIES, seed=3, network=log)
        shared = share(engine, kv_table)
        del log.rounds[:]
        result = protocols.mpc_distinct(shared, ["key"])
        assert sorted(result.reveal().column("key").tolist()) == [1, 2, 3, 4]
        assert [tag for tag, _size in log.rounds].count("env-open") == 1


class TestArithmetic:
    def test_multiply_by_scalar_and_column(self, engine, kv_table):
        shared = share(engine, kv_table)
        by_scalar = protocols.mpc_arith(shared, "double", "value", "*", 2)
        assert by_scalar.reveal().column("double").tolist() == [
            2 * v for _, v in kv_table.rows()
        ]
        by_column = protocols.mpc_arith(shared, "prod", "key", "*", "value")
        assert by_column.reveal().column("prod").tolist() == [
            k * v for k, v in kv_table.rows()
        ]

    def test_fixed_point_multiplication_rescales(self, engine):
        table = make_table({"a": [0.5, 1.5], "b": [0.5, 2.0]}, float_cols={"a", "b"})
        shared = share(engine, table)
        result = protocols.mpc_arith(shared, "ab", "a", "*", "b")
        assert np.allclose(result.reveal().column("ab"), [0.25, 3.0], atol=1e-4)

    def test_divide_matches_cleartext(self, engine, kv_table):
        shared = share(engine, kv_table)
        result = protocols.mpc_arith(shared, "ratio", "value", "/", "key")
        expected = [v / k for k, v in kv_table.rows()]
        assert np.allclose(result.reveal().column("ratio"), expected, atol=1e-4)

    def test_divide_by_zero_gives_zero(self, engine):
        table = make_table({"a": [10], "b": [0]})
        shared = share(engine, table)
        result = protocols.mpc_arith(shared, "q", "a", "/", "b")
        assert result.reveal().column("q").tolist() == [0.0]
        result = protocols.mpc_arith(shared, "q", "a", "/", 0)
        assert result.reveal().column("q").tolist() == [0.0]

    def test_divide_by_public_scalar(self, engine, kv_table):
        shared = share(engine, kv_table)
        result = protocols.mpc_arith(shared, "quarter", "value", "/", 4)
        assert result.schema["quarter"].ctype is ColumnType.FLOAT
        assert result.reveal().column("quarter").tolist() == [v / 4 for _, v in kv_table.rows()]


# -- property-based equivalence with the cleartext reference ---------------------------------

rows_strategy = st.lists(
    st.tuples(st.integers(0, 4), st.integers(-100, 100)), min_size=1, max_size=12
)


@given(rows=rows_strategy)
@settings(max_examples=15, deadline=None)
def test_mpc_aggregate_equals_cleartext_property(rows):
    schema = Schema([ColumnDef("key"), ColumnDef("value")])
    table = Table.from_rows(schema, rows)
    engine = SecretSharingEngine(PARTIES, seed=11)
    shared = SharedTable.from_table(engine, table)
    result = protocols.mpc_aggregate(shared, "key", "value", "sum", "total")
    assert result.reveal().equals_unordered(table.aggregate(["key"], "value", "sum", "total"))


@given(left=rows_strategy, right=rows_strategy)
@settings(max_examples=10, deadline=None)
def test_mpc_join_equals_cleartext_property(left, right):
    schema = Schema([ColumnDef("key"), ColumnDef("value")])
    lt, rt = Table.from_rows(schema, left), Table.from_rows(schema, right)
    engine = SecretSharingEngine(PARTIES, seed=13)
    joined = protocols.mpc_join(
        SharedTable.from_table(engine, lt), SharedTable.from_table(engine, rt), "key", "key"
    )
    assert joined.reveal().equals_unordered(lt.join(rt, ["key"], ["key"]))


# -- the invariant the one-bit flag opening rests on -----------------------------------------


@contextlib.contextmanager
def watching_compact():
    """Record the cleartext of every flags vector that reaches ``compact``
    (the hybrid aggregation imports the name, so both references are
    patched).  The reconstruction is the test's own, full width, from the
    slices the all-local engine holds."""
    seen, compact = [], protocols.compact

    def watched(engine, flags, columns):
        seen.append(AdditiveSharing.reconstruct(flags.shares))
        return compact(engine, flags, columns)

    with mock.patch.object(protocols, "compact", watched), \
            mock.patch.object(hybrid_agg, "compact", watched):
        yield seen


def assert_all_bits(seen):
    assert seen, "no flags vector reached compact"
    for flags in seen:
        assert np.isin(flags, (0, 1)).all(), flags


@given(
    rows=st.lists(
        st.tuples(st.integers(-3, 3), st.one_of(st.integers(-100, 100), st.integers(-(2**62), 2**62))),
        max_size=12,
    ),
    op=st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
    value=st.one_of(st.integers(-100, 100), st.floats(-3, 3, allow_nan=False)),
    func=st.sampled_from(["sum", "count", "min", "max"]),
)
@settings(max_examples=40, deadline=None)
def test_every_flags_vector_reaching_compact_holds_bits(rows, op, value, func):
    schema = Schema([ColumnDef("key"), ColumnDef("value")])
    table = Table.from_rows(schema, rows) if rows else Table.empty(schema)
    backend = SharemindBackend(PARTIES, seed=17)
    shared = backend.ingest(table)
    stp = SelectivelyTrustedParty("stp.example", ColumnarBackend())
    with watching_compact() as seen:
        backend.filter(shared, "value", op, value)
        backend.join(shared, shared, "key", "key")
        backend.aggregate(shared, "key", "value", func, "out")
        backend.aggregate(backend.sort_by(shared, "key"), "key", "value", func, "out", presorted=True)
        hybrid_agg.hybrid_aggregate(backend, stp, shared, "key", "value", "sum", "out")
    assert len(seen) == (5 if rows else 2)  # an empty aggregation compacts nothing
    assert_all_bits(seen)


def test_corpus_flags_reaching_compact_hold_bits():
    """The 50-plan differential corpus, simulated transport: compound
    predicates (and / or / not over secret flags), joins and both
    aggregations all hand ``compact`` zeros and ones, nothing else."""
    with watching_compact() as seen:
        for plan in range(NUM_PLANS):
            run_spec(generate_spec(SEED + plan))
    assert len(seen) >= NUM_PLANS
    assert_all_bits(seen)
