"""Unit and property-based tests for the in-memory columnar table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table
from tests.conftest import make_table


class TestConstruction:
    def test_from_rows_and_rows_roundtrip(self, kv_schema):
        rows = [(1, 2), (3, 4)]
        table = Table.from_rows(kv_schema, rows)
        assert table.rows() == rows
        assert table.num_rows == 2
        assert table.num_columns == 2

    def test_from_dict(self, kv_schema):
        table = Table.from_dict(kv_schema, {"key": [1, 2], "value": [3, 4]})
        assert table.rows() == [(1, 3), (2, 4)]

    def test_empty_table(self, kv_schema):
        table = Table.empty(kv_schema)
        assert table.num_rows == 0
        assert table.rows() == []

    def test_mismatched_column_lengths_rejected(self, kv_schema):
        with pytest.raises(ValueError):
            Table(kv_schema, [np.array([1, 2]), np.array([1])])

    def test_mismatched_row_width_rejected(self, kv_schema):
        for rows in ([(1, 2, 3)], [(1, 2), (3,)]):
            with pytest.raises(ValueError, match="schema width"):
                Table.from_rows(kv_schema, rows)

    def test_float_columns_use_float_dtype(self):
        table = make_table({"x": [1.5, 2.5]}, float_cols={"x"})
        assert table.column("x").dtype == np.float64

    def test_equality_and_unordered_equality(self, kv_schema):
        t1 = Table.from_rows(kv_schema, [(1, 2), (3, 4)])
        t2 = Table.from_rows(kv_schema, [(1, 2), (3, 4)])
        t3 = Table.from_rows(kv_schema, [(3, 4), (1, 2)])
        assert t1 == t2
        assert t1 != t3
        assert t1.equals_unordered(t3)

    def test_equality_compares_column_types(self):
        as_int = Table(Schema([ColumnDef("x")]), [[1]])
        as_float = Table(Schema([ColumnDef("x", ColumnType.FLOAT)]), [[1.0]])
        assert as_int != as_float

    def test_equality_tells_negative_zero_from_zero(self):
        schema = Schema([ColumnDef("x", ColumnType.FLOAT)])
        assert Table(schema, [[0.0]]) != Table(schema, [[-0.0]])

    def test_a_table_holding_nan_equals_itself(self):
        table = Table(Schema([ColumnDef("x", ColumnType.FLOAT)]), [[1.0, np.nan]])
        assert table == table
        assert table == Table(table.schema, [[1.0, np.nan]])


class TestProjectFilterSort:
    def test_project_selects_and_reorders(self, kv_table):
        projected = kv_table.project(["value", "key"])
        assert projected.schema.names == ["value", "key"]
        assert projected.rows()[0] == (10, 1)

    def test_filter_operators(self, kv_table):
        assert kv_table.filter("value", ">", 30).num_rows == 3
        assert kv_table.filter("value", ">=", 30).num_rows == 4
        assert kv_table.filter("key", "==", 1).num_rows == 2
        assert kv_table.filter("key", "!=", 1).num_rows == 4
        assert kv_table.filter("value", "<", 20).num_rows == 1
        assert kv_table.filter("value", "<=", 20).num_rows == 2

    def test_filter_unknown_op_rejected(self, kv_table):
        with pytest.raises(ValueError):
            kv_table.filter("key", "~", 1)

    def test_filter_predicate(self, kv_table):
        result = kv_table.filter_predicate(lambda row: row[0] + row[1] > 50)
        assert all(k + v > 50 for k, v in result.rows())

    def test_sort_by_is_stable_and_orders(self, kv_table):
        ordered = kv_table.sort_by(["key"])
        assert [r[0] for r in ordered.rows()] == sorted(r[0] for r in kv_table.rows())
        # stability: equal keys keep their original relative value order
        key1_values = [r[1] for r in ordered.rows() if r[0] == 1]
        assert key1_values == [10, 30]

    def test_sort_descending(self, kv_table):
        ordered = kv_table.sort_by(["value"], ascending=False)
        values = [r[1] for r in ordered.rows()]
        assert values == sorted(values, reverse=True)

    def test_limit_and_take(self, kv_table):
        assert kv_table.limit(2).num_rows == 2
        taken = kv_table.take(np.array([3, 0]))
        assert taken.rows() == [(3, 40), (1, 10)]

    def test_select_rows_mask(self, kv_table):
        mask = np.array([True, False, True, False, False, False])
        assert kv_table.select_rows(mask).num_rows == 2

    def test_select_rows_rejects_a_mask_of_another_length(self, kv_table):
        with pytest.raises(ValueError, match="cannot select from 6 rows"):
            kv_table.select_rows(np.array([True, False]))


class TestPendingSelection:
    """A selection keeps its source's columns and the flags until a column
    is read; every reader then sees exactly the copied rows."""

    MASK = np.array([True, False, True, False, False, True])

    def test_a_selection_copies_nothing_until_a_column_is_read(self, kv_table):
        selected = kv_table.select_rows(self.MASK)
        assert type(selected) is Table
        source, flags = selected.pending_selection()
        assert source.columns()[0] is kv_table.columns()[0]
        assert flags.tolist() == self.MASK.tolist()
        assert selected.num_rows == 3 and selected.num_columns == 2
        assert selected.column("value").tolist() == [10, 30, 60]
        assert selected.pending_selection() is None

    def test_project_and_rename_stay_pending(self, kv_table):
        selected = kv_table.select_rows(self.MASK)
        renamed = selected.project(["value"]).rename({"value": "v"})
        source, flags = renamed.pending_selection()
        assert source.schema.names == ["v"] and renamed.schema.names == ["v"]
        assert source.column("v") is kv_table.column("value")
        assert renamed.rows() == [(10,), (30,), (60,)]
        assert selected.pending_selection() is not None

    @pytest.mark.parametrize(
        "read",
        [
            lambda t: t.rows(),
            lambda t: t.to_dict(),
            lambda t: t.sort_by(["value"], ascending=False).rows(),
            lambda t: t.join(t, ["key"], ["key"]).rows(),
            lambda t: t.aggregate(["key"], "value", "sum", "s").rows(),
            lambda t: t.distinct().rows(),
            lambda t: t.concat(t).rows(),
            lambda t: t.limit(2).rows(),
            lambda t: t.with_column("z", np.zeros(t.num_rows)).rows(),
        ],
        ids=[
            "rows", "dict", "sort", "join", "aggregate", "distinct", "concat", "limit",
            "with_column",
        ],
    )
    def test_every_reader_sees_the_copied_rows(self, kv_table, read):
        copied = Table(kv_table.schema, [col[self.MASK] for col in kv_table.columns()])
        assert read(self.pending(kv_table)) == read(copied)

    def test_equality_and_the_codec_see_the_copied_rows(self, kv_table):
        from repro.runtime.wire import decode_payload, encode_payload

        copied = Table(kv_table.schema, [col[self.MASK] for col in kv_table.columns()])
        assert self.pending(kv_table) == copied
        assert copied == self.pending(kv_table)
        assert decode_payload(encode_payload(self.pending(kv_table))) == copied

    def test_a_selection_of_a_selection(self, kv_table):
        twice = self.pending(kv_table).select_rows(np.array([False, True, True]))
        assert twice.pending_selection() is not None
        assert twice.rows() == [(1, 30), (4, 60)]

    def pending(self, table: Table) -> Table:
        selected = table.select_rows(self.MASK)
        assert selected.pending_selection() is not None
        return selected


class TestConcatDistinct:
    def test_concat_preserves_duplicates(self, kv_table):
        doubled = kv_table.concat(kv_table)
        assert doubled.num_rows == 2 * kv_table.num_rows

    def test_concat_incompatible_schema_rejected(self, kv_table):
        other = make_table({"a": [1]})
        with pytest.raises(ValueError):
            kv_table.concat(other)

    def test_distinct_whole_rows(self, kv_schema):
        table = Table.from_rows(kv_schema, [(1, 1), (1, 1), (2, 2)])
        assert table.distinct().num_rows == 2

    def test_distinct_on_columns(self, kv_table):
        assert sorted(kv_table.distinct(["key"]).column("key").tolist()) == [1, 2, 3, 4]


class TestJoin:
    def test_inner_join_matches_reference(self, kv_table, other_kv_table):
        joined = kv_table.join(other_kv_table, ["key"], ["key"])
        expected = {(1, 10, 100), (1, 30, 100), (2, 20, 200), (2, 50, 200)}
        assert set(joined.rows()) == expected
        assert joined.schema.names == ["key", "value", "value_r"]

    def test_join_no_matches_gives_empty(self, kv_schema):
        left = Table.from_rows(kv_schema, [(1, 1)])
        right = Table.from_rows(kv_schema, [(2, 2)])
        assert left.join(right, ["key"], ["key"]).num_rows == 0

    def test_join_key_length_mismatch_rejected(self, kv_table, other_kv_table):
        with pytest.raises(ValueError):
            kv_table.join(other_kv_table, ["key"], ["key", "value"])

    def test_join_on_differently_named_keys(self):
        left = make_table({"id": [1, 2], "x": [10, 20]})
        right = make_table({"pid": [2, 3], "y": [200, 300]})
        joined = left.join(right, ["id"], ["pid"])
        assert joined.rows() == [(2, 20, 200)]
        assert joined.schema.names == ["id", "x", "y"]


class TestAggregate:
    def test_grouped_sum(self, kv_table):
        result = kv_table.aggregate(["key"], "value", "sum", "total")
        assert dict((k, v) for k, v in result.rows()) == {1: 40, 2: 70, 3: 40, 4: 60}

    def test_grouped_count(self, kv_table):
        result = kv_table.aggregate(["key"], None, "count", "cnt")
        assert dict(result.rows()) == {1: 2, 2: 2, 3: 1, 4: 1}

    def test_grouped_min_max_mean(self, kv_table):
        assert dict(kv_table.aggregate(["key"], "value", "min", "m").rows())[1] == 10
        assert dict(kv_table.aggregate(["key"], "value", "max", "m").rows())[1] == 30
        assert dict(kv_table.aggregate(["key"], "value", "mean", "m").rows())[1] == 20.0

    def test_scalar_aggregates(self, kv_table):
        assert kv_table.aggregate([], "value", "sum", "s").rows() == [(210,)]
        assert kv_table.aggregate([], None, "count", "c").rows() == [(6,)]

    def test_sum_requires_value_column(self, kv_table):
        with pytest.raises(ValueError):
            kv_table.aggregate(["key"], None, "sum", "s")

    def test_unknown_function_rejected(self, kv_table):
        with pytest.raises(ValueError):
            kv_table.aggregate(["key"], "value", "median", "m")

    def test_empty_input(self, kv_schema):
        empty = Table.empty(kv_schema)
        assert empty.aggregate(["key"], "value", "sum", "s").num_rows == 0
        assert empty.aggregate([], "value", "sum", "s").rows() == [(0,)]


class TestArithmetic:
    def test_column_scalar_ops(self, kv_table):
        assert kv_table.arithmetic("d", "value", "*", 2).column("d").tolist()[0] == 20
        assert kv_table.arithmetic("d", "value", "+", 5).column("d").tolist()[0] == 15
        assert kv_table.arithmetic("d", "value", "-", 5).column("d").tolist()[0] == 5

    def test_column_column_ops(self, kv_table):
        result = kv_table.arithmetic("prod", "key", "*", "value")
        assert result.column("prod").tolist() == [
            k * v for k, v in kv_table.rows()
        ]

    def test_division_is_float_and_handles_zero(self):
        table = make_table({"a": [10, 5], "b": [2, 0]})
        result = table.arithmetic("q", "a", "/", "b")
        assert result.schema["q"].ctype is ColumnType.FLOAT
        assert result.column("q").tolist() == [5.0, 0.0]

    def test_unknown_op_rejected(self, kv_table):
        with pytest.raises(ValueError):
            kv_table.arithmetic("x", "key", "%", 2)

    def test_with_column_infers_float_type(self, kv_table):
        extended = kv_table.with_column("half", kv_table.column("value") / 2.0)
        assert extended.schema["half"].ctype is ColumnType.FLOAT

    def test_enumerate_rows(self, kv_table):
        result = kv_table.enumerate_rows("idx")
        assert result.column("idx").tolist() == list(range(kv_table.num_rows))

    def test_shuffle_preserves_multiset(self, kv_table, rng):
        shuffled = kv_table.shuffle(rng)
        assert shuffled.equals_unordered(kv_table)

    def test_rename_columns(self, kv_table):
        renamed = kv_table.rename({"key": "k"})
        assert renamed.schema.names == ["k", "value"]


# -- property-based tests -----------------------------------------------------------------------

small_ints = st.integers(min_value=-(2**31), max_value=2**31 - 1)


@given(
    rows=st.lists(st.tuples(st.integers(0, 5), small_ints), max_size=40),
)
@settings(max_examples=40, deadline=None)
def test_grouped_sum_matches_python_reference(rows):
    schema = Schema([ColumnDef("key"), ColumnDef("value")])
    table = Table.from_rows(schema, rows)
    result = dict(table.aggregate(["key"], "value", "sum", "total").rows())
    expected: dict[int, int] = {}
    for k, v in rows:
        expected[k] = expected.get(k, 0) + v
    assert result == expected


@given(
    left=st.lists(st.tuples(st.integers(0, 4), small_ints), max_size=20),
    right=st.lists(st.tuples(st.integers(0, 4), small_ints), max_size=20),
)
@settings(max_examples=40, deadline=None)
def test_join_matches_nested_loop_reference(left, right):
    schema = Schema([ColumnDef("key"), ColumnDef("value")])
    lt = Table.from_rows(schema, left)
    rt = Table.from_rows(schema, right)
    joined = lt.join(rt, ["key"], ["key"])
    expected = sorted(
        (lk, lv, rv) for lk, lv in left for rk, rv in right if lk == rk
    )
    assert sorted(joined.rows()) == expected


@given(rows=st.lists(st.tuples(small_ints, small_ints), max_size=40))
@settings(max_examples=40, deadline=None)
def test_sort_is_permutation_and_ordered(rows):
    schema = Schema([ColumnDef("key"), ColumnDef("value")])
    table = Table.from_rows(schema, rows)
    ordered = table.sort_by(["key"])
    assert ordered.equals_unordered(table)
    keys = [r[0] for r in ordered.rows()]
    assert keys == sorted(keys)
