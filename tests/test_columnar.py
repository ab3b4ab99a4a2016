"""The columnar vectorized execution engine: kernels and wiring.

The engine's end-to-end byte-identity with the row oracle lives in
``test_differential.py`` (all 50 random plans, both price lists);
this module covers the pieces in isolation — kernel edge cases (including the bit-exactness recipes for
float aggregation and join ordering), grouped aggregation (scatter
and ordered paths) against the row oracle, config-string validation, the
share-vector protocols' wire-round flatness, the ``bind_host`` endpoint handshake, and
the per-query ``rows_processed``/``mpc_rounds`` session counters.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as cc
from repro.core.config import CompilationConfig
from repro.core.dispatch import QueryRunner
from repro.core.lang import QueryContext
from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table
from repro.exec import ColumnarBackend, engine, kernels
from repro.exec.kernels import (
    arithmetic,
    combine_bool,
    compare,
    distinct_indices,
    filter_flags,
    group_slices,
    hash_join_indices,
    segment_reduce,
    sort_indices,
    stable_order,
)
from repro.runtime.mesh import bind_listener
from repro.runtime.pool import AgentPool

from oracle_engine import OracleRunner, PythonBackend

PARTY_A = "alpha.example"
PARTY_B = "beta.example"


def small_table():
    schema = Schema([ColumnDef("k"), ColumnDef("v"), ColumnDef("f", ColumnType.FLOAT)])
    return Table(schema, [[3, 1, 2, 1], [10, 20, 30, 40], [0.5, 1.5, -2.5, 3.5]])


class TestKernels:
    def test_compare_returns_int64_flags(self):
        flags = compare(np.array([1, 5, 3]), ">", 2)
        assert flags.dtype == np.int64
        assert flags.tolist() == [0, 1, 1]

    def test_filter_flags_and_bool_ops(self):
        a = np.array([1, 0, 1], dtype=np.int64)
        b = np.array([1, 1, 0], dtype=np.int64)
        assert combine_bool("and", [a, b]).tolist() == [1, 0, 0]
        assert combine_bool("or", [a, b]).tolist() == [1, 1, 1]
        assert combine_bool("not", [a]).tolist() == [0, 1, 0]
        assert filter_flags(np.array([5, -1, 2]), "<", 3).tolist() == [False, True, True]

    def test_bool_not_requires_exactly_one_operand(self):
        a = np.array([1], dtype=np.int64)
        with pytest.raises(ValueError):
            combine_bool("not", [a, a])

    def test_divide_by_zero_yields_zero(self):
        out = arithmetic(np.array([10, 20]), "/", np.array([2, 0]))
        assert out.tolist() == [5.0, 0.0]

    def test_hash_join_matches_row_engine_order(self):
        left = Table(Schema([ColumnDef("k"), ColumnDef("v")]), [[2, 1, 2, 9], [1, 2, 3, 4]])
        right = Table(Schema([ColumnDef("k"), ColumnDef("w")]), [[2, 2, 1], [10, 20, 30]])
        expected = left.join(right, left_on=["k"], right_on=["k"]).rows()
        li, ri = hash_join_indices(left.column("k"), right.column("k"))
        got = [
            (left.column("k")[l], left.column("v")[l], right.column("w")[r])
            for l, r in zip(li, ri)
        ]
        assert [tuple(int(x) for x in row) for row in got] == expected

    def test_group_slices_cover_all_rows(self):
        key = np.array([3, 1, 3, 1, 2])
        order, starts, ends = group_slices(key)
        assert sorted(order.tolist()) == list(range(5))
        assert (ends - starts).sum() == 5
        assert key[order[starts]].tolist() == [1, 2, 3]  # group keys ascend

    def test_float_sum_is_bit_identical_to_per_group_numpy_sum(self):
        # The row engine sums each group's float column with np.sum over the
        # group's values; the kernel must reproduce that bit pattern, not
        # just be numerically close.
        rng = np.random.default_rng(11)
        key = rng.integers(0, 7, 500)
        values = rng.normal(size=500)
        order, starts, ends = group_slices(key)
        got = segment_reduce(values[order], starts, ends, "sum")
        expected = np.array(
            [values[order][s:e].sum() for s, e in zip(starts, ends)]
        )
        assert got.tobytes() == expected.tobytes()

    def test_distinct_keeps_first_occurrence_order(self):
        cols = [np.array([1, 2, 1, 3, 2]), np.array([0, 0, 0, 1, 0])]
        idx = distinct_indices(cols)
        assert idx.tolist() == [0, 1, 3]

    def test_sort_indices_descending_mirrors_table_sort(self):
        key = np.array([3, 1, 2, 1])
        assert key[sort_indices(key, ascending=True)].tolist() == [1, 1, 2, 3]
        table = Table(Schema([ColumnDef("k")]), [key])
        expected = table.sort_by(["k"], ascending=False).column("k").tolist()
        assert key[sort_indices(key, ascending=False)].tolist() == expected


class TestStableOrder:
    def test_ties_keep_row_order_and_nan_sorts_last(self):
        key = np.array([2.0, np.nan, -0.0, 2.0, 0.0, np.nan, -1.5])
        assert stable_order(key).tolist() == [6, 2, 4, 0, 3, 1, 5]
        assert sort_indices(key).tolist() == np.lexsort((key,)).tolist()

    def test_no_other_kernel_sorts(self):
        """``stable_order`` is the one place the engine orders anything."""
        for module in (kernels, engine):
            rest = inspect.getsource(module).replace(inspect.getsource(stable_order), "")
            assert "argsort" not in rest and "lexsort" not in rest


#: Row counts: empty, degenerate, fewer rows than the dense keys have
#: buckets, and enough for every key shape to hold several groups.
ROW_COUNTS = [0, 1, 2, 5, 37, 2500]


def _sparse_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    """About four rows per key, the keys spread over 2**41 values."""
    distinct = rng.integers(-(1 << 40), 1 << 40, n // 4 + 1)
    return distinct[rng.integers(0, len(distinct), n)]


#: Group-key columns that take the scatter path (dense: no more buckets
#: than rows — ``one_row_per_bucket`` sits exactly on that boundary), the
#: ordered path (sparse; ``both_ends_of_int64`` has a span that an int64
#: subtraction would wrap into a negative, "dense" one) and the degenerate
#: shapes.
KEY_SHAPES = {
    "dense": lambda rng, n: rng.integers(-3, 4, n),
    "sparse": _sparse_keys,
    "one_row_per_bucket": lambda rng, n: rng.permutation(n) - n // 2,
    "one_row_per_group": lambda rng, n: rng.permutation(n) * 3 - n,
    "all_one_group": lambda rng, n: np.full(n, 7),
    "both_ends_of_int64": lambda rng, n: rng.choice([-(1 << 62), 0, 1 << 62], n),
}

#: Int values large enough that a handful of them wraps an int64 sum; float
#: values of mixed magnitude, so the summation order shows in the last ulp.
VALUE_KINDS = {
    ColumnType.INT: lambda rng, n: rng.integers(-(1 << 62), 1 << 62, n),
    ColumnType.FLOAT: lambda rng, n: rng.normal(size=n) * 10.0 ** rng.integers(-3, 9, n),
}


#: Source rows per chunk in the chunked-grouping tests.
CHUNK = 4

#: Dense group keys (no more buckets than survivors) of the chunked tests.
STREAMED_KEYS = {
    "small": lambda rng, n: rng.integers(0, 3, n),
    "negative": lambda rng, n: rng.integers(-5, -1, n),
    "near_plus_2_62": lambda rng, n: (1 << 62) - rng.integers(0, 3, n),
    "near_minus_2_62": lambda rng, n: -(1 << 62) + rng.integers(0, 3, n),
}

#: Which of ``n`` source rows survive the filter, in chunks of ``CHUNK``.
KEEP_PATTERNS = {
    "none": lambda n: np.zeros(n, dtype=bool),
    "every_other_chunk_empty": lambda n: np.arange(n) // CHUNK % 2 == 0,
    "chunk_edges_only": lambda n: np.isin(np.arange(n) % CHUNK, [0, CHUNK - 1]),
    "one_row": lambda n: np.arange(n) == n - 1,
    "all": lambda n: np.ones(n, dtype=bool),
}


def _assert_aggregates_as_oracle(table, group_by, func, keep=None, copied=False):
    """``ColumnarBackend.aggregate`` of ``table`` — narrowed by the engine's
    filter to the ``keep`` rows, and those copied out first if ``copied`` —
    equals the row oracle's aggregate of those rows, byte for byte."""
    backend = ColumnarBackend()
    handle = backend.ingest(table)
    expected_input = table
    if keep is not None:
        flagged = table.with_column("keep", keep.astype(np.int64))
        handle = backend.project(backend.filter(flagged, "keep", "==", 1), table.schema.names)
        if copied:
            handle.columns()
        assert (handle.pending_selection() is None) == copied
        expected_input = Table(table.schema, [col[keep] for col in table.columns()])
    got = backend.aggregate(handle, group_by, [(func, "v", "out")])
    expected = PythonBackend().aggregate(expected_input, group_by, [(func, "v", "out")])
    assert got.schema == expected.schema
    for got_col, expected_col in zip(got.columns(), expected.columns()):
        assert got_col.dtype == expected_col.dtype
        assert got_col.tobytes() == expected_col.tobytes()


class TestGroupedAggregateMatchesOracle:
    """``ColumnarBackend.aggregate`` against the row oracle, byte for byte."""

    @pytest.mark.parametrize("given_as", ["ingested", "filtered_copied", "filtered_in_place"])
    @pytest.mark.parametrize("shape", list(KEY_SHAPES))
    @pytest.mark.parametrize("ctype", list(VALUE_KINDS), ids=["int", "float"])
    @pytest.mark.parametrize("func", ["sum", "count", "min", "max", "mean"])
    @given(n=st.sampled_from(ROW_COUNTS), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_values_and_dtypes(self, func, ctype, shape, given_as, n, seed):
        rng = np.random.default_rng(seed)
        schema = Schema([ColumnDef("k"), ColumnDef("v", ctype)])
        columns = [KEY_SHAPES[shape](rng, n), VALUE_KINDS[ctype](rng, n)]
        if given_as == "ingested":
            _assert_aggregates_as_oracle(Table(schema, columns), "k", func)
        else:
            # The engine's own filter narrows the input by a 0/1 keep column;
            # its survivors are copied out only if something reads them.
            keep = rng.random(n) < 0.7
            _assert_aggregates_as_oracle(
                Table(schema, columns), "k", func, keep, copied=given_as == "filtered_copied"
            )

    @pytest.mark.parametrize("func", ["sum", "count", "min", "max", "mean"])
    @pytest.mark.parametrize("ctype", list(VALUE_KINDS), ids=["int", "float"])
    @pytest.mark.parametrize("keys", list(STREAMED_KEYS))
    @pytest.mark.parametrize("keep", list(KEEP_PATTERNS))
    @pytest.mark.parametrize("grouped", [True, False], ids=["grouped", "scalar"])
    def test_survivors_reduced_across_chunks(
        self, func, ctype, keys, keep, grouped, monkeypatch
    ):
        """Survivors that were never copied, grouped or reduced to one row,
        with four source rows per chunk: whole chunks filtered out, survivors
        on the first and last row of each chunk, negative keys, key spans at
        ±2**62, and int64 sums that wrap from one chunk to the next."""
        monkeypatch.setattr(kernels, "CHUNK_ROWS", CHUNK)
        rng = np.random.default_rng(17)
        n = 6 * CHUNK + 3
        schema = Schema([ColumnDef("k"), ColumnDef("v", ctype)])
        table = Table(schema, [STREAMED_KEYS[keys](rng, n), VALUE_KINDS[ctype](rng, n)])
        _assert_aggregates_as_oracle(table, "k" if grouped else None, func, KEEP_PATTERNS[keep](n))

    @pytest.mark.parametrize("func", ["sum", "count", "min", "max"])
    def test_dense_keys_never_reach_a_sort(self, func, monkeypatch):
        """The HHI local step — a filtered aggregate by a 3-valued int key —
        must not regress to a comparison sort, to any ordering at all, or
        to a copy of the surviving rows."""

        def no_sorting(*args, **kwargs):
            raise AssertionError("the dense-key path ordered its input")

        monkeypatch.setattr(kernels, "stable_order", no_sorting)
        monkeypatch.setattr(np, "argsort", no_sorting)
        monkeypatch.setattr(np, "lexsort", no_sorting)
        rng = np.random.default_rng(3)
        n = 100_000
        key, value = rng.integers(0, 3, n), rng.integers(0, 10_000, n)
        schema = Schema([ColumnDef("companyID"), ColumnDef("price")])
        backend = ColumnarBackend()
        paid = backend.filter(backend.ingest(Table(schema, [key, value])), "price", ">", 0)
        paid = backend.project(paid, ["companyID", "price"])
        got = backend.aggregate(paid, "companyID", [(func, "price", "rev")])
        assert paid.pending_selection() is not None, "the survivors were copied"
        reduce = {"sum": np.sum, "count": len, "min": np.min, "max": np.max}[func]
        assert got.rows() == [
            (k, int(reduce(value[(key == k) & (value > 0)]))) for k in range(3)
        ]



class TestColumnarBackend:
    def test_concat_requires_compatible_schemas(self):
        backend = ColumnarBackend()
        a = backend.ingest(small_table(), PARTY_A)
        other = Table(Schema([ColumnDef("x")]), [[1]])
        b = backend.ingest(other, PARTY_A)
        with pytest.raises(ValueError):
            backend.concat([a, b])

    def test_scalar_aggregate_on_empty_input_is_zero(self):
        backend = ColumnarBackend()
        empty = backend.ingest(
            Table(Schema([ColumnDef("v")]), [np.array([], dtype=np.int64)]), PARTY_A
        )
        out = backend.aggregate(empty, None, [("sum", "v", "total")])
        assert out.rows() == [(0,)]

    def test_limit(self):
        backend = ColumnarBackend()
        handle = backend.ingest(small_table(), PARTY_A)
        assert backend.limit(handle, 2) == small_table().limit(2)


class TestExecutorSelection:
    def one_party_query(self):
        pa = cc.Party(PARTY_A)
        with QueryContext() as ctx:
            t0 = ctx.new_table("t0", [cc.Column("k"), cc.Column("v")], at=pa)
            t0.aggregate(group=["k"], aggs={"s": cc.SUM("v")}).collect("out", to=[pa])
        inputs = {PARTY_A: {"t0": small_table().project(["k", "v"])}}
        return ctx, inputs

    def test_columnar_matches_row_engine(self):
        ctx, inputs = self.one_party_query()
        row = OracleRunner([PARTY_A], inputs).run(cc.compile_query(ctx))
        col = cc.run_query(ctx, inputs)
        assert col.outputs["out"] == row.outputs["out"]

    def test_unknown_executor_raises(self):
        with pytest.raises(ValueError, match="unknown executor 'row'.*'columnar'"):
            CompilationConfig(executor="row")


class TestWireRoundFlatness:
    """The batched share-vector protocols exchange whole columns per round,
    so the number of real (barrier-delimited) exchanges must not depend on
    the relation size — only the analytic round figure may grow."""

    def mpc_run(self, rows: int):
        pa, pb = cc.Party(PARTY_A), cc.Party(PARTY_B)
        with QueryContext() as ctx:
            t0 = ctx.new_table("t0", [cc.Column("k"), cc.Column("v")], at=pa)
            t1 = ctx.new_table("t1", [cc.Column("k"), cc.Column("v")], at=pb)
            ctx.concat([t0, t1]).filter(cc.col("v") > 0).aggregate(
                group=["k"], aggs={"s": cc.SUM("v")}
            ).collect("out", to=[pa])
        rng = np.random.default_rng(5)
        schema = Schema([ColumnDef("k"), ColumnDef("v")])
        inputs = {
            p: {t: Table(schema, [rng.integers(0, 6, rows), rng.integers(-40, 40, rows)])}
            for p, t in ((PARTY_A, "t0"), (PARTY_B, "t1"))
        }
        config = CompilationConfig(enable_push_down=False)
        return cc.run_query(ctx, inputs, config, seed=1)

    def test_wire_rounds_independent_of_row_count(self):
        small = self.mpc_run(40).mpc_profile
        large = self.mpc_run(400).mpc_profile
        assert small["wire_rounds"] == large["wire_rounds"]
        assert large["rounds"] > small["rounds"]  # analytic cost still scales
        assert large["bytes_sent"] > small["bytes_sent"]


class TestBindHost:
    @staticmethod
    def two_party_sum():
        schema = Schema([ColumnDef("k"), ColumnDef("v")])
        inputs = {
            PARTY_A: {"t0": Table(schema, [[1, 2], [10, 20]])},
            PARTY_B: {"t1": Table(schema, [[1, 2], [30, 40]])},
        }
        pa, pb = cc.Party(PARTY_A), cc.Party(PARTY_B)
        with QueryContext() as ctx:
            t0 = ctx.new_table("t0", [cc.Column("k"), cc.Column("v")], at=pa)
            t1 = ctx.new_table("t1", [cc.Column("k"), cc.Column("v")], at=pb)
            ctx.concat([t0, t1]).aggregate(
                group=["k"], aggs={"s": cc.SUM("v")}
            ).collect("out", to=[pa])
        return ctx, inputs

    def test_bind_listener_honours_host(self):
        listener = bind_listener(5.0, "127.0.0.1")
        try:
            host, port = listener.getsockname()
            assert host == "127.0.0.1" and port > 0
        finally:
            listener.close()

    @pytest.mark.parametrize("bind_host", ["127.0.0.1", "127.0.0.2"])
    def test_agents_advertise_full_endpoints(self, bind_host, monkeypatch):
        """The session binds and advertises its ``bind_host`` — also when it
        is not the loopback default."""
        try:
            bind_listener(1.0, bind_host).close()
        except OSError:
            pytest.skip(f"cannot bind the loopback alias {bind_host}")
        advertised = {}
        expect = AgentPool._expect

        def recording_expect(pool, party, sock, tag):
            value = expect(pool, party, sock, tag)
            if tag == "ports":
                advertised[party] = value
            return value

        monkeypatch.setattr(AgentPool, "_expect", recording_expect)
        ctx, inputs = self.two_party_sum()
        with cc.QuerySession([PARTY_A, PARTY_B], inputs=inputs, bind_host=bind_host) as session:
            assert session._pool.bind_host == bind_host
            assert set(advertised) == {PARTY_A, PARTY_B}
            for party, (host, port) in advertised.items():
                assert host == bind_host and port > 0, (party, host, port)
            result = session.submit(ctx, timeout=60)
        expected = cc.run_query(ctx, inputs)
        assert result.outputs["out"] == expected.outputs["out"]


class TestSessionCounters:
    def test_rows_processed_and_mpc_rounds_accumulate(self):
        schema = Schema([ColumnDef("k"), ColumnDef("v")])
        inputs = {
            PARTY_A: {"t0": Table(schema, [[1, 2, 1], [10, 20, 30]])},
            PARTY_B: {"t1": Table(schema, [[2, 2], [5, 5]])},
        }
        pa, pb = cc.Party(PARTY_A), cc.Party(PARTY_B)
        with QueryContext() as ctx:
            t0 = ctx.new_table("t0", [cc.Column("k"), cc.Column("v")], at=pa)
            t1 = ctx.new_table("t1", [cc.Column("k"), cc.Column("v")], at=pb)
            ctx.concat([t0, t1]).aggregate(
                group=["k"], aggs={"s": cc.SUM("v")}
            ).collect("out", to=[pa])
        with cc.QuerySession([PARTY_A, PARTY_B], inputs=inputs) as session:
            first = session.submit(ctx, timeout=60)
            stats_one = session.stats
            session.submit(ctx, timeout=60)
            stats_two = session.stats
        out_rows = first.outputs["out"].num_rows
        assert stats_one["rows_processed"] == out_rows
        assert stats_two["rows_processed"] == 2 * out_rows
        assert stats_one["mpc_rounds"] > 0
        assert stats_two["mpc_rounds"] == 2 * stats_one["mpc_rounds"]
        counters = session.metrics.snapshot()["counters"]
        assert counters["rows_processed"] == stats_two["rows_processed"]
        assert counters["mpc_rounds"] == stats_two["mpc_rounds"]
