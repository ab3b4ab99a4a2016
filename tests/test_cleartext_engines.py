"""Tests for the cleartext engine, its reference oracle, and the price lists."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as cc
from oracle_engine import PythonBackend
from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table
from repro.exec.engine import ColumnarBackend
from repro.exec.kernels import distinct_indices, hash_join_indices
from repro.hybrid.stp import SelectivelyTrustedParty
from repro.model.counters import CleartextWork
from repro.model.prices import PythonCostModel, SparkCostModel, price
from repro.workloads.generators import uniform_key_value_table


@pytest.fixture(params=[ColumnarBackend, PythonBackend], ids=["columnar", "oracle"])
def backend(request):
    return request.param()


class TestEngineEquivalence:
    """The engine (and the oracle the differential corpus replays plans on)
    must produce exactly the Table-reference results."""

    def setup_method(self):
        self.table = uniform_key_value_table(50, 5, seed=1)
        self.other = uniform_key_value_table(30, 5, seed=2)

    def test_project(self, backend):
        h = backend.ingest(self.table)
        assert backend.project(h, ["value"]) == self.table.project(["value"])

    def test_filter(self, backend):
        h = backend.ingest(self.table)
        assert backend.filter(h, "value", ">", 500) == self.table.filter("value", ">", 500)

    def test_join(self, backend):
        h, o = backend.ingest(self.table), backend.ingest(self.other)
        assert backend.join(h, o, "key", "key").equals_unordered(
            self.table.join(self.other, ["key"], ["key"])
        )

    def test_grouped_aggregate(self, backend):
        h = backend.ingest(self.table)
        assert backend.aggregate(h, "key", [("sum", "value", "total")]).equals_unordered(
            self.table.aggregate(["key"], "value", "sum", "total")
        )

    def test_grouped_count(self, backend):
        h = backend.ingest(self.table)
        assert backend.aggregate(h, "key", [("count", None, "cnt")]).equals_unordered(
            self.table.aggregate(["key"], None, "count", "cnt")
        )

    def test_scalar_aggregate(self, backend):
        h = backend.ingest(self.table)
        assert backend.aggregate(h, None, [("sum", "value", "s")]).rows() == [
            (self.table.column("value").sum(),)
        ]

    def test_concat(self, backend):
        h, o = backend.ingest(self.table), backend.ingest(self.other)
        assert backend.concat([h, o]) == self.table.concat(self.other)

    def test_sort_and_limit(self, backend):
        h = backend.ingest(self.table)
        top = backend.limit(backend.sort_by(h, "value", ascending=False), 5)
        expected = self.table.sort_by(["value"], ascending=False).limit(5)
        assert top == expected

    def test_distinct(self, backend):
        h = backend.ingest(self.table)
        got = backend.distinct(h, ["key"])
        assert sorted(got.column("key").tolist()) == sorted(
            self.table.distinct(["key"]).column("key").tolist()
        )

    def test_arithmetic(self, backend):
        h = backend.ingest(self.table)
        doubled = backend.arith(h, "d", "value", "*", 2)
        assert doubled.equals_unordered(self.table.arithmetic("d", "value", "*", 2))
        ratio = backend.arith(h, "r", "value", "/", "key")
        expected = self.table.arithmetic("r", "value", "/", "key")
        assert sorted(np.round(ratio.column("r"), 6).tolist()) == sorted(
            np.round(expected.column("r"), 6).tolist()
        )

    def test_a_nan_join_key_matches_nothing(self):
        """The kernel's binary search found a NaN run for a NaN key."""
        schema = Schema([ColumnDef("k", ColumnType.FLOAT), ColumnDef("v")])
        left = Table.from_rows(schema, [(np.nan, 1), (1.0, 2)])
        right = Table.from_rows(schema, [(np.nan, 3), (1.0, 4)])
        expected = [(1.0, 2, 4)]
        assert left.join(right, ["k"], ["k"]).rows() == expected
        assert ColumnarBackend().join(left, right, "k", "k").rows() == expected
        left_idx, right_idx = hash_join_indices(left.column("k"), right.column("k"))
        assert (left_idx.tolist(), right_idx.tolist()) == ([1], [1])

    def test_distinct_compares_int_columns_as_ints_beside_floats(self):
        """Stacked into float64, 2**53 and 2**53 + 1 were one value."""
        schema = Schema([ColumnDef("i"), ColumnDef("f", ColumnType.FLOAT)])
        table = Table.from_rows(schema, [(2**53, 1.0), (2**53 + 1, 1.0), (2**53, 1.0)])
        expected = [(2**53, 1.0), (2**53 + 1, 1.0)]
        assert table.distinct().rows() == expected
        assert ColumnarBackend().distinct(table, ["i", "f"]).rows() == expected
        assert distinct_indices(table.columns()).tolist() == [0, 1]

    def test_empty_relation_handling(self, backend):
        schema = Schema([ColumnDef("key"), ColumnDef("value")])
        handle = backend.ingest(Table.empty(schema))
        assert backend.filter(handle, "key", ">", 0).num_rows == 0
        assert backend.aggregate(handle, "key", [("sum", "value", "t")]).num_rows == 0


#: Every operator ``apply_operator`` dispatches to a cleartext engine.
ENGINE_OPERATORS = {
    "concat": lambda b, h: b.concat([h, h]),
    "project": lambda b, h: b.project(h, ["value"]),
    "filter": lambda b, h: b.filter(h, "value", ">", 500),
    "aggregate": lambda b, h: b.aggregate(h, "key", [("sum", "value", "t")]),
    "scalar_aggregate": lambda b, h: b.aggregate(h, None, [("count", None, "n")]),
    "arith": lambda b, h: b.arith(h, "d", "value", "/", "key"),
    "compare": lambda b, h: b.compare(h, "c", "value", ">", 500),
    "bool_op": lambda b, h: b.bool_op(h, "b", "not", ["key"]),
    "join": lambda b, h: b.join(h, h, "key", "key"),
    "merge_sorted": lambda b, h: b.merge_sorted([h, h], "value"),
    "sort_by": lambda b, h: b.sort_by(h, "value", ascending=False),
    "distinct": lambda b, h: b.distinct(h, ["key"]),
    "limit": lambda b, h: b.limit(h, 3),
}


class TestHandlesAreTables:
    """A cleartext engine's handle is the ``Table`` itself: nothing needs
    collecting before the executor reads or ships it."""

    def test_ingest_returns_the_table(self, backend):
        table = uniform_key_value_table(20, 4, seed=3)
        assert backend.ingest(table) is table

    @pytest.mark.parametrize("op", list(ENGINE_OPERATORS))
    def test_every_operator_returns_a_table(self, backend, op):
        handle = backend.ingest(uniform_key_value_table(20, 4, seed=3))
        assert type(ENGINE_OPERATORS[op](backend, handle)) is Table

    def test_engines_define_no_collect_or_enumerate(self, backend):
        assert not {"collect", "enumerate_rows"} & set(dir(backend))


class TestWorkTally:
    """The engine counts its work and never prices it."""

    def test_tally_empty_before_any_work(self):
        assert ColumnarBackend().work == CleartextWork()

    def test_tally_counts_jobs_stages_and_records(self):
        backend = ColumnarBackend()
        h = backend.ingest(uniform_key_value_table(10, 3, seed=5))
        backend.project(h, ["key"])
        backend.filter(h, "value", ">", 0)
        assert backend.work == CleartextWork(jobs=1, stages=2, records_processed=20)

    def test_a_filtered_aggregate_charges_as_if_its_rows_were_copied(self):
        """Survivors reduced in place are charged exactly as copied ones: the
        filter its input rows, the aggregate its survivors."""
        table = uniform_key_value_table(200, 3, seed=7)
        tallies = []
        for copy_first in (False, True):
            backend = ColumnarBackend()
            kept = backend.filter(backend.ingest(table), "value", ">", 300)
            if copy_first:
                kept.columns()
            assert (kept.pending_selection() is None) == copy_first
            backend.aggregate(kept, "key", [("sum", "value", "t")])
            assert (kept.pending_selection() is None) == copy_first
            tallies.append(backend.work)
        survivors = int((table.column("value") > 300).sum())
        assert tallies[0] == tallies[1] == CleartextWork(
            jobs=1, stages=2, records_processed=200 + survivors, records_shuffled=survivors
        )

    def test_narrow_operators_shuffle_nothing(self):
        backend = ColumnarBackend()
        h = backend.ingest(uniform_key_value_table(10, 3, seed=6))
        backend.project(h, ["key"])
        backend.filter(h, "value", ">", 0)
        backend.arith(h, "d", "value", "*", 2)
        backend.compare(h, "c", "value", ">", 1)
        assert backend.work.records_shuffled == 0

    @pytest.mark.parametrize(
        "wide_op",
        [
            lambda b, h: b.join(h, h, "key", "key"),
            lambda b, h: b.aggregate(h, "key", [("sum", "value", "t")]),
            lambda b, h: b.distinct(h, ["key"]),
            lambda b, h: b.sort_by(h, "value"),
            lambda b, h: b.merge_sorted([h, h], "value"),
        ],
        ids=["join", "aggregate", "distinct", "sort", "merge"],
    )
    def test_wide_operators_charge_shuffle_volume(self, wide_op):
        backend = ColumnarBackend()
        h = backend.ingest(uniform_key_value_table(10, 3, seed=6))
        wide_op(backend, h)
        assert backend.work.records_shuffled >= 10

    def test_stp_key_sort_is_one_job_and_one_wide_stage(self):
        """The hybrid aggregation's STP step runs on the engine, and is
        tallied as the estimator prices it: one job, one sort stage."""
        backend = ColumnarBackend()
        keys = np.array([5, 2, 9, 2, 7, 5, 2])
        order, same = SelectivelyTrustedParty("stp.example", backend).sort_keys(keys)
        assert order.tolist() == np.argsort(keys, kind="stable").tolist()
        assert same.tolist() == [True, True, False, True, False, False]
        assert backend.work == CleartextWork(
            jobs=1, stages=1, records_processed=14, records_shuffled=7
        )


class TestCleartextCosts:
    """The two price lists share one ``seconds(work)`` shape."""

    @pytest.mark.parametrize("model", [PythonCostModel(), SparkCostModel()])
    def test_zero_work_is_zero_seconds(self, model):
        assert model.seconds(CleartextWork()) == 0.0

    @pytest.mark.parametrize("model", [PythonCostModel(), SparkCostModel()])
    def test_seconds_grow_with_records(self, model):
        small = CleartextWork(jobs=1, stages=1, records_processed=1_000)
        large = CleartextWork(jobs=1, stages=1, records_processed=2_000)
        assert model.seconds(large) > model.seconds(small) > 0.0

    def test_python_startup_is_paid_once(self):
        model = PythonCostModel()
        one = CleartextWork(jobs=1, stages=1, records_processed=100)
        many = CleartextWork(jobs=3, stages=9, records_processed=100)
        assert model.seconds(one) == model.seconds(many)
        assert model.seconds(one) == pytest.approx(
            model.startup_seconds + 100 * model.per_record_seconds
        )

    def test_spark_charges_shuffle_volume_jobs_and_stages(self):
        model = SparkCostModel()
        narrow = CleartextWork(stages=1, records_processed=6_000)
        wide = CleartextWork(stages=1, records_processed=6_000, records_shuffled=6_000)
        assert model.seconds(wide) - model.seconds(narrow) == pytest.approx(
            6_000 * model.per_shuffle_record_seconds / model.total_cores
        )
        assert model.seconds(CleartextWork(jobs=1)) == pytest.approx(model.job_overhead_seconds)
        assert model.seconds(CleartextWork(stages=2)) == pytest.approx(
            2 * (model.stage_overhead_seconds + model.task_overhead_seconds)
        )

    def test_more_cores_mean_fewer_seconds(self):
        work = CleartextWork(jobs=1, stages=2, records_processed=5_000, records_shuffled=5_000)
        assert SparkCostModel(total_cores=1).seconds(work) > SparkCostModel(
            total_cores=32
        ).seconds(work)

    @pytest.mark.parametrize(
        "prices", [PythonCostModel(), SparkCostModel()], ids=["python", "spark"]
    )
    def test_estimator_and_executor_price_a_tally_identically(self, prices):
        """A single-owner projection of 400 rows: under the price list, the
        run's seconds are that list applied to the engine's tally, and the
        estimate — the same executor run on a 400-row shape — is that number.
        The result carries the default list's."""
        party = cc.Party("solo.example")
        with cc.QueryContext() as ctx:
            t = ctx.new_table(
                "t", [cc.Column("key"), cc.Column("value")], at=party, estimated_rows=400
            )
            t.project(["key"]).collect("out", to=[party])
        compiled = cc.compile_query(ctx)
        inputs = {party.name: {"t": uniform_key_value_table(400, 5, seed=7)}}

        runner = cc.QueryRunner([party.name], inputs)
        result = runner.run(compiled)
        engine = runner.local_backends[party.name]
        assert engine.work == CleartextWork(jobs=1, stages=1, records_processed=400)
        assert result.backend_seconds == price(compiled.dag, result.tally).backend_seconds
        priced = price(compiled.dag, result.tally, cleartext=prices)
        assert priced.backend_seconds[f"local:{party.name}"] == prices.seconds(engine.work)

        estimate = cc.PlanEstimator(cleartext=prices).estimate(compiled)
        assert estimate.backend_seconds == priced.backend_seconds
        assert estimate.local_seconds == prices.seconds(engine.work)


@given(
    rows=st.one_of(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50)), max_size=30),
        # single-group tables
        st.lists(st.tuples(st.just(2), st.integers(-50, 50)), min_size=1, max_size=10),
    ),
    func=st.sampled_from(["sum", "count", "min", "max"]),
)
@settings(max_examples=50, deadline=None)
def test_columnar_aggregation_equals_reference_property(rows, func):
    schema = Schema([ColumnDef("key"), ColumnDef("value")])
    table = Table.from_rows(schema, rows) if rows else Table.empty(schema)
    backend = ColumnarBackend()
    agg_col = None if func == "count" else "value"
    result = backend.aggregate(backend.ingest(table), "key", [(func, agg_col, "t")])
    assert result == table.aggregate(["key"], agg_col, func, "t")
