"""Execution and estimate count the same: full-meter equality, operator by operator.

``repro.model.steps`` holds the one formula of every protocol step; the
share engine charges its analytic steps with those meters, and
``repro.model.operators`` composes them — together with the meters of the
rounds the engine really carries — into what the plan estimator prices.
These tests run every MPC operator the estimator prices at small sizes and
require the executed meter to *equal* the operator's model meter fed the
executed row counts, counter for counter: an estimate may be wrong about
how many rows an operator sees, never about what a row costs.
"""

import numpy as np
import pytest

import repro as cc
from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table
from repro.exec.engine import ColumnarBackend
from repro.hybrid import SelectivelyTrustedParty, hybrid_aggregate, hybrid_join, public_join
from repro.model import operators, steps
from repro.model.counters import CostMeter
from repro.model.estimator import EstimatorParams, PlanEstimator
from repro.model.prices import SharemindCostModel
from repro.mpc.oblivious import oblivious_index, oblivious_shuffle
from repro.mpc.sharemind import SharemindBackend
from tests.conftest import PARTIES

SIZES = [1, 2, 9, 64]
COMPARISON_OPS = ["==", "!=", "<", "<=", ">", ">="]


def counted(meter):
    """Every counter an executed and an estimated meter share: the six
    operation counts, ``messages``, ``rounds``, ``bytes_sent``, ``wire_rounds``."""
    counts = meter.counts()
    assert len(counts) == 10
    return counts


def table_of(n, keys=5, seed=0, **extra):
    """``n`` rows of (key, value) plus ``extra`` columns (name -> ColumnType)."""
    rng = np.random.default_rng(seed)
    defs = [ColumnDef("key"), ColumnDef("value"), *(ColumnDef(c, t) for c, t in extra.items())]
    columns = [rng.integers(0, keys, n), rng.integers(0, 100, n)]
    for ctype in extra.values():
        values = rng.integers(0, 2, n)
        columns.append(values + 0.5 if ctype is ColumnType.FLOAT else values)
    return Table(Schema(defs), columns)


@pytest.fixture
def backend():
    return SharemindBackend(PARTIES, seed=42)


def executed(backend, operator, *tables):
    """Share ``tables``, then run ``operator(*handles)`` and return (result,
    the counters of the operator alone)."""
    handles = [backend.ingest(table) for table in tables]
    backend.meter.reset()
    result = operator(*handles)
    return result, counted(backend.meter)


@pytest.mark.parametrize("n", SIZES)
class TestOperatorMetersEqualExecution:
    @pytest.mark.parametrize("ascending", [True, False])
    def test_sort(self, backend, n, ascending):
        _, meter = executed(backend, lambda t: backend.sort_by(t, "key", ascending), table_of(n))
        assert meter == counted(operators.sort_meter(n, 2))

    @pytest.mark.parametrize("runs", [lambda n: [n, n], lambda n: [n, n // 2, 1], lambda n: [n]])
    def test_merge(self, backend, n, runs):
        sizes = runs(n)
        tables = [table_of(size, seed=i).sort_by(["key"]) for i, size in enumerate(sizes)]
        _, meter = executed(backend, lambda *ts: backend.merge_sorted(ts, "key"), *tables)
        assert meter == counted(operators.merge_meter(sizes, 2))

    @pytest.mark.parametrize("op", COMPARISON_OPS)
    def test_filter(self, backend, n, op):
        _, meter = executed(backend, lambda t: backend.filter(t, "value", op, 50), table_of(n))
        assert meter == counted(operators.filter_meter(n, 2, op))

    @pytest.mark.parametrize("m", [0, 1, 7])
    def test_join(self, backend, n, m):
        _, meter = executed(
            backend, lambda l, r: backend.join(l, r, "key", "key"),
            table_of(n), table_of(m, seed=1),
        )
        assert meter == counted(operators.join_meter(n, m, 3))

    @pytest.mark.parametrize("presorted", [False, True])
    @pytest.mark.parametrize("func", ["sum", "count", "min", "max"])
    def test_grouped_aggregate(self, backend, n, func, presorted):
        table = table_of(n).sort_by(["key"]) if presorted else table_of(n)
        result, meter = executed(
            backend, lambda t: backend.aggregate(t, "key", "value", func, "out", presorted), table
        )
        assert meter == counted(operators.aggregate_meter(n, func, presorted=presorted))
        assert result.reveal().equals_unordered(table.aggregate(["key"], "value", func, "out"))

    @pytest.mark.parametrize("func", ["sum", "count"])
    def test_scalar_aggregate(self, backend, n, func):
        _, meter = executed(
            backend, lambda t: backend.aggregate(t, None, "value", func, "out"), table_of(n)
        )
        assert meter == counted(operators.aggregate_meter(n, func, grouped=False))

    def test_distinct(self, backend, n):
        result, meter = executed(backend, lambda t: backend.distinct(t, ["key"]), table_of(n))
        assert meter == counted(operators.distinct_meter(n, result.num_rows))

    @pytest.mark.parametrize("op", COMPARISON_OPS)
    @pytest.mark.parametrize("right, shared, rescaled", [
        ("value", True, False), (3, False, False), (2.5, False, False), ("ratio", True, True),
    ])
    def test_compare(self, backend, n, op, right, shared, rescaled):
        _, meter = executed(
            backend, lambda t: backend.compare(t, "flag", "key", op, right),
            table_of(n, ratio=ColumnType.FLOAT),
        )
        folded = right == 2.5 and op in ("==", "!=")  # decided without a comparison
        expected = CostMeter() if folded else operators.compare_meter(n, op, 3, shared, rescaled)
        assert meter == counted(expected)

    @pytest.mark.parametrize("op, operands", [("and", 2), ("and", 3), ("or", 2), ("or", 3), ("not", 1)])
    def test_bool_op(self, backend, n, op, operands):
        names = ["a", "b", "c"][:operands]
        _, meter = executed(
            backend, lambda t: backend.bool_op(t, "flag", op, names),
            table_of(n, a=ColumnType.INT, b=ColumnType.INT, c=ColumnType.INT),
        )
        assert meter == counted(operators.bool_op_meter(n, op, operands))

    @pytest.mark.parametrize("left, right, shared, fixed_point", [
        ("key", "value", True, False), ("key", 3, False, False),
        ("ratio", "rate", True, True), ("key", "ratio", True, False),
        ("key", 2.5, False, False), ("ratio", 2.5, False, True),
    ])
    def test_multiply(self, backend, n, left, right, shared, fixed_point):
        _, meter = executed(
            backend, lambda t: backend.arith(t, "out", left, "*", right),
            table_of(n, ratio=ColumnType.FLOAT, rate=ColumnType.FLOAT),
        )
        assert meter == counted(operators.multiply_meter(n, 3, shared, fixed_point))

    @pytest.mark.parametrize("right, shared", [("key", True), (4, False)])
    def test_divide(self, backend, n, right, shared):
        _, meter = executed(
            backend, lambda t: backend.arith(t, "out", "value", "/", right), table_of(n)
        )
        assert meter == counted(operators.divide_meter(n, 3, shared))

    @pytest.mark.parametrize("op", ["+", "-"])
    @pytest.mark.parametrize("right, rescaled", [
        ("value", False), (3, False), ("ratio", True), (0.5, True),
    ])
    def test_map(self, backend, n, op, right, rescaled):
        _, meter = executed(
            backend, lambda t: backend.arith(t, "out", "key", op, right),
            table_of(n, ratio=ColumnType.FLOAT),
        )
        assert meter == counted(operators.map_meter(n, rescaled))

    def test_project_concat_limit(self, backend, n):
        _, meter = executed(backend, lambda t: backend.project(t, ["value"]), table_of(n))
        assert meter == counted(steps.local_meter(n, 1))
        _, meter = executed(backend, lambda a, b: backend.concat([a, b]), table_of(n), table_of(3))
        assert meter == counted(steps.local_meter(n + 3, 2))
        _, meter = executed(backend, lambda t: backend.limit(t, 5), table_of(n))
        assert meter == counted(steps.local_meter(min(n, 5), 2))

    def test_input_sharing_and_reveals(self, backend, n):
        table = table_of(n)
        backend.ingest(table)
        assert counted(backend.meter) == counted(operators.share_input_meter(n, 2))
        _, meter = executed(backend, backend.reveal, table)
        assert meter == counted(operators.reveal_meter(n, 2))
        _, meter = executed(backend, lambda t: backend.reveal_to(t, PARTIES[1]), table)
        assert meter == counted(operators.reveal_to_meter(n, 2))
        _, meter = executed(backend, lambda t: backend.reveal_to(t, "stp.example"), table)
        assert meter == counted(operators.reveal_to_meter(n, 2, external=True))


def fresh_stp():
    return SelectivelyTrustedParty("stp.example", ColumnarBackend())


@pytest.mark.parametrize("n", SIZES)
class TestHybridMetersEqualExecution:
    def test_public_join(self, backend, n):
        result, meter = executed(
            backend, lambda l, r: public_join(backend, fresh_stp(), l, r, "key", "key"),
            table_of(n), table_of(7, seed=1),
        )
        assert meter == counted(operators.public_join_meter(n, 7, result.num_rows, 3))

    @pytest.mark.parametrize("right_extra", [{}, {"b": ColumnType.INT}])
    def test_hybrid_join(self, backend, n, right_extra):
        result, meter = executed(
            backend, lambda l, r: hybrid_join(backend, fresh_stp(), l, r, "key", "key"),
            table_of(n), table_of(7, seed=1, **right_extra).project(["key", *right_extra]),
        )
        expected = operators.hybrid_join_meter(n, 7, result.num_rows, 2, 1 + len(right_extra))
        assert meter == counted(expected)

    @pytest.mark.parametrize("func", ["sum", "count"])
    def test_hybrid_aggregate(self, backend, n, func):
        _, meter = executed(
            backend,
            lambda t: hybrid_aggregate(backend, fresh_stp(), t, "key", "value", func, "out"),
            table_of(n),
        )
        assert meter == counted(operators.hybrid_aggregate_meter(n))


class TestStepMetersEqualThePrimitives:
    """The rounds the engine carries itself: ``Network.round`` counts them
    where they happen, and the estimator's formula for each is held to it."""

    @pytest.mark.parametrize("n", [0, *SIZES])
    def test_carried_steps(self, backend, n):
        engine, values = backend.engine, np.arange(n, dtype=np.int64)

        def step(run):
            engine.meter.reset()
            run()
            return counted(engine.meter)

        a = engine.input_vector(values)
        assert counted(engine.meter) == counted(steps.input_meter(n, 3))
        b = engine.input_vector(values, contributor=PARTIES[2])
        flags = engine.input_vector(values % 2)
        assert step(lambda: engine.input_vectors([values, values])) == counted(
            steps.input_meter(2 * n, 3)
        )
        assert step(lambda: engine.open(a)) == counted(steps.open_meter(n, 3))
        assert step(lambda: engine.open_many([a, b])) == counted(steps.open_meter(2 * n, 3))
        assert step(lambda: engine.reveal_many([a, b])) == counted(steps.open_meter(2 * n, 3))
        assert step(lambda: engine.open_flags(flags)) == counted(steps.open_flags_meter(n, 3))
        assert step(lambda: engine.reveal_to_many([a, b], PARTIES[1])) == counted(
            steps.open_to_meter(2 * n, 3)
        )
        assert step(lambda: engine.env_open_many([a, b])) == counted(steps.env_open_meter(2 * n, 3))
        assert step(lambda: engine.mul(a, b)) == counted(steps.beaver_multiply_meter(n, 3))
        assert step(lambda: engine.add(a, b)) == counted(steps.local_meter(n))
        assert step(lambda: engine.scale(a, 3)) == counted(steps.local_meter(n))
        assert step(lambda: engine.less_than(a, b)) == counted(
            operators.compare_meter(n, "<", shared_rhs=True)
        )

    @pytest.mark.parametrize("n, columns", [(0, 2), (1, 1), (10, 2), (10, 0)])
    def test_shuffle(self, backend, n, columns):
        table = table_of(n).project(["key", "value"][:columns])
        _, meter = executed(backend, lambda t: oblivious_shuffle(backend.engine, t.columns), table)
        assert meter == counted(steps.shuffle_meter(n, columns, 3))

    #: (input rows, selected rows): the degenerate routing networks of one
    #: element or none run one routing round, like every ``n + m <= 1``.
    @pytest.mark.parametrize("n, m", [(0, 0), (1, 0), (1, 1), (9, 4), (64, 64)])
    def test_oblivious_index(self, backend, n, m):
        engine = backend.engine
        indices = engine.input_vector(np.arange(m, dtype=np.int64) % max(n, 1))
        _, meter = executed(
            backend,
            lambda t: oblivious_index(engine, t.columns, engine.env_open(indices)),
            table_of(n),
        )
        expected = operators.index_meter(n, m, 2)
        expected.merge(steps.env_open_meter(m, 3))
        assert meter == counted(expected)

    def test_flag_opening_moves_one_bit_per_row(self):
        for n, size in [(0, 0), (1, 1), (8, 1), (9, 2), (30_000, 3750)]:
            network = steps.open_flags_meter(n, 3).network
            assert (network.messages, network.bytes_sent) == (6, 6 * size)
            assert steps.open_meter(n, 3).network.bytes_sent == 6 * 8 * n

    def test_degenerate_oblivious_index_counts(self):
        assert counted(operators.index_meter(0, 0, 2)) == dict(
            counted(CostMeter()), comparisons=1, multiplications=2, rounds=1, messages=3
        )

    def test_index_into_an_empty_relation_is_out_of_range(self, backend):
        engine = backend.engine
        empty = backend.ingest(table_of(0))
        with pytest.raises(IndexError, match="oblivious index out of range"):
            oblivious_index(engine, empty.columns, np.zeros(1, dtype=np.int64))


def filtered_sums(q, parties, tables):
    """Square, filter and sum a three-party union: the executed row counts
    of the MPC nodes that change them, by operator name."""
    columns = [cc.Column("key", cc.INT), cc.Column("value", cc.INT)]
    inputs = [cc.new_table(f"t{i}", columns, at=p) for i, p in enumerate(parties)]
    scaled = cc.concat(inputs).with_column("double", cc.col("value") * cc.col("value"))
    kept = scaled.filter(cc.col("double") > 100)
    kept.aggregate(group=["key"], aggs={"total": cc.SUM("double")}).collect("out", to=parties)

    key, value = (np.concatenate([t.column(c) for t in tables]) for c in ("key", "value"))
    survivors = value**2 > 100
    return {"filter": int(survivors.sum()), "aggregate": len(set(key[survivors]))}


def two_key_join(q, parties, tables):
    """A two-party union joined with a third party on two keys: the union's
    composite-key encode runs under MPC, range check included."""
    columns = [cc.Column("key", cc.INT), cc.Column("value", cc.INT), cc.Column("flag", cc.INT)]
    inputs = [cc.new_table(f"t{i}", columns, at=p) for i, p in enumerate(parties)]
    cc.concat(inputs[:2]).join(inputs[2], on=["key", "flag"]).collect("out", to=parties)

    left = {c: np.concatenate([t.column(c) for t in tables[:2]]) for c in ("key", "flag")}
    right = {c: tables[2].column(c) for c in ("key", "flag")}
    matches = (left["key"][:, None] == right["key"]) & (left["flag"][:, None] == right["flag"])
    return {"join": int(matches.sum())}


class TestEstimatorPricesTheExecutedMeters:
    @pytest.mark.parametrize(
        "plan, extra",
        [(filtered_sums, {}), (two_key_join, {"flag": ColumnType.INT})],
        ids=["filtered-sums", "two-key-join"],
    )
    def test_plan_meters_sum_to_the_executed_profile(self, plan, extra):
        """A whole plan under MPC: the estimator's per-node meters at the
        executed row counts — the output's reveal to each recipient among
        them — are the executed profile."""
        tables = [table_of(20 + i, keys=4, seed=i, **extra) for i in range(3)]
        with cc.QueryContext() as q:
            rows = plan(q, [cc.Party(name) for name in PARTIES], tables)
        compiled = cc.compile_query(q, cc.CompilationConfig(enable_push_down=False))
        data = {name: {f"t{i}": tables[i]} for i, name in enumerate(PARTIES)}
        result = cc.QueryRunner(PARTIES, data).run(compiled)

        mpc_nodes = [node for node in compiled.dag.topological() if node.is_mpc]
        overrides = {f"t{i}": table.num_rows for i, table in enumerate(tables)}
        overrides.update(
            (node.out_rel.name, rows[node.op_name]) for node in mpc_nodes if node.op_name in rows
        )
        assert len(overrides) == 3 + len(rows)
        estimator = PlanEstimator(EstimatorParams(row_overrides=overrides))
        total = CostMeter()
        for estimate in estimator.estimate(compiled).nodes:
            if estimate.node.is_mpc:
                total.merge(
                    estimator._sharemind_meter(estimate.node, estimate.rows_in, estimate.rows_out)
                )
            else:
                total.merge(estimator._reveal_meter(estimate.node, estimate.rows_in))
        profile = {key: result.mpc_profile[key] for key in counted(total)}
        assert profile == counted(total)
        if plan is two_key_join:
            assert any(getattr(node, "key_range_check", None) for node in mpc_nodes)


class TestMpcStartupIsPaidOncePerJob:
    def test_a_plan_of_several_mpc_nodes_pays_one_startup(self):
        """Paper §7 pays the MPC start-up once per job: execution and the
        estimator both charge it on the first MPC node and price every other
        MPC node by its work alone."""
        parties = PARTIES[:2]
        tables = [table_of(20 + i, seed=i) for i in range(2)]
        columns = [cc.Column("key", cc.INT), cc.Column("value", cc.INT)]
        with cc.QueryContext() as q:
            inputs = [cc.new_table(f"t{i}", columns, at=cc.Party(p)) for i, p in enumerate(parties)]
            cc.concat(inputs).aggregate(group=["key"], aggs={"total": cc.SUM("value")}).collect(
                "out", to=[cc.Party(parties[0])]
            )
        compiled = cc.compile_query(q, cc.CompilationConfig(enable_push_down=False))
        mpc_nodes = [node for node in compiled.dag.topological() if node.is_mpc]
        assert len(mpc_nodes) >= 2
        startup = SharemindCostModel.startup_seconds

        data = {p: {f"t{i}": tables[i]} for i, p in enumerate(parties)}
        runner = cc.QueryRunner(parties, data)
        outcome = runner.execute(compiled)
        first, *rest = (outcome.node_durations[node.node_id] for node in mpc_nodes)
        assert first >= startup and all(seconds < startup for seconds in rest)
        assert outcome.backend_seconds["mpc:sharemind"] == pytest.approx(
            startup + SharemindCostModel().work_seconds(runner.mpc_backend.meter)
        )
        result = cc.QueryRunner(parties, data).run(compiled)
        assert startup <= result.simulated_seconds < 2 * startup

        overrides = {f"t{i}": table.num_rows for i, table in enumerate(tables)}
        estimator = PlanEstimator(EstimatorParams(row_overrides=overrides, num_parties=2))
        estimate = estimator.estimate(compiled)
        by_id = {e.node.node_id: e for e in estimate.nodes}
        for i, node in enumerate(mpc_nodes):
            e = by_id[node.node_id]
            work = estimator.sharemind_model.work_seconds(
                estimator._sharemind_meter(node, e.rows_in, e.rows_out)
            )
            assert e.seconds == pytest.approx(work + (startup if i == 0 else 0.0))
        assert startup <= estimate.simulated_seconds < 2 * startup


#: What execution charged when ``repro.model`` was introduced (PR 22: the
#: inline charges of its parent) per operator at 9 and 64 rows, in
#: ``CostMeter.counts()`` order (local_ops, input_records, output_records,
#: multiplications, comparisons, shuffled_elements, messages, bytes_sent,
#: rounds, wire_rounds).  Execution charges the step meters themselves, so
#: the equalities above cannot see a formula move; this ledger can:
#: perturbing any one counter of any one step meter fails it (and
#: ``tests/test_round_budget.py``).  Re-recorded once since, in PR 24, whose
#: schedule change moved network counters only: ``bytes_sent`` wherever a
#: ``compact`` opens its flags one bit wide (filter, join, sum, max, distinct,
#: hybrid-sum), ``messages`` / ``rounds`` / ``wire_rounds`` wherever columns
#: now cross in one round (public-join, hybrid-join, reveal-external).
RECORDED = {
    "sort": (
        lambda n: operators.sort_meter(n, 2),
        (640, 0, 0, 320, 80, 0, 96, 3632, 31, 1),
        (5376, 0, 0, 2688, 672, 0, 195, 29952, 64, 1),
    ),
    "merge": (
        lambda n: operators.merge_meter([n, n // 2, 1], 2),
        (512, 0, 0, 256, 64, 0, 84, 3856, 26, 2),
        (7168, 0, 0, 3584, 896, 0, 138, 45104, 44, 2),
    ),
    "filter": (
        lambda n: operators.filter_meter(n, 2, ">"),
        (9, 0, 9, 0, 9, 27, 24, 1164, 6, 2),
        (64, 0, 64, 0, 64, 192, 24, 8240, 6, 2),
    ),
    "join": (
        lambda n: operators.join_meter(n, 7, 3),
        (315, 0, 63, 0, 63, 252, 24, 9624, 6, 2),
        (2240, 0, 448, 0, 448, 1792, 24, 68432, 6, 2),
    ),
    "sum": (
        lambda n: operators.aggregate_meter(n, "sum"),
        (682, 0, 9, 328, 88, 27, 126, 4644, 40, 2),
        (5693, 0, 64, 2751, 735, 192, 231, 38184, 75, 2),
    ),
    "max-presorted": (
        lambda n: operators.aggregate_meter(n, "max", presorted=True),
        (42, 0, 9, 16, 16, 27, 66, 2452, 19, 3),
        (317, 0, 64, 126, 126, 192, 84, 20520, 25, 3),
    ),
    "distinct": (
        lambda n: operators.distinct_meter(n, 5),
        (696, 0, 9, 328, 88, 27, 126, 4644, 40, 2),
        (5762, 0, 64, 2751, 735, 192, 231, 38184, 75, 2),
    ),
    "compare": (
        lambda n: operators.compare_meter(n, "<=", 3, shared_rhs=True, rescaled=True),
        (18, 0, 0, 0, 9, 0, 9, 936, 2, 1),
        (128, 0, 0, 0, 64, 0, 9, 6656, 2, 1),
    ),
    "or": (
        lambda n: operators.bool_op_meter(n, "or", 3),
        (36, 0, 0, 18, 0, 0, 12, 1728, 2, 2),
        (256, 0, 0, 128, 0, 0, 12, 12288, 2, 2),
    ),
    "multiply-fixed": (
        lambda n: operators.multiply_meter(n, fixed_point=True),
        (0, 0, 0, 18, 0, 0, 15, 1368, 3, 2),
        (0, 0, 0, 128, 0, 0, 15, 9728, 3, 2),
    ),
    "divide": (
        lambda n: operators.divide_meter(n),
        (0, 0, 0, 135, 0, 0, 36, 1584, 11, 1),
        (0, 0, 0, 960, 0, 0, 36, 11264, 11, 1),
    ),
    "public-join": (
        lambda n: operators.public_join_meter(n, 7, {9: 13, 64: 94}[n], 3),
        (39, 0, 16, 0, 0, 0, 6, 768, 1, 1),
        (282, 0, 71, 0, 0, 0, 6, 3408, 1, 1),
    ),
    "hybrid-join": (
        lambda n: operators.hybrid_join_meter(n, 7, {9: 13, 64: 94}[n], 2, 2),
        (0, 26, 16, 320, 210, 71, 101, 7496, 32, 3),
        (0, 188, 71, 3235, 1971, 424, 131, 57152, 42, 3),
    ),
    "hybrid-sum": (
        lambda n: operators.hybrid_aggregate_meter(n),
        (44, 8, 18, 8, 0, 45, 44, 1940, 13, 3),
        (319, 63, 128, 63, 0, 320, 50, 14880, 15, 3),
    ),
    "reveal-external": (
        lambda n: operators.reveal_to_meter(n, 2, external=True),
        (0, 0, 18, 0, 0, 0, 9, 1008, 2, 1),
        (0, 0, 128, 0, 0, 0, 9, 7168, 2, 1),
    ),
}


@pytest.mark.parametrize("name", RECORDED)
def test_operator_meters_stay_on_the_recorded_ledger(name):
    meter, *recorded = RECORDED[name]
    assert [tuple(meter(n).counts().values()) for n in (9, 64)] == recorded


class TestComparatorCounts:
    def test_counts_grow_loglinearly(self):
        small = steps.bitonic_comparator_count(1024)
        large = steps.bitonic_comparator_count(2048)
        # doubling n should far less than quadruple the comparator count
        assert large < 3 * small

    def test_degenerate_sizes(self):
        assert steps.bitonic_comparator_count(0) == 0
        assert steps.bitonic_comparator_count(1) == 0
        assert steps.bitonic_merge_comparator_count(1) == 0

    @pytest.mark.parametrize("n, sort, merge", [(2, 1, 1), (3, 6, 4), (8, 24, 12), (33, 672, 192)])
    def test_padded_network_sizes(self, n, sort, merge):
        assert steps.bitonic_comparator_count(n) == sort
        assert steps.bitonic_merge_comparator_count(n) == merge


class TestAsymptoticRelationships:
    def test_hybrid_join_beats_mpc_join_asymptotically(self):
        n = 50_000
        mpc = operators.join_meter(n, n, 4)
        hybrid = operators.hybrid_join_meter(n, n, n, 2, 3)
        assert hybrid.comparisons < mpc.comparisons / 100

    def test_hybrid_aggregate_needs_no_comparisons(self):
        n = 50_000
        assert operators.hybrid_aggregate_meter(n).comparisons == 0
        assert operators.aggregate_meter(n, "sum").comparisons > 10 * n

    def test_presorted_aggregate_cheaper(self):
        sorted_meter = operators.aggregate_meter(1000, "sum", presorted=True)
        unsorted_meter = operators.aggregate_meter(1000, "sum")
        assert sorted_meter.comparisons < unsorted_meter.comparisons

    def test_oblivious_index_is_loglinear(self):
        n = 10_000
        meter = operators.index_meter(n, n, 1)
        assert meter.comparisons < n * n / 100
        assert meter.comparisons >= 2 * n

    def test_merge_cheaper_than_sort(self):
        n = 4096
        assert (
            steps.bitonic_merge_comparator_count(n) < steps.bitonic_comparator_count(n) / 2
        )

    def test_filter_meter_linear(self):
        small = operators.filter_meter(1_000, 2, "<")
        large = operators.filter_meter(10_000, 2, "<")
        assert 8 <= large.comparisons / small.comparisons <= 12


class TestCostMeter:
    def test_merge_accumulates_all_fields(self):
        a = operators.share_input_meter(10, 1)
        a.merge(operators.reveal_meter(5, 1))
        assert a.input_records == 10
        assert a.output_records == 5
        assert a.network.rounds == 2

    def test_meters_built_from_the_same_step_are_independent(self):
        a, b = operators.share_input_meter(10, 1), operators.share_input_meter(10, 1)
        b.input_records += 5
        b.network.rounds += 1
        assert a.input_records == 10
        assert a.network.rounds == 1

    def test_reset(self):
        a = operators.join_meter(10, 10, 3)
        a.reset()
        assert a.comparisons == 0
        assert a.network.bytes_sent == 0
