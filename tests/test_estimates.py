"""Execution and estimate count the same: operator by operator, and plan by plan.

``repro.model.steps`` holds the one formula of every analytic protocol
step; the share engine charges those meters, and its carried primitives
count the rounds they carry.  The plan estimator runs the very same code on
the engines of :mod:`repro.mpc.shape`, whose relations carry only a row
count.  These tests run every MPC operator at small sizes on data and on
shapes and require the two meters to be *equal*, counter for counter; and
they run whole plans — every differential-corpus plan and the four paper
queries — and require the estimate at the executed row counts to *be* the
execution's accounting: an estimate may be wrong about how many rows an
operator sees, never about what a row costs.
"""

import functools

import numpy as np
import pytest

import repro as cc
from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table
from repro.exec.engine import ColumnarBackend
from repro.hybrid import SelectivelyTrustedParty, hybrid_aggregate, hybrid_join, public_join
from repro.model import steps
from repro.model.counters import CostMeter, NetworkStats
from repro.model.estimator import EstimatorParams, PlanEstimator
from repro.model.prices import (
    GarbledCostModel,
    PythonCostModel,
    SharemindCostModel,
    SparkCostModel,
    price,
)
from repro.mpc.oblivious import oblivious_index, oblivious_shuffle
from repro.mpc.protocols import SharedTable
from repro.mpc.shape import ShapeBackend, ShapeColumnarBackend, ShapeEngine, ShapeSTP
from repro.mpc.sharemind import SharemindBackend
from repro.queries import (
    aspirin_count_query,
    comorbidity_query,
    credit_card_regulation_query,
    market_concentration_query,
)
from repro.workloads.credit import CreditWorkload
from repro.workloads.healthlnk import HealthLNKWorkload
from repro.workloads.taxi import TaxiWorkload
from test_differential import NUM_PLANS, PRICE_LISTS, SEED, build_query, generate_spec
from tests.conftest import PARTIES

SIZES = [1, 2, 9, 64]
PRICE_LIST_IDS = ["python", "spark"]
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


def stp_of(backend):
    """The STP of a hybrid operator: over a cleartext engine, or a shape run's."""
    if isinstance(backend, ShapeBackend):
        return ShapeSTP("stp.example", ShapeColumnarBackend(backend.engine.rows_out))
    return SelectivelyTrustedParty("stp.example", ColumnarBackend())


def executed(backend, operator, *tables):
    """Share ``tables``, run ``operator(backend, *handles)`` on them and on
    their shapes; return (result, the counters of the operator alone, the
    counters of its shape run)."""
    handles = [backend.ingest(table) for table in tables]
    backend.meter.reset()
    result = operator(backend, *handles)
    shape = shape_meter(
        operator, *((t.schema, t.num_rows) for t in tables), rows_out=getattr(result, "num_rows", 0)
    )
    return result, counted(backend.meter), counted(shape)


def shape_meter(operator, *relations, rows_out=0):
    """The meter of ``operator`` run on a fresh shape backend over
    ``(schema, rows)`` relations already inside the MPC; ``rows_out`` is what
    a compaction keeps and an STP key match returns."""
    shape = ShapeBackend(PARTIES, lambda: rows_out)
    engine = shape.engine
    operator(shape, *(
        SharedTable(engine, schema, [engine.fill(0, rows) for _ in schema])
        for schema, rows in relations
    ))
    return shape.meter


def kv(n, **extra):
    """The ``(schema, rows)`` of :func:`table_of`."""
    return table_of(0, **extra).schema, n


@pytest.mark.parametrize("n", SIZES)
class TestOperatorMetersEqualExecution:
    @pytest.mark.parametrize("ascending", [True, False])
    def test_sort(self, backend, n, ascending):
        _, meter, shape = executed(
            backend, lambda b, t: b.sort_by(t, "key", ascending), table_of(n)
        )
        assert meter == shape

    @pytest.mark.parametrize("ascending", [True, False])
    @pytest.mark.parametrize("runs", [lambda n: [n, n], lambda n: [n, n // 2, 1], lambda n: [n]])
    def test_merge(self, backend, n, runs, ascending):
        tables = [
            table_of(size, seed=i).sort_by(["key"], ascending=ascending)
            for i, size in enumerate(runs(n))
        ]
        _, meter, shape = executed(
            backend, lambda b, *ts: b.merge_sorted(ts, "key", ascending), *tables
        )
        assert meter == shape

    @pytest.mark.parametrize("op", COMPARISON_OPS)
    def test_filter(self, backend, n, op):
        _, meter, shape = executed(backend, lambda b, t: b.filter(t, "value", op, 50), table_of(n))
        assert meter == shape

    @pytest.mark.parametrize("m", [0, 1, 7])
    def test_join(self, backend, n, m):
        _, meter, shape = executed(
            backend, lambda b, l, r: b.join(l, r, "key", "key"), table_of(n), table_of(m, seed=1),
        )
        assert meter == shape

    @pytest.mark.parametrize("presorted", [False, True])
    @pytest.mark.parametrize("func", ["sum", "count", "min", "max"])
    def test_grouped_aggregate(self, backend, n, func, presorted):
        table = table_of(n).sort_by(["key"]) if presorted else table_of(n)
        result, meter, shape = executed(
            backend, lambda b, t: b.aggregate(t, "key", [(func, "value", "out")], presorted), table
        )
        assert meter == shape
        assert result.reveal().equals_unordered(table.aggregate(["key"], "value", func, "out"))

    @pytest.mark.parametrize("func", ["sum", "count"])
    def test_scalar_aggregate(self, backend, n, func):
        _, meter, shape = executed(
            backend, lambda b, t: b.aggregate(t, None, [(func, "value", "out")]), table_of(n)
        )
        assert meter == shape

    def test_distinct(self, backend, n):
        _, meter, shape = executed(backend, lambda b, t: b.distinct(t, ["key"]), table_of(n))
        assert meter == shape

    @pytest.mark.parametrize("op", COMPARISON_OPS)
    @pytest.mark.parametrize("right", ["value", 3, 2.5, "ratio"])
    def test_compare(self, backend, n, op, right):
        _, meter, shape = executed(
            backend, lambda b, t: b.compare(t, "flag", "key", op, right),
            table_of(n, ratio=ColumnType.FLOAT),
        )
        assert meter == shape
        folded = right == 2.5 and op in ("==", "!=")  # decided without a comparison
        assert (meter["comparisons"] == 0) == folded

    @pytest.mark.parametrize("op, operands", [("and", 2), ("and", 3), ("or", 2), ("or", 3), ("not", 1)])
    def test_bool_op(self, backend, n, op, operands):
        names = ["a", "b", "c"][:operands]
        _, meter, shape = executed(
            backend, lambda b, t: b.bool_op(t, "flag", op, names),
            table_of(n, a=ColumnType.INT, b=ColumnType.INT, c=ColumnType.INT),
        )
        assert meter == shape

    @pytest.mark.parametrize("op", ["*", "/", "+", "-"])
    @pytest.mark.parametrize("left, right", [
        ("key", "value"), ("key", 3), ("ratio", "rate"), ("key", "ratio"),
        ("key", 2.5), ("ratio", 2.5), ("value", 4), ("key", 0.5),
    ])
    def test_arith(self, backend, n, op, left, right):
        _, meter, shape = executed(
            backend, lambda b, t: b.arith(t, "out", left, op, right),
            table_of(n, ratio=ColumnType.FLOAT, rate=ColumnType.FLOAT),
        )
        assert meter == shape

    def test_project_concat_limit(self, backend, n):
        _, meter, shape = executed(backend, lambda b, t: b.project(t, ["value"]), table_of(n))
        assert meter == shape == counted(steps.local_meter(n, 1))
        _, meter, shape = executed(
            backend, lambda b, x, y: b.concat([x, y]), table_of(n), table_of(3)
        )
        assert meter == shape == counted(steps.local_meter(n + 3, 2))
        _, meter, shape = executed(backend, lambda b, t: b.limit(t, 5), table_of(n))
        assert meter == shape == counted(steps.local_meter(min(n, 5), 2))

    def test_input_sharing_and_reveals(self, backend, n):
        table = table_of(n)
        backend.ingest(table)
        shape = ShapeBackend(PARTIES, lambda: 0)
        shape.ingest(table)
        assert counted(backend.meter) == counted(shape.meter)
        for party in (backend.party_names[1], "stp.example"):
            _, meter, shape = executed(
                backend, lambda b, t: b.engine.reveal_to_many(t.columns, party), table
            )
            assert meter == shape
        _, meter, shape = executed(backend, lambda b, t: b.engine.open_many(t.columns), table)
        assert meter == shape


@pytest.mark.parametrize("n", SIZES)
class TestHybridMetersEqualExecution:
    def test_public_join(self, backend, n):
        _, meter, shape = executed(
            backend, lambda b, l, r: public_join(b, stp_of(b), l, r, "key", "key"),
            table_of(n), table_of(7, seed=1),
        )
        assert meter == shape

    @pytest.mark.parametrize("right_extra", [{}, {"b": ColumnType.INT}])
    def test_hybrid_join(self, backend, n, right_extra):
        _, meter, shape = executed(
            backend, lambda b, l, r: hybrid_join(b, stp_of(b), l, r, "key", "key"),
            table_of(n), table_of(7, seed=1, **right_extra).project(["key", *right_extra]),
        )
        assert meter == shape

    @pytest.mark.parametrize("func", ["sum", "count"])
    def test_hybrid_aggregate(self, backend, n, func):
        _, meter, shape = executed(
            backend,
            lambda b, t: hybrid_aggregate(b, stp_of(b), t, "key", [(func, "value", "out")]),
            table_of(n),
        )
        assert meter == shape


class TestCarriedPrimitivesRunOnShapes:
    """The rounds the engine carries itself: ``Network.round`` counts and
    schedules them where they happen, on data and on shapes alike."""

    @pytest.mark.parametrize("n", [0, *SIZES])
    def test_carried_steps(self, backend, n):
        values = np.arange(n, dtype=np.int64)
        primitives = {
            "input": lambda e, a, b, flags: e.input_vectors([values, values]),
            "open": lambda e, a, b, flags: e.open(a),
            "open-many": lambda e, a, b, flags: e.open_many([a, b]),
            "hand-back": lambda e, a, b, flags: e.hand_back(
                PARTIES[0], (values, values % 2 == 1), [(np.int64, n), (bool, n)]
            ),
            "open-flags": lambda e, a, b, flags: e.open_flags(flags),
            "reveal-to": lambda e, a, b, flags: e.reveal_to_many([a, b], PARTIES[1]),
            "env-open": lambda e, a, b, flags: e.env_open_many([a, b]),
            "multiply": lambda e, a, b, flags: e.mul(a, b),
            "add": lambda e, a, b, flags: e.add(a, b),
            "scale": lambda e, a, b, flags: e.scale(a, 3),
            "less-than": lambda e, a, b, flags: e.less_than(a, b),
        }
        engines = [backend.engine, ShapeEngine(PARTIES, lambda: 0)]
        operands = [
            (
                e.input_vector(values),
                e.input_vector(values, contributor=PARTIES[2]),
                e.input_vector(values % 2),
            )
            for e in engines
        ]
        for name, run in primitives.items():
            got = []
            for engine, vectors in zip(engines, operands):
                engine.meter.reset()
                engine.network.schedule.clear()
                run(engine, *vectors)
                got.append((counted(engine.meter), engine.network.schedule))
            assert got[0] == got[1], name

    @pytest.mark.parametrize("n, columns", [(0, 2), (1, 1), (10, 2), (10, 0)])
    def test_shuffle(self, backend, n, columns):
        table = table_of(n).project(["key", "value"][:columns])
        _, meter, shape = executed(
            backend, lambda b, t: oblivious_shuffle(b.engine, t.columns), table
        )
        assert meter == shape == counted(steps.shuffle_meter(n, columns, 3))

    #: (input rows, selected rows): the degenerate routing networks of one
    #: element or none run one routing round, like every ``n + m <= 1``.
    @pytest.mark.parametrize("n, m", [(0, 0), (1, 0), (1, 1), (9, 4), (64, 64)])
    def test_oblivious_index(self, backend, n, m):
        engine = backend.engine
        indices = engine.input_vector(np.arange(m, dtype=np.int64) % max(n, 1))
        _, meter, shape = executed(
            backend,
            lambda b, t: oblivious_index(b.engine, t.columns, b.engine.env_open(indices)),
            table_of(n),
        )
        expected = steps.index_routing_meter(n, m, 2, 3)
        # The caller's env-open of the m indices: one round, 6 messages.
        expected.merge(CostMeter(network=NetworkStats(6, 6 * 8 * m, 1, 1)))
        assert meter == shape == counted(expected)

    def test_flag_opening_moves_one_bit_per_row(self):
        for n, size in [(0, 0), (1, 1), (8, 1), (9, 2), (30_000, 3750)]:
            engine = ShapeEngine(PARTIES, lambda: 0)
            engine.open_flags(engine.fill(0, n))
            engine.open(engine.fill(0, n))
            assert engine.network.schedule == [
                ("open-flags", 6, 6 * size), ("open-share", 6, 6 * 8 * n)
            ]

    def test_degenerate_oblivious_index_counts(self):
        assert counted(steps.index_routing_meter(0, 0, 2, 3)) == dict(
            counted(CostMeter()), comparisons=1, multiplications=2, rounds=1, messages=3
        )

    def test_index_into_an_empty_relation_is_out_of_range(self, backend):
        engine = backend.engine
        empty = backend.ingest(table_of(0))
        with pytest.raises(IndexError, match="oblivious index out of range"):
            oblivious_index(engine, empty.columns, np.zeros(1, dtype=np.int64))


class RowCountingRunner(cc.QueryRunner):
    """The in-process runner, remembering every relation's executed row count."""

    def execute(self, compiled):
        self.rows = {}
        return super().execute(compiled)

    def _execute_node(self, node, outputs):
        entry = super()._execute_node(node, outputs)
        name = node.out_rel.name
        self.rows[name] = (outputs[name] if entry.handle is None else entry.handle).num_rows
        return entry


def paper_queries():
    """``(name, QueryContext, inputs, config fields)`` of the four paper
    queries on their synthetic workloads, HHI with push-down on and off."""
    taxi = TaxiWorkload(num_companies=3, zero_fare_fraction=0.05, seed=17)
    tables = taxi.party_tables(3, 200)
    for push_down in (True, False):
        spec = market_concentration_query(rows_per_party=200)
        inputs = {party: {f"trips_{i}": tables[i]} for i, party in enumerate(spec.parties)}
        yield f"hhi-push-down-{push_down}", spec.context, inputs, {"enable_push_down": push_down}
    demographics, scores = CreditWorkload(num_zip_codes=15, seed=19).generate(
        num_people=90, rows_per_agency=40
    )
    spec = credit_card_regulation_query(rows_demographics=90, rows_per_agency=40)
    regulator, bank_a, bank_b = spec.parties
    inputs = {
        regulator: {"demographics": demographics},
        bank_a: {"scores_0": scores[0]},
        bank_b: {"scores_1": scores[1]},
    }
    yield "credit", spec.context, inputs, {}
    health = HealthLNKWorkload(patient_overlap=0.1, seed=23)
    diagnoses, medications = health.aspirin_count_inputs(50)
    spec = aspirin_count_query(rows_per_relation=50)
    inputs = {
        party: {f"diagnoses_{i}": diagnoses[i], f"medications_{i}": medications[i]}
        for i, party in enumerate(spec.parties)
    }
    yield "aspirin", spec.context, inputs, {}
    diagnoses = HealthLNKWorkload(distinct_diagnosis_fraction=0.15, seed=29).comorbidity_inputs(60)
    spec = comorbidity_query(rows_per_relation=60, top_k=5)
    inputs = {party: {f"diagnoses_{i}": diagnoses[i]} for i, party in enumerate(spec.parties)}
    yield "comorbidity", spec.context, inputs, {}


PAPER_QUERIES = {name: case for name, *case in paper_queries()}


@functools.cache
def counted_run(query: int | str) -> tuple:
    """Compile and execute a corpus plan (by number) or a paper query (by
    name) once, counting each relation's rows: every price list prices this
    one run."""
    if isinstance(query, int):
        context, inputs = build_query(generate_spec(SEED + query))
        fields = {}
    else:
        context, inputs, fields = PAPER_QUERIES[query]
    compiled = cc.compile_query(context, cc.CompilationConfig(**fields))
    parties = sorted(compiled.dag.parties() | set(inputs))
    runner = RowCountingRunner(parties, inputs, compiled.config)
    outcome = runner.execute(compiled)
    return compiled, runner.rows, outcome


class TestEstimateIsExecution:
    """With every relation's row count set to the executed one, the estimate
    is the execution's accounting under every price list: seconds per
    engine, MPC counters, the rounds of each network and the leakage report.
    A plan executes once; each price list prices that one run."""

    @staticmethod
    def assert_estimate_is_execution(run, prices):
        compiled, rows, outcome = run
        assert set(rows) == {node.out_rel.name for node in compiled.dag.topological()}
        executed = price(compiled.dag, outcome.tally, cleartext=prices)
        estimate = PlanEstimator(EstimatorParams(row_overrides=rows), cleartext=prices).estimate(
            compiled
        )

        assert estimate.backend_seconds.keys() == executed.backend_seconds.keys()
        for engine, seconds in executed.backend_seconds.items():
            assert estimate.backend_seconds[engine] == pytest.approx(seconds, rel=1e-9), engine
        assert estimate.simulated_seconds == pytest.approx(executed.simulated_seconds, rel=1e-9)
        assert estimate.mpc_profile == outcome.mpc_profile
        assert estimate.schedule == outcome.schedule
        assert estimate.leakage.events == outcome.leakage.events

    @pytest.mark.parametrize("cleartext", PRICE_LISTS, ids=PRICE_LIST_IDS)
    @pytest.mark.parametrize("plan", range(NUM_PLANS))
    def test_corpus_plan(self, plan, cleartext):
        self.assert_estimate_is_execution(counted_run(plan), cleartext)

    @pytest.mark.parametrize("cleartext", PRICE_LISTS, ids=PRICE_LIST_IDS)
    @pytest.mark.parametrize("query", PAPER_QUERIES)
    def test_paper_query(self, query, cleartext):
        self.assert_estimate_is_execution(counted_run(query), cleartext)


class TestExplainPredictsTheLeakage:
    """``explain()`` prints one shape run at the tables' ``estimated_rows``,
    which the paper queries declare as their inputs' row counts: its
    predicted leakage names every event of the executed report, in order.
    Only an event's detail may differ, where a row count downstream of an
    input is an estimate."""

    @pytest.mark.parametrize("query", PAPER_QUERIES)
    def test_explain_names_every_executed_disclosure(self, query):
        context, inputs, fields = PAPER_QUERIES[query]
        compiled = cc.compile_query(context, cc.CompilationConfig(**fields))
        parties = sorted(compiled.dag.parties() | set(inputs))
        executed = cc.QueryRunner(parties, inputs, compiled.config).run(compiled).leakage.events
        predicted = compiled.explain().split("== predicted leakage ==\n")[1].splitlines()
        assert executed and len(predicted) == len(executed)
        for line, event in zip(predicted, executed):
            assert line.split()[:2] == [event.kind, f"rel={event.relation}"], (line, event)


def credit_like_plan() -> cc.CompiledQuery:
    """A join on a key that ``b`` lets ``a`` see, then an aggregate: two
    hybrid MPC nodes between two parties' local inputs and output."""
    pa, pb = cc.Party("a.example"), cc.Party("b.example")
    with cc.QueryContext() as q:
        demo = q.new_table("demo", [cc.Column("ssn"), cc.Column("zip")], at=pa, estimated_rows=50)
        scores = q.new_table(
            "scores", [cc.Column("ssn", trust=[pa]), cc.Column("score")], at=pb, estimated_rows=40
        )
        joined = demo.join(scores, on="ssn")
        joined.aggregate(group=["zip"], aggs={"total": cc.SUM("score")}).collect("out", to=[pa])
    return cc.compile_query(q)


class TestExplainCoversThePlan:
    """The estimate ``explain()`` prints places every operator of the plan
    at one locus and prices each locus on its own engine."""

    def test_breakdown_lists_every_node_once_in_plan_order(self):
        compiled = credit_like_plan()
        section = compiled.explain().split("== estimate (shape run at estimated_rows) ==\n")[1]
        rows = section.split("\n\n")[0].splitlines()[1:-1]  # no header, no total
        listed = [tuple(line.split()[:2]) for line in rows]
        assert listed == [(n.op_name, n.out_rel.name) for n in compiled.dag.topological()]

    def test_every_node_runs_at_one_locus_after_its_inputs(self):
        compiled = credit_like_plan()
        estimate = PlanEstimator().estimate(compiled)
        parties = compiled.dag.parties()
        seen: set[str] = set()
        for ne in estimate.nodes:
            assert all(parent.out_rel.name in seen for parent in ne.node.parents), ne.locus
            seen.add(ne.node.out_rel.name)
            if ne.node.is_mpc:
                assert ne.locus == "mpc"
            else:
                kind, party = ne.locus.split(":")
                assert kind == "local" and party in parties
        assert [ne.node.op_name for ne in estimate.nodes if ne.locus == "mpc"] == [
            "hybrid_join", "hybrid_aggregate"
        ]

    @pytest.mark.parametrize(
        "mpc", [SharemindCostModel(), GarbledCostModel()], ids=["sharemind", "obliv-c"]
    )
    def test_every_locus_is_priced_by_its_engine(self, mpc):
        estimate = PlanEstimator(mpc=mpc).estimate(credit_like_plan())
        loci = {ne.locus for ne in estimate.nodes}
        engines = {f"mpc:{mpc.name}" if locus == "mpc" else locus for locus in loci}
        assert set(estimate.backend_seconds) == engines
        assert estimate.mpc_seconds > 0 and estimate.local_seconds > 0

    def test_the_cleartext_price_list_changes_prices_not_the_run(self):
        python = PlanEstimator(cleartext=PythonCostModel()).estimate(credit_like_plan())
        spark = PlanEstimator(cleartext=SparkCostModel()).estimate(credit_like_plan())
        assert spark.schedule == python.schedule
        assert spark.leakage.summary() == python.leakage.summary()
        assert spark.backend_seconds["mpc:sharemind"] == python.backend_seconds["mpc:sharemind"]
        assert spark.local_seconds != python.local_seconds


class TestMpcStartupIsPaidOncePerJob:
    def test_a_plan_of_several_mpc_nodes_pays_one_startup(self):
        """Paper §7 pays the MPC start-up once per job: execution charges it
        on the first MPC node and prices every other MPC node by its work
        alone, and so does the estimate, which runs the same executor."""
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
        runner = RowCountingRunner(parties, data)
        executed = price(compiled.dag, runner.execute(compiled).tally)
        first, *rest = (executed.node_seconds[node.node_id] for node in mpc_nodes)
        assert first >= startup and all(seconds < startup for seconds in rest)
        assert executed.backend_seconds["mpc:sharemind"] == pytest.approx(
            startup + SharemindCostModel().work_seconds(runner.mpc_backend.meter)
        )
        result = cc.QueryRunner(parties, data).run(compiled)
        assert startup <= result.simulated_seconds < 2 * startup

        estimate = PlanEstimator(EstimatorParams(row_overrides=runner.rows)).estimate(compiled)
        by_id = {e.node.node_id: e for e in estimate.nodes}
        for node in mpc_nodes:
            assert by_id[node.node_id].seconds == pytest.approx(executed.node_seconds[node.node_id])
        assert startup <= estimate.simulated_seconds < 2 * startup


#: What execution charged per operator at 9 and 64 rows, in
#: ``CostMeter.counts()`` order (local_ops, input_records, output_records,
#: multiplications, comparisons, shuffled_elements, messages, bytes_sent,
#: rounds, wire_rounds), each produced by a shape run of the operator.
#: Execution and its shape run charge the same step meters, so the
#: equalities above cannot see a formula move; this ledger can: perturbing
#: any one counter of any one step meter fails it (and
#: ``tests/test_round_budget.py``).  Its re-recordings moved network counters
#: only: ``bytes_sent`` where a ``compact`` began opening its flags one bit
#: wide (filter, join, sum, max, distinct, hybrid-sum), ``messages`` /
#: ``rounds`` / ``wire_rounds`` where columns began crossing in one round
#: (public-join, hybrid-join, reveal-external), and ``wire_rounds`` alone
#: where what the STP hands back began to be shared with no round, priced as
#: before (hybrid-join, hybrid-sum), and ``messages`` / ``bytes_sent`` /
#: ``rounds`` where the keys began to be revealed to the STP only: this STP
#: is no compute party, so the reveal pays the external leg (hybrid-join,
#: hybrid-sum), and ``messages`` / ``bytes_sent`` where the operands of an
#: ideal functionality began to go to the last compute party only (filter,
#: join, max-presorted, compare, multiply-fixed, divide), and ``messages`` /
#: ``bytes_sent`` / ``rounds`` / ``wire_rounds`` where a sort key began to go
#: to the last compute party only, which hands back the order and the group
#: flags in a second round (sort, merge, sum, max-presorted, distinct).
RECORDED = {
    "sort": (
        lambda n: shape_meter(lambda b, t: b.sort_by(t, "key"), kv(n)),
        (640, 0, 0, 320, 80, 0, 94, 3488, 32, 2),
        (5376, 0, 0, 2688, 672, 0, 193, 28928, 65, 2),
    ),
    "merge": (
        lambda n: shape_meter(lambda b, *ts: b.merge_sorted(ts, "key"), kv(n), kv(n // 2), kv(1)),
        (512, 0, 0, 256, 64, 0, 80, 3424, 28, 4),
        (7168, 0, 0, 3584, 896, 0, 134, 42016, 46, 4),
    ),
    "filter": (
        lambda n: shape_meter(lambda b, t: b.filter(t, "value", ">", 50), kv(n)),
        (9, 0, 9, 0, 9, 27, 20, 876, 6, 2),
        (64, 0, 64, 0, 64, 192, 20, 6192, 6, 2),
    ),
    "join": (
        lambda n: shape_meter(lambda b, l, r: b.join(l, r, "key", "key"), kv(n), kv(7)),
        (315, 0, 63, 0, 63, 252, 20, 7608, 6, 2),
        (2240, 0, 448, 0, 448, 1792, 20, 54096, 6, 2),
    ),
    "sum": (
        lambda n: shape_meter(lambda b, t: b.aggregate(t, "key", [("sum", "value", "out")]), kv(n)),
        (682, 0, 9, 328, 88, 27, 124, 4502, 41, 3),
        (5693, 0, 64, 2751, 735, 192, 229, 37176, 76, 3),
    ),
    "max-presorted": (
        lambda n: shape_meter(
            lambda b, t: b.aggregate(t, "key", [("max", "value", "out")], presorted=True), kv(n)
        ),
        (42, 0, 9, 16, 16, 27, 60, 1878, 20, 4),
        (317, 0, 64, 126, 126, 192, 78, 16440, 26, 4),
    ),
    "distinct": (
        lambda n: shape_meter(lambda b, t: b.distinct(t, ["key"]), kv(n), rows_out=5),
        (376, 0, 9, 168, 88, 27, 124, 3222, 41, 3),
        (3074, 0, 64, 1407, 735, 192, 229, 26424, 76, 3),
    ),
    "compare": (
        lambda n: shape_meter(
            lambda b, t: b.compare(t, "flag", "key", "<=", "ratio"), kv(n, ratio=ColumnType.FLOAT)
        ),
        (18, 0, 0, 0, 9, 0, 5, 360, 2, 1),
        (128, 0, 0, 0, 64, 0, 5, 2560, 2, 1),
    ),
    "or": (
        lambda n: shape_meter(
            lambda b, t: b.bool_op(t, "flag", "or", ["a", "b", "c"]),
            kv(n, a=ColumnType.INT, b=ColumnType.INT, c=ColumnType.INT),
        ),
        (36, 0, 0, 18, 0, 0, 12, 1728, 2, 2),
        (256, 0, 0, 128, 0, 0, 12, 12288, 2, 2),
    ),
    "multiply-fixed": (
        lambda n: shape_meter(
            lambda b, t: b.arith(t, "out", "ratio", "*", "rate"),
            kv(n, ratio=ColumnType.FLOAT, rate=ColumnType.FLOAT),
        ),
        (0, 0, 0, 18, 0, 0, 11, 1080, 3, 2),
        (0, 0, 0, 128, 0, 0, 11, 7680, 3, 2),
    ),
    "divide": (
        lambda n: shape_meter(lambda b, t: b.arith(t, "out", "value", "/", "key"), kv(n)),
        (0, 0, 0, 135, 0, 0, 32, 1008, 11, 1),
        (0, 0, 0, 960, 0, 0, 32, 7168, 11, 1),
    ),
    "public-join": (
        lambda n: shape_meter(
            lambda b, l, r: public_join(b, stp_of(b), l, r, "key", "key"),
            kv(n), kv(7), rows_out={9: 13, 64: 94}[n],
        ),
        (39, 0, 16, 0, 0, 0, 6, 768, 1, 1),
        (282, 0, 71, 0, 0, 0, 6, 3408, 1, 1),
    ),
    "hybrid-join": (
        lambda n: shape_meter(
            lambda b, l, r: hybrid_join(b, stp_of(b), l, r, "key", "key"),
            kv(n), kv(7), rows_out={9: 13, 64: 94}[n],
        ),
        (0, 26, 16, 320, 210, 71, 104, 7624, 33, 2),
        (0, 188, 71, 3235, 1971, 424, 134, 57720, 43, 2),
    ),
    "hybrid-sum": (
        lambda n: shape_meter(
            lambda b, t: hybrid_aggregate(b, stp_of(b), t, "key", [("sum", "value", "out")]), kv(n)
        ),
        (44, 8, 18, 8, 0, 45, 47, 2012, 14, 2),
        (319, 63, 128, 63, 0, 320, 53, 15392, 16, 2),
    ),
    "reveal-external": (
        lambda n: shape_meter(
            lambda b, t: b.engine.reveal_to_many(t.columns, "stp.example"), kv(n)
        ),
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
        mpc = shape_meter(lambda b, l, r: b.join(l, r, "key", "key"), kv(n), kv(n))
        hybrid = shape_meter(
            lambda b, l, r: hybrid_join(b, stp_of(b), l, r, "key", "key"), kv(n), kv(n), rows_out=n
        )
        assert hybrid.comparisons < mpc.comparisons / 100

    def test_hybrid_aggregate_needs_no_comparisons(self):
        n = 50_000
        hybrid = shape_meter(
            lambda b, t: hybrid_aggregate(b, stp_of(b), t, "key", [("sum", "value", "out")]), kv(n)
        )
        assert hybrid.comparisons == 0
        assert self.grouped_sum(n).comparisons > 10 * n

    def test_presorted_aggregate_cheaper(self):
        presorted = self.grouped_sum(1000, presorted=True)
        assert presorted.comparisons < self.grouped_sum(1000).comparisons

    @staticmethod
    def grouped_sum(n, presorted=False):
        return shape_meter(
            lambda b, t: b.aggregate(t, "key", [("sum", "value", "out")], presorted), kv(n)
        )

    def test_oblivious_index_is_loglinear(self):
        n = 10_000
        meter = steps.index_routing_meter(n, n, 1, 3)
        assert meter.comparisons < n * n / 100
        assert meter.comparisons >= 2 * n

    def test_merge_cheaper_than_sort(self):
        n = 4096
        assert (
            steps.bitonic_merge_comparator_count(n) < steps.bitonic_comparator_count(n) / 2
        )

    def test_filter_meter_linear(self):
        small, large = (
            shape_meter(lambda b, t: b.filter(t, "value", "<", 50), kv(n)) for n in (1_000, 10_000)
        )
        assert 8 <= large.comparisons / small.comparisons <= 12

    def test_shape_runs_price_a_billion_rows_at_once(self):
        n = 1_300_000_000
        meter = shape_meter(lambda b, t: b.sort_by(t, "key"), kv(n))
        assert meter.comparisons == steps.bitonic_comparator_count(n)


class TestCostMeter:
    def test_merge_accumulates_all_fields(self):
        a = steps.comparison_meter(10, 3)
        a.merge(steps.external_leg_meter(5, 3))
        assert a.comparisons == 10
        assert a.output_records == 5
        assert a.network.rounds == 2

    def test_meters_built_from_the_same_step_are_independent(self):
        a, b = steps.comparison_meter(10, 3), steps.comparison_meter(10, 3)
        b.comparisons += 5
        b.network.rounds += 1
        assert a.comparisons == 10
        assert a.network.rounds == 1

    def test_reset(self):
        a = shape_meter(lambda b, l, r: b.join(l, r, "key", "key"), kv(10), kv(10))
        a.reset()
        assert a.comparisons == 0
        assert a.network.bytes_sent == 0
