"""Tests for the plan cost estimator used by the benchmark harness."""

import pytest

import repro as cc
from repro.core.config import CompilationConfig
from repro.model.estimator import EstimatedOOM, EstimatorParams, PlanEstimator
from repro.model.prices import GarbledCostModel, SparkCostModel
from repro.core.lang import QueryContext
from repro.queries import credit_card_regulation_query, market_concentration_query

PA, PB, PC = cc.Party("a.example"), cc.Party("b.example"), cc.Party("c.example")
KV = [cc.Column("k"), cc.Column("v")]


def single_operator_query(op: str, rows: int, parties=(PA, PB, PC), **kwargs):
    """Build a Figure-1-style microbenchmark query: concat + one operator."""
    with QueryContext() as ctx:
        tables = [
            ctx.new_table(f"t{i}", KV, at=p, estimated_rows=rows // len(parties))
            for i, p in enumerate(parties)
        ]
        combined = ctx.concat(tables)
        if op == "sum":
            out = combined.aggregate(aggs={"total": cc.SUM("v")})
        elif op == "project":
            out = combined.project(["k"])
        elif op == "join":
            extra = ctx.new_table(
                "tj", KV, at=parties[0], estimated_rows=rows // len(parties)
            )
            out = combined.join(extra, on="k")
        else:
            raise ValueError(op)
        out.collect("out", to=[parties[0]])
    return ctx


def mpc_only_config():
    return CompilationConfig(
        enable_push_down=False,
        enable_push_up=False,
        enable_hybrid_operators=False,
    )


class TestScalingBehaviour:
    def test_runtime_grows_with_input_size(self):
        estimator = PlanEstimator()
        small = estimator.estimate(
            cc.compile_query(single_operator_query("sum", 1_000), mpc_only_config())
        )
        large = estimator.estimate(
            cc.compile_query(single_operator_query("sum", 1_000_000), mpc_only_config())
        )
        assert large.simulated_seconds > small.simulated_seconds * 10

    def test_mpc_join_scales_quadratically(self):
        estimator = PlanEstimator()
        t1 = estimator.estimate(
            cc.compile_query(single_operator_query("join", 3_000), mpc_only_config())
        ).simulated_seconds
        t2 = estimator.estimate(
            cc.compile_query(single_operator_query("join", 30_000), mpc_only_config())
        ).simulated_seconds
        assert t2 / t1 > 30  # super-linear growth

    def test_cleartext_spark_is_orders_of_magnitude_faster_than_mpc(self):
        """The Figure 1 headline: Spark handles 10M records in seconds while
        MPC cannot."""
        mpc = PlanEstimator().estimate(
            cc.compile_query(single_operator_query("sum", 10_000_000), mpc_only_config())
        )
        # Single-owner query: everything stays local.
        with QueryContext() as ctx:
            t = ctx.new_table("t", KV, at=PA, estimated_rows=10_000_000)
            t.aggregate(aggs={"total": cc.SUM("v")}).collect("out", to=[PA])
        clear = PlanEstimator(cleartext=SparkCostModel()).estimate(cc.compile_query(ctx))
        assert clear.simulated_seconds < 60
        assert mpc.simulated_seconds > 10 * clear.simulated_seconds

    def test_timeout_flag(self):
        estimator = PlanEstimator(EstimatorParams(timeout_seconds=1.0))
        result = estimator.estimate(
            cc.compile_query(single_operator_query("join", 100_000), mpc_only_config())
        )
        assert result.timed_out


class TestOblivCOOM:
    def test_garbled_join_estimate_raises_oom_at_paper_scale(self):
        compiled = cc.compile_query(
            single_operator_query("join", 30_000, parties=(PA, PB)), mpc_only_config()
        )
        with pytest.raises(EstimatedOOM) as err:
            PlanEstimator(mpc=GarbledCostModel()).estimate(compiled)
        assert err.value.operator == "join"
        assert err.value.required_bytes > err.value.limit_bytes == 4 * 1024**3

    def test_garbled_gate_input_and_memory_accounting(self):
        """The one copy of the Obliv-C formulas: a join garbles one
        comparison plus one mux per output column for every pair of rows,
        OT-transfers every cleartext input bit, and holds the inputs' wire
        labels plus per-pair state; its seconds are the garbled price list's."""
        config = mpc_only_config()
        compiled = cc.compile_query(
            single_operator_query("join", 2_000, parties=(PA, PB)), config
        )
        estimator = PlanEstimator(mpc=GarbledCostModel())
        estimate = estimator.estimate(compiled)
        join = next(ne for ne in estimate.nodes if ne.node.op_name == "join")
        left, right = join.rows_in
        gates, input_bits, memory = estimator._garbled_cost(
            join.node, join.rows_in, join.rows_out
        )
        assert gates == left * right * (64 + 64 * len(join.node.out_rel.schema))
        assert input_bits == right * 2 * 64  # the concat side is already in MPC
        assert memory == (left + right) * 2 * 8192 + left * right * 16
        assert join.seconds == GarbledCostModel().seconds(gates, input_bits)
        small = estimator.estimate(
            cc.compile_query(single_operator_query("join", 200, parties=(PA, PB)), config)
        )
        assert small.mpc_seconds < estimate.mpc_seconds

    def test_garbled_project_survives_small_inputs_but_ooms_large(self):
        config = mpc_only_config()
        estimator = PlanEstimator(mpc=GarbledCostModel())
        small = cc.compile_query(
            single_operator_query("project", 10_000, parties=(PA, PB)), config
        )
        estimator.estimate(small)  # should not raise
        large = cc.compile_query(
            single_operator_query("project", 600_000, parties=(PA, PB)), config
        )
        with pytest.raises(EstimatedOOM):
            estimator.estimate(large)


class TestOptimizationEffects:
    def test_pushdown_reduces_mpc_time_for_market_query(self):
        rows = 1_000_000
        optimized = cc.compile_query(
            market_concentration_query(rows_per_party=rows).context
        )
        baseline = cc.compile_query(
            market_concentration_query(rows_per_party=rows).context,
            CompilationConfig(enable_push_down=False),
        )
        params = EstimatorParams(filter_selectivity=0.98, distinct_fraction=3 / rows)
        estimator = PlanEstimator(params)
        opt_estimate = estimator.estimate(optimized)
        base_estimate = estimator.estimate(baseline)
        assert opt_estimate.mpc_seconds < base_estimate.mpc_seconds / 100

    def test_hybrid_operators_reduce_credit_query_time(self):
        rows = 30_000
        spec_hybrid = credit_card_regulation_query(
            rows_demographics=rows, rows_per_agency=rows // 2
        )
        spec_plain = credit_card_regulation_query(
            rows_demographics=rows, rows_per_agency=rows // 2
        )
        hybrid = cc.compile_query(spec_hybrid.context)
        plain = cc.compile_query(
            spec_plain.context, CompilationConfig(enable_hybrid_operators=False)
        )
        params = EstimatorParams(distinct_fraction=0.01, join_selectivity=1.0)
        estimator = PlanEstimator(params)
        assert (
            estimator.estimate(hybrid).simulated_seconds
            < estimator.estimate(plain).simulated_seconds / 5
        )

    def test_row_overrides_change_estimates(self):
        compiled = cc.compile_query(single_operator_query("sum", 1000), mpc_only_config())
        concat_name = next(
            n.out_rel.name for n in compiled.dag.topological() if n.op_name == "concat"
        )
        base = PlanEstimator().estimate(compiled)
        bigger = PlanEstimator(
            EstimatorParams(row_overrides={concat_name: 10_000_000})
        ).estimate(compiled)
        assert bigger.simulated_seconds > base.simulated_seconds
        # The override is the relation's size for everything downstream.
        concat = next(ne for ne in bigger.nodes if ne.node.out_rel.name == concat_name)
        consumer = next(ne for ne in bigger.nodes if concat.node in ne.node.parents)
        assert concat.rows_out == consumer.rows_in[0] == 10_000_000

    def test_breakdown_lists_all_nodes(self):
        compiled = cc.compile_query(single_operator_query("sum", 1000), mpc_only_config())
        estimate = PlanEstimator().estimate(compiled)
        assert len(estimate.nodes) == len(compiled.dag.topological())
        text = estimate.breakdown()
        assert "total simulated seconds" in text


class TestParamsAreValidated:
    """Statistics outside their domain used to price nonsense (a filter
    keeping -500 rows made the estimate *drop*); now they are refused, and
    an override naming no relation of the plan is an error, not a no-op."""

    @pytest.mark.parametrize("name", ["filter_selectivity", "distinct_fraction"])
    @pytest.mark.parametrize("value", [-0.5, 2.0])
    def test_fractions_outside_zero_one(self, name, value):
        with pytest.raises(ValueError, match=name):
            EstimatorParams(**{name: value})

    def test_negative_join_selectivity(self):
        with pytest.raises(ValueError, match="join_selectivity"):
            EstimatorParams(join_selectivity=-1.0)

    @pytest.mark.parametrize("rows", [-1, 2.5, "10"])
    def test_override_that_is_not_a_row_count(self, rows):
        with pytest.raises(ValueError, match="row_overrides"):
            EstimatorParams(row_overrides={"t0": rows})

    @pytest.mark.parametrize("timeout", [0, -3.0])
    def test_timeout_that_is_not_positive(self, timeout):
        with pytest.raises(ValueError, match="timeout_seconds"):
            EstimatorParams(timeout_seconds=timeout)

    def test_the_edges_of_each_domain_are_accepted(self):
        EstimatorParams(filter_selectivity=0.0, distinct_fraction=1.0, join_selectivity=0.0)
        EstimatorParams(row_overrides={"t0": 0}, timeout_seconds=1e-9)

    def test_override_of_a_relation_the_plan_does_not_have(self):
        compiled = cc.compile_query(single_operator_query("sum", 1000), mpc_only_config())
        params = EstimatorParams(row_overrides={"t0": 10, "concat_typo": 5, "nope": 1})
        with pytest.raises(KeyError, match=r"\['concat_typo', 'nope'\]"):
            PlanEstimator(params).estimate(compiled)
