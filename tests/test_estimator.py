"""Tests for the plan cost estimator used by the benchmark harness."""

import pytest

import repro as cc
from repro.core.config import CompilationConfig
from repro.model.estimator import EstimatedOOM, EstimatorParams, PlanEstimator
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


def mpc_only_config(**kwargs):
    return CompilationConfig(
        enable_push_down=False,
        enable_push_up=False,
        enable_hybrid_operators=False,
        **kwargs,
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
        estimator = PlanEstimator()
        mpc = estimator.estimate(
            cc.compile_query(single_operator_query("sum", 10_000_000), mpc_only_config())
        )
        # Single-owner query: everything stays local.
        with QueryContext() as ctx:
            t = ctx.new_table("t", KV, at=PA, estimated_rows=10_000_000)
            t.aggregate(aggs={"total": cc.SUM("v")}).collect("out", to=[PA])
        clear = estimator.estimate(
            cc.compile_query(ctx, CompilationConfig(cleartext_backend="spark"))
        )
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
        config = mpc_only_config(mpc_backend="obliv-c")
        compiled = cc.compile_query(
            single_operator_query("join", 30_000, parties=(PA, PB)), config
        )
        with pytest.raises(EstimatedOOM) as err:
            PlanEstimator().estimate(compiled)
        assert err.value.operator == "join"
        assert err.value.required_bytes > err.value.limit_bytes == 4 * 1024**3

    def test_garbled_gate_input_and_memory_accounting(self):
        """The one copy of the Obliv-C formulas: a join garbles one
        comparison plus one mux per output column for every pair of rows,
        OT-transfers every cleartext input bit, and holds the inputs' wire
        labels plus per-pair state; its seconds are the garbled price list's."""
        config = mpc_only_config(mpc_backend="obliv-c")
        compiled = cc.compile_query(
            single_operator_query("join", 2_000, parties=(PA, PB)), config
        )
        estimator = PlanEstimator()
        estimate = estimator.estimate(compiled)
        join = next(ne for ne in estimate.nodes if ne.node.op_name == "join")
        left, right = join.rows_in
        gates, input_bits, memory = estimator._garbled_cost(
            join.node, join.rows_in, join.rows_out
        )
        assert gates == left * right * (64 + 64 * len(join.node.out_rel.schema))
        assert input_bits == right * 2 * 64  # the concat side is already in MPC
        assert memory == (left + right) * 2 * 8192 + left * right * 16
        assert join.seconds == estimator.garbled_model.seconds(gates, input_bits)
        small = estimator.estimate(
            cc.compile_query(single_operator_query("join", 200, parties=(PA, PB)), config)
        )
        assert small.mpc_seconds < estimate.mpc_seconds

    def test_garbled_project_survives_small_inputs_but_ooms_large(self):
        config = mpc_only_config(mpc_backend="obliv-c")
        small = cc.compile_query(
            single_operator_query("project", 10_000, parties=(PA, PB)), config
        )
        PlanEstimator().estimate(small)  # should not raise
        large = cc.compile_query(
            single_operator_query("project", 600_000, parties=(PA, PB)), config
        )
        with pytest.raises(EstimatedOOM):
            PlanEstimator().estimate(large)


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
        base = PlanEstimator().estimate(compiled).simulated_seconds
        bigger = PlanEstimator(
            EstimatorParams(row_overrides={concat_name: 10_000_000})
        ).estimate(compiled).simulated_seconds
        assert bigger > base

    def test_breakdown_lists_all_nodes(self):
        compiled = cc.compile_query(single_operator_query("sum", 1000), mpc_only_config())
        estimate = PlanEstimator().estimate(compiled)
        assert len(estimate.nodes) == len(compiled.dag.topological())
        text = estimate.breakdown()
        assert "total simulated seconds" in text
