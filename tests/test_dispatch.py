"""Tests for the multi-party dispatcher (compiled-query execution)."""

import numpy as np
import pytest

import repro as cc
from repro.core.config import CompilationConfig
from repro.core.dispatch import QueryRunner, SecurityError
from repro.core.lang import QueryContext
from repro.workloads.generators import uniform_key_value_table

PA, PB, PC = cc.Party("a.example"), cc.Party("b.example"), cc.Party("c.example")
PARTY_NAMES = [PA.name, PB.name, PC.name]
KV = [cc.Column("k"), cc.Column("v")]


def kv_inputs(rows=20, seed=0):
    return {
        PA.name: {"t0": uniform_key_value_table(rows, 4, key_column="k", value_column="v", seed=seed)},
        PB.name: {"t1": uniform_key_value_table(rows, 4, key_column="k", value_column="v", seed=seed + 1)},
        PC.name: {"t2": uniform_key_value_table(rows, 4, key_column="k", value_column="v", seed=seed + 2)},
    }


def three_party_sum_query():
    with QueryContext() as ctx:
        tables = [ctx.new_table(f"t{i}", KV, at=p) for i, p in enumerate((PA, PB, PC))]
        agg = ctx.concat(tables).aggregate(group=["k"], aggs={"total": cc.SUM("v")})
        agg.collect("out", to=[PA])
    return ctx


def reference_sum(inputs):
    combined = inputs[PA.name]["t0"].concat(inputs[PB.name]["t1"], inputs[PC.name]["t2"])
    return combined.aggregate(["k"], "v", "sum", "total")


class TestEndToEndExecution:
    @pytest.mark.parametrize("cleartext_backend", ["python", "spark"])
    def test_three_party_sum_matches_reference(self, cleartext_backend):
        config = CompilationConfig(cleartext_backend=cleartext_backend)
        compiled = cc.compile_query(three_party_sum_query(), config)
        inputs = kv_inputs()
        result = QueryRunner(PARTY_NAMES, inputs, config).run(compiled)
        assert result.outputs["out"].equals_unordered(reference_sum(inputs))

    def test_without_optimizations_results_are_identical(self):
        config = CompilationConfig(
            enable_push_down=False,
            enable_push_up=False,
            enable_hybrid_operators=False,
            enable_sort_elimination=False,
        )
        compiled = cc.compile_query(three_party_sum_query(), config)
        inputs = kv_inputs(seed=5)
        result = QueryRunner(PARTY_NAMES, inputs, config).run(compiled)
        assert result.outputs["out"].equals_unordered(reference_sum(inputs))

    def test_optimized_plan_does_less_mpc_work(self):
        def build(rows):
            with QueryContext() as ctx:
                tables = [
                    ctx.new_table(f"t{i}", KV, at=p, estimated_rows=rows)
                    for i, p in enumerate((PA, PB, PC))
                ]
                agg = ctx.concat(tables).aggregate(group=["k"], aggs={"total": cc.SUM("v")})
                agg.collect("out", to=[PA])
            return ctx

        optimized = cc.compile_query(build(100_000))
        baseline = cc.compile_query(
            build(100_000), CompilationConfig(enable_push_down=False)
        )
        estimator = cc.PlanEstimator()
        assert (
            estimator.estimate(optimized).mpc_seconds
            < estimator.estimate(baseline).mpc_seconds / 10
        )

    def test_obliv_c_config_is_priced_not_executed(self):
        """``mpc_backend="obliv-c"`` names a codegen target and a price list:
        the plan compiles, generates Obliv-C jobs and estimates, and both a
        runner configured for it and a runner handed such a plan refuse."""
        with QueryContext() as ctx:
            t0 = ctx.new_table("t0", KV, at=PA, estimated_rows=20)
            t1 = ctx.new_table("t1", KV, at=PB, estimated_rows=20)
            agg = ctx.concat([t0, t1]).aggregate(group=["k"], aggs={"total": cc.SUM("v")})
            agg.collect("out", to=[PA])
        config = CompilationConfig(mpc_backend="obliv-c")
        compiled = cc.compile_query(ctx, config)
        assert any(job.backend == "obliv-c" for job in compiled.jobs)
        assert cc.PlanEstimator().estimate(compiled).mpc_seconds > 0
        inputs = {k: v for k, v in kv_inputs().items() if k in (PA.name, PB.name)}
        with pytest.raises(ValueError, match="PlanEstimator"):
            QueryRunner([PA.name, PB.name], inputs, config)
        with pytest.raises(ValueError, match="PlanEstimator"):
            QueryRunner([PA.name, PB.name], inputs).run(compiled)

    def test_simulated_time_and_backend_breakdown_populated(self):
        compiled = cc.compile_query(three_party_sum_query())
        result = QueryRunner(PARTY_NAMES, kv_inputs(), CompilationConfig()).run(compiled)
        assert result.simulated_seconds > 0
        assert result.wall_seconds > 0
        assert any(k.startswith("local:") for k in result.backend_seconds)
        assert any(k.startswith("mpc:") for k in result.backend_seconds)

    def test_output_leakage_recorded(self):
        compiled = cc.compile_query(three_party_sum_query())
        result = QueryRunner(PARTY_NAMES, kv_inputs(), CompilationConfig()).run(compiled)
        kinds = {e.kind for e in result.leakage.events}
        assert "output" in kinds

    def test_missing_input_relation_raises_helpful_error(self):
        compiled = cc.compile_query(three_party_sum_query())
        inputs = kv_inputs()
        del inputs[PB.name]["t1"]
        with pytest.raises(KeyError, match="t1"):
            QueryRunner(PARTY_NAMES, inputs, CompilationConfig()).run(compiled)

    def test_result_output_accessor(self):
        compiled = cc.compile_query(three_party_sum_query())
        result = QueryRunner(PARTY_NAMES, kv_inputs(), CompilationConfig()).run(compiled)
        assert result.output("out") is result.outputs["out"]
        with pytest.raises(KeyError):
            result.output("nope")

    def test_run_query_convenience_wrapper(self):
        inputs = kv_inputs(seed=9)
        result = cc.run_query(three_party_sum_query(), inputs)
        assert result.outputs["out"].equals_unordered(reference_sum(inputs))

    def test_reused_runner_does_not_accumulate_leakage(self):
        """Each run() gets a fresh LeakageReport; earlier results are not
        mutated by later runs (regression for the executor refactor)."""
        compiled = cc.compile_query(three_party_sum_query())
        runner = QueryRunner(PARTY_NAMES, kv_inputs(), CompilationConfig())
        first = runner.run(compiled)
        events_after_first = len(first.leakage)
        second = runner.run(compiled)
        assert len(first.leakage) == events_after_first
        assert len(second.leakage) == events_after_first
        assert first.leakage is not second.leakage


class TestSecurityEnforcement:
    def test_unauthorised_reveal_is_blocked(self):
        """A hand-tampered plan that reveals MPC data to an untrusted party must fail."""
        compiled = cc.compile_query(three_party_sum_query())
        # Tamper: force the MPC merge aggregation to "run" in the clear at PB
        # even though nobody authorised PB to see the other parties' data.
        for node in compiled.dag.topological():
            if node.is_mpc and node.op_name == "aggregate":
                node.is_mpc = False
                node.run_at = PB.name
        with pytest.raises(SecurityError):
            QueryRunner(PARTY_NAMES, kv_inputs(), CompilationConfig()).run(compiled)

    def test_unauthorised_cleartext_transfer_is_blocked(self):
        with QueryContext() as ctx:
            t0 = ctx.new_table("t0", KV, at=PA)
            projected = t0.project(["k", "v"])
            projected.collect("out", to=[PA])
        compiled = cc.compile_query(ctx)
        # Tamper: run PA's local projection at PC instead.
        for node in compiled.dag.topological():
            if node.op_name == "project":
                node.run_at = PC.name
        with pytest.raises(SecurityError):
            QueryRunner(PARTY_NAMES, kv_inputs(), CompilationConfig()).run(compiled)

    def test_authorised_reveal_to_trusted_party_succeeds(self):
        """Columns whose trust set names a party may be revealed to it."""
        with QueryContext() as ctx:
            t0 = ctx.new_table(
                "t0", [cc.Column("k", trust=[PC]), cc.Column("v", trust=[PC])], at=PA
            )
            t1 = ctx.new_table(
                "t1", [cc.Column("k", trust=[PC]), cc.Column("v", trust=[PC])], at=PB
            )
            agg = ctx.concat([t0, t1]).aggregate(group=["k"], aggs={"total": cc.SUM("v")})
            agg.collect("out", to=[PC])
        config = CompilationConfig(enable_hybrid_operators=False)
        compiled = cc.compile_query(ctx, config)
        result = QueryRunner(PARTY_NAMES, kv_inputs(), config).run(compiled)
        assert result.outputs["out"].num_rows > 0


class TestParallelism:
    def test_independent_local_work_overlaps_in_simulated_time(self):
        """Per-party local pre-processing happens in parallel, so the
        simulated end-to-end time is far less than the sum of all backends'
        busy time."""
        config = CompilationConfig(cleartext_backend="spark")
        compiled = cc.compile_query(three_party_sum_query(), config)
        result = QueryRunner(PARTY_NAMES, kv_inputs(rows=200), config).run(compiled)
        local_busy = sum(
            seconds for name, seconds in result.backend_seconds.items() if name.startswith("local:")
        )
        assert result.simulated_seconds < local_busy
