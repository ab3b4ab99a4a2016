"""Tests for the multi-party dispatcher (compiled-query execution)."""

import numpy as np
import pytest

import repro as cc
from repro.core.config import CompilationConfig
from repro.core.dispatch import QueryRunner, SecurityError
from repro.core.lang import QueryContext
from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table
from repro.model.prices import GarbledCostModel, PythonCostModel, SparkCostModel, price
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
    @pytest.mark.parametrize(
        "prices", [PythonCostModel(), SparkCostModel()], ids=["python", "spark"]
    )
    def test_three_party_sum_matches_reference(self, prices):
        compiled = cc.compile_query(three_party_sum_query())
        inputs = kv_inputs()
        result = QueryRunner(PARTY_NAMES, inputs).run(compiled)
        assert result.outputs["out"].equals_unordered(reference_sum(inputs))
        # The run is priced under the cleartext price list.
        assert price(compiled.dag, result.tally, cleartext=prices).simulated_seconds > 0

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

    def test_obliv_c_is_a_price_list(self):
        """Obliv-C is priced, never executed: the estimator prices a plan's
        MPC nodes as circuits under a ``GarbledCostModel``."""
        with QueryContext() as ctx:
            t0 = ctx.new_table("t0", KV, at=PA, estimated_rows=20)
            t1 = ctx.new_table("t1", KV, at=PB, estimated_rows=20)
            agg = ctx.concat([t0, t1]).aggregate(group=["k"], aggs={"total": cc.SUM("v")})
            agg.collect("out", to=[PA])
        compiled = cc.compile_query(ctx)
        estimate = cc.PlanEstimator(mpc=GarbledCostModel()).estimate(compiled)
        assert estimate.backend_seconds.keys() >= {"mpc:obliv-c"}
        assert estimate.mpc_seconds > 0

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
        """Each run() gets a fresh LeakageReport, engines, meter, networks
        and randomness: earlier results are not mutated by later runs, and a
        second run repeats the first exactly."""
        compiled = cc.compile_query(three_party_sum_query())
        runner = QueryRunner(PARTY_NAMES, kv_inputs(), CompilationConfig())
        first = runner.run(compiled)
        events_after_first = len(first.leakage)
        second = runner.run(compiled)
        assert len(first.leakage) == events_after_first
        assert len(second.leakage) == events_after_first
        assert first.leakage is not second.leakage
        assert second.outputs == first.outputs  # row order included
        assert second.mpc_profile == first.mpc_profile
        assert second.simulated_seconds == first.simulated_seconds
        assert second.backend_seconds == first.backend_seconds


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
        busy time (local work priced on Spark)."""
        compiled = cc.compile_query(three_party_sum_query())
        result = QueryRunner(PARTY_NAMES, kv_inputs(rows=200)).run(compiled)
        spark = price(compiled.dag, result.tally, cleartext=SparkCostModel())
        local_busy = sum(
            seconds for name, seconds in spark.backend_seconds.items() if name.startswith("local:")
        )
        assert spark.simulated_seconds < local_busy


class TestInputsMatchTheirRelations:
    """An input is exactly the relation the plan declares: same column
    names, same types, same order — every agent holds the plan's schema."""

    @pytest.mark.parametrize(
        "schema",
        [
            Schema([ColumnDef("k"), ColumnDef("v", ColumnType.FLOAT)]),
            Schema([ColumnDef("k"), ColumnDef("value")]),
            Schema([ColumnDef("v"), ColumnDef("k")]),
        ],
        ids=["float-column", "renamed-column", "reordered-columns"],
    )
    def test_a_mismatched_input_is_refused_naming_both_lists(self, schema):
        compiled = cc.compile_query(three_party_sum_query())
        inputs = kv_inputs()
        inputs[PB.name]["t1"] = Table(schema, inputs[PB.name]["t1"].columns())
        given = [(col.name, col.ctype.value) for col in schema]
        with pytest.raises(ValueError) as info:
            QueryRunner(PARTY_NAMES, inputs).run(compiled)
        message = str(info.value)
        assert PB.name in message and "'t1'" in message
        assert str(given) in message and "[('k', 'int'), ('v', 'int')]" in message


PD = cc.Party("d.example")


def sum_query(contributors, recipient):
    with QueryContext() as ctx:
        tables = [ctx.new_table(f"t{i}", KV, at=p) for i, p in enumerate(contributors)]
        ctx.concat(tables).aggregate(group=["k"], aggs={"total": cc.SUM("v")}).collect(
            "out", to=[recipient]
        )
    return ctx


class TestMorePartiesThanTheMpcComputes:
    """With four parties the first three compute the MPC."""

    def test_an_output_to_the_fourth_party_runs_in_process(self):
        compiled = cc.compile_query(sum_query((PA, PB, PC), PD))
        inputs = kv_inputs()
        result = QueryRunner(PARTY_NAMES + [PD.name], inputs).run(compiled)
        assert result.outputs["out"].equals_unordered(reference_sum(inputs))

    def test_an_mpc_input_from_the_fourth_party_is_a_value_error(self):
        compiled = cc.compile_query(sum_query((PA, PB, PD), PA))
        inputs = kv_inputs()
        inputs[PD.name] = {"t2": inputs.pop(PC.name)["t2"]}
        with pytest.raises(ValueError, match=f"from '{PD.name}', which is not one of the compute"):
            QueryRunner(PARTY_NAMES + [PD.name], inputs).run(compiled)
