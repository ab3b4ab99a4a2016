"""Tests for grouped MIN/MAX aggregations under MPC and through the compiler."""

import pytest

import repro as cc
from repro.mpc import protocols
from repro.mpc.protocols import SharedTable
from repro.mpc.secretshare import SecretSharingEngine
from repro.workloads.generators import uniform_key_value_table
from tests.conftest import PARTIES

PA, PB = cc.Party("a.example"), cc.Party("b.example")
KV = [cc.Column("k"), cc.Column("v")]


class TestObliviousMinMax:
    @pytest.mark.parametrize("func", ["min", "max"])
    def test_grouped_min_max_matches_cleartext(self, func):
        table = uniform_key_value_table(25, 5, seed=61)
        engine = SecretSharingEngine(PARTIES, seed=3)
        shared = SharedTable.from_table(engine, table)
        result = protocols.mpc_aggregate(shared, "key", "value", func, "m")
        expected = table.aggregate(["key"], "value", func, "m")
        assert result.reveal().equals_unordered(expected)

    def test_single_group(self):
        table = uniform_key_value_table(10, 1, seed=62)
        engine = SecretSharingEngine(PARTIES, seed=3)
        shared = SharedTable.from_table(engine, table)
        result = protocols.mpc_aggregate(shared, "key", "value", "max", "m")
        assert result.reveal().rows() == table.aggregate(["key"], "value", "max", "m").rows()

    def test_unsupported_grouped_function_still_rejected(self):
        table = uniform_key_value_table(5, 2, seed=63)
        engine = SecretSharingEngine(PARTIES, seed=3)
        shared = SharedTable.from_table(engine, table)
        with pytest.raises(ValueError):
            protocols.mpc_aggregate(shared, "key", "value", "median", "m")


class TestCompiledMinMaxQueries:
    def build_query(self, func):
        with cc.QueryContext() as ctx:
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            agg = ctx.concat([t1, t2]).aggregate(group=["k"], aggs={"m": func("v")})
            agg.collect("out", to=[PA])
        return ctx

    @pytest.mark.parametrize("func", [cc.MIN, cc.MAX])
    @pytest.mark.parametrize("push_down", [True, False])
    def test_end_to_end_min_max(self, func, push_down):
        t1 = uniform_key_value_table(20, 4, key_column="k", value_column="v", seed=64)
        t2 = uniform_key_value_table(15, 4, key_column="k", value_column="v", seed=65)
        inputs = {PA.name: {"t1": t1}, PB.name: {"t2": t2}}
        config = cc.CompilationConfig(enable_push_down=push_down)
        result = cc.run_query(self.build_query(func), inputs, config)
        expected = t1.concat(t2).aggregate(["k"], "v", func, "m")
        assert result.outputs["out"].equals_unordered(expected)

    def test_min_aggregation_split_keeps_min_merge(self):
        compiled = cc.compile_query(self.build_query(cc.MIN))
        secondary = [
            n
            for n in compiled.dag.topological()
            if n.op_name == "aggregate" and getattr(n, "is_secondary", False)
        ]
        assert secondary and secondary[0].func == "min"

    def test_min_max_never_rewritten_to_hybrid(self):
        schema = [cc.Column("k", trust=[cc.Party("stp.example")]), cc.Column("v")]
        with cc.QueryContext() as ctx:
            t1 = ctx.new_table("t1", schema, at=PA)
            t2 = ctx.new_table("t2", schema, at=PB)
            joined = t1.join(t2, on="k")
            agg = joined.aggregate(group=["k"], aggs={"m": cc.MAX("v")})
            agg.collect("out", to=[PA])
        compiled = cc.compile_query(ctx)
        from repro.core.operators import HybridAggregate

        assert not any(isinstance(n, HybridAggregate) for n in compiled.dag.topological())
