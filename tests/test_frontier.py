"""Tests for the MPC-frontier push-down and push-up passes (§5.2)."""

import pytest

import repro as cc
from repro.core.config import CompilationConfig
from repro.core.frontier import push_down, push_up
from repro.core.lang import QueryContext
from repro.core.operators import Aggregate, Concat, Filter, Map, Project
from repro.core.propagation import mark_mpc_frontier, propagate_ownership, propagate_trust

PA, PB, PC = cc.Party("a.example"), cc.Party("b.example"), cc.Party("c.example")
KV = [cc.Column("k"), cc.Column("v")]


def compile_stage_two(ctx, config=None):
    config = config or CompilationConfig()
    dag = ctx.build_dag()
    propagate_ownership(dag)
    mark_mpc_frontier(dag)
    propagate_trust(dag)
    applied_down = push_down(dag, config)
    applied_up = push_up(dag, config)
    return dag, applied_down, applied_up


class TestPushDown:
    def test_projection_is_distributed_to_each_party(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            combined = ctx.concat([t1, t2])
            projected = combined.project(["k"])
            projected.collect("out", to=[PA])
        dag, applied, _ = compile_stage_two(ctx)
        assert applied >= 1
        local_projects = [
            n for n in dag.topological() if isinstance(n, Project) and not n.is_mpc
        ]
        assert len(local_projects) == 2
        assert {n.out_rel.owner for n in local_projects} == {PA.name, PB.name}

    def test_filter_is_distributed(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            filtered = ctx.concat([t1, t2]).filter(cc.col("v") > 10)
            filtered.aggregate(group=["k"], aggs={"total": cc.SUM("v")}).collect("out", to=[PA])
        dag, _, _ = compile_stage_two(ctx)
        local_filters = [
            n for n in dag.topological() if isinstance(n, Filter) and not n.is_mpc
        ]
        assert len(local_filters) == 2

    def test_aggregation_split_into_partials_and_merge(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            t3 = ctx.new_table("t3", KV, at=PC)
            agg = ctx.concat([t1, t2, t3]).aggregate(group=["k"], aggs={"total": cc.SUM("v")})
            agg.collect("out", to=[PA])
        dag, _, _ = compile_stage_two(ctx)
        aggregates = [n for n in dag.topological() if isinstance(n, Aggregate)]
        local = [a for a in aggregates if not a.is_mpc]
        secondary = [a for a in aggregates if a.is_secondary]
        assert len(local) == 3
        assert len(secondary) == 1
        assert secondary[0].is_mpc
        # The merge step aggregates the partial sums with SUM again.
        assert secondary[0].outputs == (("sum", "total", "total"),)

    def test_count_split_merges_with_sum(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            agg = ctx.concat([t1, t2]).aggregate(group=["k"], aggs={"cnt": cc.COUNT()})
            agg.collect("out", to=[PA])
        dag, _, _ = compile_stage_two(ctx)
        secondary = [n for n in dag.topological() if isinstance(n, Aggregate) and n.is_secondary]
        assert secondary[0].outputs == (("sum", "cnt", "cnt"),)

    def test_split_requires_cardinality_consent(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            agg = ctx.concat([t1, t2]).aggregate(group=["k"], aggs={"total": cc.SUM("v")})
            agg.collect("out", to=[PA])
        config = CompilationConfig(consent_to_cardinality_leakage=False)
        dag, _, _ = compile_stage_two(ctx, config)
        aggregates = [n for n in dag.topological() if isinstance(n, Aggregate)]
        assert len(aggregates) == 1
        assert aggregates[0].is_mpc
        assert not aggregates[0].is_secondary

    def test_private_filter_pushdown_can_be_disabled(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            filtered = ctx.concat([t1, t2]).filter(cc.col("v") > 10)
            filtered.collect("out", to=[PA])
        config = CompilationConfig(push_down_private_filters=False)
        dag, _, _ = compile_stage_two(ctx, config)
        filters = [n for n in dag.topological() if isinstance(n, Filter)]
        assert len(filters) == 1
        assert filters[0].is_mpc

    def test_public_filter_still_pushed_down_in_strict_mode(self):
        schema = [cc.Column("k"), cc.Column("v", public=True)]
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", schema, at=PA)
            t2 = ctx.new_table("t2", schema, at=PB)
            filtered = ctx.concat([t1, t2]).filter(cc.col("v") > 10)
            filtered.collect("out", to=[PA])
        config = CompilationConfig(push_down_private_filters=False)
        dag, _, _ = compile_stage_two(ctx, config)
        local_filters = [n for n in dag.topological() if isinstance(n, Filter) and not n.is_mpc]
        assert len(local_filters) == 2

    def test_chain_of_distributive_ops_all_pushed(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            result = (
                ctx.concat([t1, t2])
                .project(["k", "v"])
                .filter(cc.col("v") > 0)
                .aggregate(group=["k"], aggs={"total": cc.SUM("v")})
            )
            result.collect("out", to=[PA])
        dag, _, _ = compile_stage_two(ctx)
        mpc_nodes = [n for n in dag.topological() if n.is_mpc]
        # Only the merge aggregation and the concat of partials remain in MPC.
        assert all(isinstance(n, (Concat, Aggregate)) for n in mpc_nodes)
        assert any(isinstance(n, Aggregate) and n.is_secondary for n in mpc_nodes)

    def test_join_blocks_pushdown(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            joined = ctx.concat([t1, t2]).join(ctx.new_table("t3", KV, at=PC), on="k")
            joined.collect("out", to=[PA])
        dag, applied, _ = compile_stage_two(ctx)
        assert applied == 0
        joins = [n for n in dag.topological() if n.op_name == "join"]
        assert joins and all(n.is_mpc for n in joins)

    def test_pushdown_disabled_via_config(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            projected = ctx.concat([t1, t2]).project(["k"])
            projected.collect("out", to=[PA])
        config = CompilationConfig(enable_push_down=False)
        compiled = cc.compile_query(ctx, config)
        assert compiled.report.push_down_rewrites == 0
        projects = [n for n in compiled.dag.topological() if isinstance(n, Project)]
        assert all(n.is_mpc for n in projects)


class TestPushUp:
    def test_reversible_scalar_multiply_lifted_to_recipient(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            agg = ctx.concat([t1, t2]).aggregate(group=["k"], aggs={"total": cc.SUM("v")})
            scaled = agg.with_column("cents", cc.col("total") * 100)
            scaled.collect("out", to=[PC])
        dag, _, lifted = compile_stage_two(ctx)
        assert lifted >= 1
        multiply = [n for n in dag.topological() if isinstance(n, Map) and n.op == "*"][0]
        assert not multiply.is_mpc
        assert multiply.run_at == PC.name

    def test_non_reversible_column_multiply_not_lifted(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            agg = ctx.concat([t1, t2]).aggregate(group=["k"], aggs={"total": cc.SUM("v")})
            squared = agg.with_column("sq", cc.col("total") * cc.col("total"))
            squared.collect("out", to=[PA])
        dag, _, _ = compile_stage_two(ctx)
        multiply = [n for n in dag.topological() if isinstance(n, Map) and n.op == "*"][0]
        assert multiply.is_mpc

    def test_leaf_count_rewritten_to_projection_plus_clear_count(self):
        # Disable push-down so the count stays a leaf MPC aggregation, then
        # check push-up rewrites it to an MPC projection + cleartext count.
        config = CompilationConfig(enable_push_down=False, enable_hybrid_operators=False)
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            counted = ctx.concat([t1, t2]).aggregate(group=["k"], aggs={"cnt": cc.COUNT()})
            counted.collect("out", to=[PA])
        compiled = cc.compile_query(ctx, config)
        assert compiled.report.push_up_rewrites >= 1
        dag = compiled.dag
        projects = [n for n in dag.topological() if isinstance(n, Project) and n.is_mpc]
        clear_counts = [
            n
            for n in dag.topological()
            if isinstance(n, Aggregate) and n.funcs == {"count"} and not n.is_mpc
        ]
        assert projects and clear_counts
        assert clear_counts[0].run_at == PA.name

    def test_push_up_disabled_via_config(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            agg = ctx.concat([t1, t2]).aggregate(group=["k"], aggs={"total": cc.SUM("v")})
            scaled = agg.with_column("cents", cc.col("total") * 100)
            scaled.collect("out", to=[PA])
        compiled = cc.compile_query(ctx, CompilationConfig(enable_push_up=False))
        multiply = [n for n in compiled.dag.topological() if isinstance(n, Map) and n.op == "*"][0]
        assert multiply.is_mpc
