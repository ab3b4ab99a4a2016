"""Tests for sort elimination (§5.4)."""

import repro as cc
from repro.core.config import CompilationConfig
from repro.core.lang import QueryContext
from repro.core.operators import Aggregate, SortBy

PA, PB = cc.Party("a.example"), cc.Party("b.example")
KV = [cc.Column("k"), cc.Column("v")]


def compile_query(build, config=None):
    with QueryContext() as ctx:
        build(ctx)
    return cc.compile_query(ctx, config or CompilationConfig())


class TestSortElimination:
    def test_redundant_sort_is_removed(self):
        def build(ctx):
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            sorted_once = ctx.concat([t1, t2]).sort_by("k").sort_by("k")
            sorted_once.collect("out", to=[PA])

        compiled = compile_query(build, CompilationConfig(enable_push_down=False))
        sorts = [n for n in compiled.dag.topological() if isinstance(n, SortBy)]
        assert len(sorts) == 1
        assert compiled.report.sorts_eliminated >= 1

    def test_aggregation_after_sort_marked_presorted(self):
        def build(ctx):
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            agg = ctx.concat([t1, t2]).sort_by("k").aggregate(
                group=["k"], aggs={"total": cc.SUM("v")}
            )
            agg.collect("out", to=[PA])

        compiled = compile_query(build, CompilationConfig(enable_push_down=False))
        aggs = [n for n in compiled.dag.topological() if isinstance(n, Aggregate)]
        assert aggs[0].presorted

    def test_sort_on_other_column_not_eliminated(self):
        def build(ctx):
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            result = ctx.concat([t1, t2]).sort_by("v").sort_by("k")
            result.collect("out", to=[PA])

        compiled = compile_query(build, CompilationConfig(enable_push_down=False))
        sorts = [n for n in compiled.dag.topological() if isinstance(n, SortBy)]
        assert len(sorts) == 2

    def test_elimination_can_be_disabled(self):
        def build(ctx):
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            result = ctx.concat([t1, t2]).sort_by("k").sort_by("k")
            result.collect("out", to=[PA])

        config = CompilationConfig(enable_push_down=False, enable_sort_elimination=False)
        compiled = compile_query(build, config)
        sorts = [n for n in compiled.dag.topological() if isinstance(n, SortBy)]
        assert len(sorts) == 2
        assert compiled.report.sorts_eliminated == 0

    def test_order_preserving_chain_keeps_sort_information(self):
        def build(ctx):
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            chained = (
                ctx.concat([t1, t2])
                .sort_by("k")
                .filter(cc.col("v") > 0)
                .project(["k", "v"])
                .aggregate(group=["k"], aggs={"total": cc.SUM("v")})
            )
            chained.collect("out", to=[PA])

        compiled = compile_query(build, CompilationConfig(enable_push_down=False))
        agg = [n for n in compiled.dag.topological() if isinstance(n, Aggregate)][0]
        assert agg.presorted

