"""Tests for sort elimination (§5.4), partitioning and code generation (§6)."""

import pytest

import repro as cc
from repro.core.codegen import generate_jobs, render_source
from repro.core.config import CompilationConfig
from repro.core.lang import QueryContext
from repro.core.operators import Aggregate, SortBy
from repro.core.partition import describe_partitioning, partition_dag

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


class TestPartitioning:
    def credit_like_compiled(self):
        def build(ctx):
            demo = ctx.new_table("demo", [cc.Column("ssn"), cc.Column("zip")], at=PA)
            scores = ctx.new_table(
                "scores", [cc.Column("ssn", trust=[PA]), cc.Column("score")], at=PB
            )
            joined = demo.join(scores, on="ssn")
            agg = joined.aggregate(group=["zip"], aggs={"total": cc.SUM("score")})
            agg.collect("out", to=[PA])

        return compile_query(build)

    def test_subplans_cover_all_nodes_exactly_once(self):
        compiled = self.credit_like_compiled()
        node_ids = [n.node_id for sp in compiled.subplans for n in sp.nodes]
        assert sorted(node_ids) == sorted(n.node_id for n in compiled.dag.topological())

    def test_subplans_are_locus_homogeneous(self):
        compiled = self.credit_like_compiled()
        for sp in compiled.subplans:
            loci = {("mpc", "joint") if n.is_mpc else ("local", n.run_at or n.out_rel.owner) for n in sp.nodes}
            kinds = {k for k, _ in loci}
            assert len(kinds) == 1

    def test_subplan_ordering_is_executable(self):
        compiled = self.credit_like_compiled()
        seen: set[str] = set()
        for sp in compiled.subplans:
            for inp in sp.input_relations():
                assert inp in seen, f"sub-plan {sp.index} reads {inp} before it is produced"
            seen.update(sp.relation_names)

    def test_inputs_and_outputs_identified(self):
        compiled = self.credit_like_compiled()
        mpc_plans = [sp for sp in compiled.subplans if sp.kind == "mpc"]
        assert mpc_plans
        assert all(sp.input_relations() for sp in mpc_plans)

    def test_describe_partitioning_mentions_every_subplan(self):
        compiled = self.credit_like_compiled()
        text = describe_partitioning(compiled.subplans)
        for sp in compiled.subplans:
            assert f"sub-plan {sp.index}" in text


class TestCodegen:
    def compiled_with_backend(self, mpc_backend="sharemind", cleartext_backend="python"):
        def build(ctx):
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            agg = ctx.concat([t1, t2]).aggregate(group=["k"], aggs={"total": cc.SUM("v")})
            agg.collect("out", to=[PA])

        config = CompilationConfig(
            mpc_backend=mpc_backend, cleartext_backend=cleartext_backend
        )
        return compile_query(build, config)

    def test_one_job_per_subplan_with_matching_backends(self):
        compiled = self.compiled_with_backend()
        assert len(compiled.jobs) == len(compiled.subplans)
        for job, sp in zip(compiled.jobs, compiled.subplans):
            expected = "sharemind" if sp.kind == "mpc" else "python"
            assert job.backend == expected
            assert job.party == sp.party

    def test_python_source_contains_operator_calls(self):
        compiled = self.compiled_with_backend()
        local_jobs = [j for j in compiled.jobs if j.backend == "python"]
        assert any(".aggregate(" in j.source for j in local_jobs)

    def test_spark_source_uses_pyspark_idioms(self):
        compiled = self.compiled_with_backend(cleartext_backend="spark")
        spark_jobs = [j for j in compiled.jobs if j.backend == "spark"]
        assert spark_jobs
        assert any("SparkSession" in j.source for j in spark_jobs)
        assert any("groupBy" in j.source or ".union(" in j.source for j in spark_jobs)

    def test_sharemind_source_is_secrec_flavoured(self):
        compiled = self.compiled_with_backend()
        mpc_jobs = [j for j in compiled.jobs if j.backend == "sharemind"]
        assert mpc_jobs
        assert any("pd_shared3p" in j.source for j in mpc_jobs)
        assert any("sortingAggregate" in j.source or "cat(" in j.source for j in mpc_jobs)

    def test_oblivc_source_is_c_flavoured(self):
        compiled = self.compiled_with_backend(mpc_backend="obliv-c")
        mpc_jobs = [j for j in compiled.jobs if j.backend == "obliv-c"]
        assert mpc_jobs
        assert any("obliv int64" in j.source for j in mpc_jobs)

    def test_every_job_declares_inputs_and_outputs(self):
        compiled = self.compiled_with_backend()
        produced: set[str] = set()
        for job in compiled.jobs:
            for inp in job.inputs:
                assert inp in produced
            produced.update(s.out_rel.name for s in job.steps)

    def test_render_source_for_hybrid_operators(self):
        def build(ctx):
            left = ctx.new_table(
                "left", [cc.Column("k", trust=[PA]), cc.Column("v")], at=PB
            )
            right = ctx.new_table(
                "right", [cc.Column("k", trust=[PA]), cc.Column("w")], at=cc.Party("c.example")
            )
            joined = left.join(right, on="k")
            joined.collect("out", to=[PB])

        compiled = compile_query(build)
        mpc_sources = "\n".join(j.source for j in compiled.jobs if j.backend == "sharemind")
        assert "hybridJoin" in mpc_sources
