"""Tests for the sort push-up extension (§5.4, "future work" in the paper).

With ``enable_sort_pushup`` the compiler rewrites an oblivious sort over a
concat of per-party relations into local cleartext sorts at each party plus
an oblivious *merge* under MPC — asymptotically cheaper than re-sorting the
whole concatenation obliviously.
"""

import numpy as np
import pytest

import repro as cc
from repro.core.config import CompilationConfig
from repro.core.lang import QueryContext
from repro.core.operators import Merge, SortBy
from repro.mpc import protocols
from repro.mpc.protocols import SharedTable
from repro.mpc.sharemind import SharemindBackend
from repro.workloads.generators import uniform_key_value_table
from tests.conftest import PARTIES

PA, PB, PC = cc.Party("a.example"), cc.Party("b.example"), cc.Party("c.example")
KV = [cc.Column("k"), cc.Column("v")]


def sorted_concat_query(estimated_rows=None, ascending=True):
    with QueryContext() as ctx:
        t1 = ctx.new_table("t1", KV, at=PA, estimated_rows=estimated_rows)
        t2 = ctx.new_table("t2", KV, at=PB, estimated_rows=estimated_rows)
        ordered = ctx.concat([t1, t2]).sort_by("v", ascending=ascending)
        ordered.collect("out", to=[PC])
    return ctx


class TestMergeProtocol:
    def test_mpc_merge_sorted_matches_full_sort(self):
        backend = SharemindBackend(PARTIES, seed=3)
        a = uniform_key_value_table(12, 50, seed=1).sort_by(["key"])
        b = uniform_key_value_table(9, 50, seed=2).sort_by(["key"])
        merged = backend.merge_sorted([backend.ingest(a), backend.ingest(b)], "key")
        assert merged.reveal() == a.concat(b).sort_by(["key"])

    def test_mpc_merge_descending(self):
        backend = SharemindBackend(PARTIES, seed=3)
        a = uniform_key_value_table(8, 50, seed=3).sort_by(["key"], ascending=False)
        b = uniform_key_value_table(8, 50, seed=4).sort_by(["key"], ascending=False)
        merged = backend.merge_sorted(
            [backend.ingest(a), backend.ingest(b)], "key", ascending=False
        )
        assert merged.reveal() == a.concat(b).sort_by(["key"], ascending=False)

    def test_merge_cheaper_than_resort(self):
        a = uniform_key_value_table(64, 1000, seed=5).sort_by(["key"])
        b = uniform_key_value_table(64, 1000, seed=6).sort_by(["key"])

        merge_backend = SharemindBackend(PARTIES, seed=1)
        merge_backend.merge_sorted(
            [merge_backend.ingest(a), merge_backend.ingest(b)], "key"
        )
        sort_backend = SharemindBackend(PARTIES, seed=1)
        combined = sort_backend.concat([sort_backend.ingest(a), sort_backend.ingest(b)])
        sort_backend.sort_by(combined, "key")
        assert merge_backend.meter.comparisons < sort_backend.meter.comparisons

    def test_schema_mismatch_rejected(self):
        backend = SharemindBackend(PARTIES, seed=3)
        a = backend.ingest(uniform_key_value_table(4, 10, seed=7))
        b = backend.ingest(
            uniform_key_value_table(4, 10, key_column="other", seed=8)
        )
        with pytest.raises(ValueError):
            backend.merge_sorted([a, b], "key")


class TestCompilerRewrite:
    def test_rewrite_replaces_sort_with_local_sorts_and_merge(self):
        config = CompilationConfig(enable_sort_pushup=True)
        compiled = cc.compile_query(sorted_concat_query(), config)
        assert compiled.report.sorts_pushed_up == 1
        merges = [n for n in compiled.dag.topological() if isinstance(n, Merge)]
        local_sorts = [
            n for n in compiled.dag.topological() if isinstance(n, SortBy) and not n.is_mpc
        ]
        assert len(merges) == 1 and merges[0].is_mpc
        assert len(local_sorts) == 2
        assert {n.out_rel.owner for n in local_sorts} == {PA.name, PB.name}

    def test_rewrite_disabled_by_default(self):
        compiled = cc.compile_query(sorted_concat_query())
        assert compiled.report.sorts_pushed_up == 0
        assert not any(isinstance(n, Merge) for n in compiled.dag.topological())

    def test_merge_output_counts_as_sorted(self):
        config = CompilationConfig(enable_sort_pushup=True)
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            agg = ctx.concat([t1, t2]).sort_by("k").aggregate(
                group=["k"], aggs={"total": cc.SUM("v")}
            )
            agg.collect("out", to=[PA])
        compiled = cc.compile_query(
            ctx, CompilationConfig(enable_sort_pushup=True, enable_push_down=False)
        )
        aggs = [n for n in compiled.dag.topological() if n.op_name == "aggregate"]
        assert aggs[0].presorted

    def test_end_to_end_results_match_unoptimized_plan(self):
        inputs = {
            PA.name: {"t1": uniform_key_value_table(15, 6, key_column="k", value_column="v", seed=9)},
            PB.name: {"t2": uniform_key_value_table(12, 6, key_column="k", value_column="v", seed=10)},
        }
        optimized = cc.run_query(
            sorted_concat_query(), inputs, CompilationConfig(enable_sort_pushup=True)
        )
        baseline = cc.run_query(sorted_concat_query(), inputs, CompilationConfig())
        assert optimized.outputs["out"].column("v").tolist() == baseline.outputs["out"].column("v").tolist()

    def test_end_to_end_descending(self):
        inputs = {
            PA.name: {"t1": uniform_key_value_table(10, 6, key_column="k", value_column="v", seed=11)},
            PB.name: {"t2": uniform_key_value_table(10, 6, key_column="k", value_column="v", seed=12)},
        }
        result = cc.run_query(
            sorted_concat_query(ascending=False),
            inputs,
            CompilationConfig(enable_sort_pushup=True),
        )
        values = result.outputs["out"].column("v").tolist()
        assert values == sorted(values, reverse=True)

    def test_estimated_mpc_cost_is_lower_with_pushup(self):
        params = cc.EstimatorParams()
        with_pushup = cc.compile_query(
            sorted_concat_query(estimated_rows=100_000),
            CompilationConfig(enable_sort_pushup=True),
        )
        without = cc.compile_query(
            sorted_concat_query(estimated_rows=100_000), CompilationConfig()
        )
        estimator = cc.PlanEstimator(params)
        assert (
            estimator.estimate(with_pushup).mpc_seconds
            < estimator.estimate(without).mpc_seconds
        )
