"""Tests for ownership and trust-set propagation (§5.1)."""

import pytest

import repro as cc
from repro.core.lang import QueryContext
from repro.core.propagation import (
    intersect_trust,
    mark_mpc_frontier,
    propagate_ownership,
    propagate_trust,
)
from repro.data.schema import PUBLIC

PA, PB, PC = cc.Party("a.example"), cc.Party("b.example"), cc.Party("c.example")


def prepare(dag):
    propagate_ownership(dag)
    mark_mpc_frontier(dag)
    propagate_trust(dag)
    return dag


class TestIntersectTrust:
    def test_public_acts_as_universe(self):
        assert intersect_trust(frozenset({PUBLIC}), frozenset({"a"})) == {"a"}
        assert intersect_trust(frozenset({"a"}), frozenset({PUBLIC})) == {"a"}
        assert intersect_trust(frozenset({PUBLIC}), frozenset({PUBLIC})) == {PUBLIC}

    def test_plain_intersection(self):
        assert intersect_trust(frozenset({"a", "b"}), frozenset({"b", "c"})) == {"b"}
        assert intersect_trust(frozenset({"a"}), frozenset({"b"})) == frozenset()


class TestOwnership:
    def test_single_party_chain_keeps_owner(self):
        with QueryContext() as ctx:
            t = ctx.new_table("t", [cc.Column("k"), cc.Column("v")], at=PA)
            result = (
                t.project(["k"])
                .filter(cc.col("k") > 0)
                .aggregate(group=["k"], aggs={"c": cc.COUNT()})
            )
            result.collect("out", to=[PA])
            dag = prepare(ctx.build_dag())
        for node in dag.topological():
            assert node.out_rel.owner == PA.name
            assert not node.is_mpc

    def test_combining_two_parties_loses_owner_and_needs_mpc(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", [cc.Column("k"), cc.Column("v")], at=PA)
            t2 = ctx.new_table("t2", [cc.Column("k"), cc.Column("v")], at=PB)
            combined = ctx.concat([t1, t2])
            agg = combined.aggregate(group=["k"], aggs={"total": cc.SUM("v")})
            agg.collect("out", to=[PA])
            dag = prepare(ctx.build_dag())
        assert combined.node.out_rel.owner is None
        assert combined.node.is_mpc
        assert agg.node.is_mpc
        assert combined.node.out_rel.stored_with == {PA.name, PB.name}

    def test_join_of_two_owners_needs_mpc(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", [cc.Column("k"), cc.Column("v")], at=PA)
            t2 = ctx.new_table("t2", [cc.Column("k"), cc.Column("w")], at=PB)
            joined = t1.join(t2, on="k")
            joined.collect("out", to=[PA])
            dag = prepare(ctx.build_dag())
        assert joined.node.is_mpc
        assert joined.node.out_rel.owner is None

    def test_collect_runs_at_recipient(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", [cc.Column("k")], at=PA)
            t2 = ctx.new_table("t2", [cc.Column("k")], at=PB)
            out = ctx.concat([t1, t2]).collect("out", to=[PC])
            dag = prepare(ctx.build_dag())
        collect = dag.outputs()[0]
        assert not collect.is_mpc
        assert collect.run_at == PC.name
        assert collect.out_rel.stored_with == {PC.name}


class TestTrustPropagation:
    def build_credit_like_dag(self):
        with QueryContext() as ctx:
            demo = ctx.new_table("demo", [cc.Column("ssn"), cc.Column("zip")], at=PA)
            s1 = ctx.new_table(
                "s1", [cc.Column("ssn", trust=[PA]), cc.Column("score")], at=PB
            )
            s2 = ctx.new_table(
                "s2", [cc.Column("ssn", trust=[PA]), cc.Column("score")], at=PC
            )
            scores = ctx.concat([s1, s2])
            joined = demo.join(scores, on="ssn")
            agg = joined.aggregate(group=["zip"], aggs={"total": cc.SUM("score")})
            agg.collect("out", to=[PA])
            dag = prepare(ctx.build_dag())
        return dag, scores, joined, agg

    def test_concat_intersects_trust(self):
        _, scores, _, _ = self.build_credit_like_dag()
        # Both banks trust the regulator (PA) with ssn; the intersection drops
        # each bank's implicit self-trust.
        assert scores.node.out_rel.column_trust("ssn") == {PA.name}
        assert scores.node.out_rel.column_trust("score") == frozenset()

    def test_join_key_trust_flows_to_output_columns(self):
        _, _, joined, _ = self.build_credit_like_dag()
        rel = joined.node.out_rel
        assert rel.column_trust("ssn") == {PA.name}
        # Non-key columns are filtered by the join key, so they inherit the
        # key's trust intersection as well.
        assert rel.column_trust("zip") == {PA.name}
        assert rel.column_trust("score") == frozenset()

    def test_aggregate_group_and_value_trust(self):
        _, _, _, agg = self.build_credit_like_dag()
        rel = agg.node.out_rel
        assert rel.column_trust("zip") == {PA.name}
        assert rel.column_trust("total") == frozenset()

    def test_public_columns_stay_public_through_operators(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table(
                "t1", [cc.Column("pid", public=True), cc.Column("diag")], at=PA
            )
            t2 = ctx.new_table(
                "t2", [cc.Column("pid", public=True), cc.Column("med")], at=PB
            )
            joined = t1.join(t2, on="pid")
            joined.collect("out", to=[PA])
            dag = prepare(ctx.build_dag())
        rel = joined.node.out_rel
        assert PUBLIC in rel.column_trust("pid")
        # Private columns joined on a public key keep only their own trust.
        assert rel.column_trust("diag") == {PA.name}
        assert rel.column_trust("med") == {PB.name}

    def test_filter_column_trust_restricts_other_columns(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table(
                "t1", [cc.Column("k", trust=[PB]), cc.Column("v", public=True)], at=PA
            )
            t2 = ctx.new_table(
                "t2", [cc.Column("k", trust=[PB]), cc.Column("v", public=True)], at=PB
            )
            filtered = ctx.concat([t1, t2]).filter(cc.col("k") > 0)
            filtered.collect("out", to=[PA])
            dag = prepare(ctx.build_dag())
        rel = filtered.node.out_rel
        # v was public, but its rows are now selected by the private column k,
        # so its trust set shrinks to k's trust set.
        assert rel.column_trust("v") == {PB.name}

    def test_arithmetic_trust_intersection(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table(
                "t1",
                [cc.Column("a", trust=[PB, PC]), cc.Column("b", trust=[PB])],
                at=PA,
            )
            t2 = ctx.new_table(
                "t2",
                [cc.Column("a", trust=[PB, PC]), cc.Column("b", trust=[PB])],
                at=PB,
            )
            combined = ctx.concat([t1, t2])
            product = combined.with_column("ab", cc.col("a") * cc.col("b"))
            scaled = product.with_column("a2", cc.col("a") * 2)
            scaled.collect("out", to=[PA])
            dag = prepare(ctx.build_dag())
        rel = product.node.out_rel
        assert rel.column_trust("ab") == {PB.name}
        assert scaled.node.out_rel.column_trust("a2") == {PB.name, PC.name}
