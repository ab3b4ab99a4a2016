"""Tests for the hybrid-operator insertion pass (§5.3)."""

import pytest

import repro as cc
from repro.core.config import CompilationConfig
from repro.core.lang import QueryContext
from repro.core.operators import HybridAggregate, HybridJoin, Join, PublicJoin

PA, PB, PC = cc.Party("regulator.gov"), cc.Party("bank-a.com"), cc.Party("bank-b.com")


def two_party_join_query(left_trust=(), right_trust=(), public=False):
    with QueryContext() as ctx:
        left = ctx.new_table(
            "left",
            [cc.Column("k", trust=list(left_trust), public=public), cc.Column("v")],
            at=PB,
        )
        right = ctx.new_table(
            "right",
            [cc.Column("k", trust=list(right_trust), public=public), cc.Column("w")],
            at=PC,
        )
        joined = left.join(right, on="k")
        joined.collect("out", to=[PB])
    return ctx


def grouped_agg_query(group_trust=()):
    with QueryContext() as ctx:
        t1 = ctx.new_table(
            "t1", [cc.Column("g", trust=list(group_trust)), cc.Column("v")], at=PB
        )
        t2 = ctx.new_table(
            "t2", [cc.Column("g", trust=list(group_trust)), cc.Column("v")], at=PC
        )
        joined = t1.join(t2, on="g")
        agg = joined.aggregate(group=["g"], aggs={"total": cc.SUM("v")})
        agg.collect("out", to=[PB])
    return ctx


class TestHybridJoin:
    def test_shared_trusted_party_triggers_hybrid_join(self):
        compiled = cc.compile_query(two_party_join_query(left_trust=[PA], right_trust=[PA]))
        joins = [n for n in compiled.dag.topological() if isinstance(n, Join)]
        assert len(joins) == 1
        assert isinstance(joins[0], HybridJoin)
        assert joins[0].stp == PA.name
        assert any("hybrid_join" in r for r in compiled.report.hybrid_rewrites)

    def test_no_shared_trust_keeps_plain_mpc_join(self):
        compiled = cc.compile_query(two_party_join_query(left_trust=[PA], right_trust=[]))
        joins = [n for n in compiled.dag.topological() if isinstance(n, Join)]
        assert not isinstance(joins[0], (HybridJoin, PublicJoin))
        assert joins[0].is_mpc

    def test_public_keys_trigger_public_join(self):
        compiled = cc.compile_query(two_party_join_query(public=True))
        joins = [n for n in compiled.dag.topological() if isinstance(n, Join)]
        assert isinstance(joins[0], PublicJoin)
        assert joins[0].host in {PB.name, PC.name}

    def test_hybrid_operators_can_be_disabled(self):
        config = CompilationConfig(enable_hybrid_operators=False)
        compiled = cc.compile_query(
            two_party_join_query(left_trust=[PA], right_trust=[PA]), config
        )
        joins = [n for n in compiled.dag.topological() if isinstance(n, Join)]
        assert not isinstance(joins[0], (HybridJoin, PublicJoin))
        assert compiled.report.hybrid_rewrites == []

    def test_allowed_stps_restricts_choice(self):
        config = CompilationConfig(allowed_stps=[PC.name])
        compiled = cc.compile_query(
            two_party_join_query(left_trust=[PA], right_trust=[PA]), config
        )
        joins = [n for n in compiled.dag.topological() if isinstance(n, Join)]
        # PA is the only trusted party but it is not allowed to act as STP,
        # so the join stays a plain MPC join.
        assert not isinstance(joins[0], HybridJoin)


class TestHybridAggregate:
    def test_trusted_group_column_triggers_hybrid_aggregate(self):
        compiled = cc.compile_query(grouped_agg_query(group_trust=[PA]))
        aggs = [n for n in compiled.dag.topological() if n.op_name.endswith("aggregate")]
        hybrid = [n for n in aggs if isinstance(n, HybridAggregate)]
        assert hybrid
        assert hybrid[0].stp == PA.name

    def test_private_group_column_stays_oblivious(self):
        compiled = cc.compile_query(grouped_agg_query(group_trust=[]))
        hybrid = [n for n in compiled.dag.topological() if isinstance(n, HybridAggregate)]
        assert hybrid == []

    def test_single_stp_chosen_across_whole_query(self):
        # Join key trusts PA; group column trusts PA as well: one STP overall.
        with QueryContext() as ctx:
            demo = ctx.new_table("demo", [cc.Column("ssn"), cc.Column("zip")], at=PA)
            s1 = ctx.new_table(
                "s1", [cc.Column("ssn", trust=[PA]), cc.Column("score")], at=PB
            )
            s2 = ctx.new_table(
                "s2", [cc.Column("ssn", trust=[PA]), cc.Column("score")], at=PC
            )
            joined = demo.join(ctx.concat([s1, s2]), on="ssn")
            agg = joined.aggregate(group=["zip"], aggs={"total": cc.SUM("score")})
            agg.collect("out", to=[PA])
        compiled = cc.compile_query(ctx)
        stps = {
            getattr(n, "stp", None)
            for n in compiled.dag.topological()
            if getattr(n, "stp", None) is not None
        }
        assert stps == {PA.name}

    def test_hybrid_nodes_remain_mpc_after_compilation(self):
        compiled = cc.compile_query(grouped_agg_query(group_trust=[PA]))
        for node in compiled.dag.topological():
            if isinstance(node, (HybridAggregate, HybridJoin, PublicJoin)):
                assert node.is_mpc
