"""Tests for the LINQ-style frontend and the DAG container."""

import pytest

import repro as cc
from repro.core.dag import Dag
from repro.core.lang import QueryContext
from repro.core.operators import (
    Aggregate,
    Collect,
    Concat,
    Create,
    Filter,
    Join,
    Project,
    is_reversible,
)
from repro.data.schema import ColumnType, PUBLIC


@pytest.fixture
def parties():
    return cc.Party("a.example"), cc.Party("b.example")


def simple_schema(trust=()):
    return [cc.Column("key", cc.INT, trust=list(trust)), cc.Column("value", cc.INT)]


class TestFrontend:
    def test_requires_active_context(self):
        with pytest.raises(RuntimeError):
            cc.new_table("t", simple_schema(), at=cc.Party("a"))

    def test_new_table_sets_owner_and_trust(self, parties):
        pa, pb = parties
        with QueryContext() as ctx:
            handle = ctx.new_table("t", simple_schema(trust=[pb]), at=pa)
        rel = handle.node.out_rel
        assert rel.owner == pa.name
        assert rel.stored_with == {pa.name}
        # The owner is implicitly trusted with every column.
        assert rel.trust["key"] == {pa.name, pb.name}
        assert rel.trust["value"] == {pa.name}

    def test_public_column_annotation(self, parties):
        pa, _ = parties
        with QueryContext() as ctx:
            handle = ctx.new_table(
                "t", [cc.Column("k", cc.INT, public=True)], at=pa
            )
        assert PUBLIC in handle.node.out_rel.trust["k"]

    def test_builder_methods_produce_expected_nodes_and_schemas(self, parties):
        pa, pb = parties
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", simple_schema(), at=pa)
            t2 = ctx.new_table("t2", simple_schema(), at=pb)
            combined = ctx.concat([t1, t2])
            projected = combined.project(["value", "key"])
            filtered = projected.filter(cc.col("value") > 10)
            agg = filtered.aggregate(group=["key"], aggs={"total": cc.SUM("value")})
            joined = agg.join(t1, on="key")
            scaled = joined.with_column("double", cc.col("total") * 2)
            ratio = scaled.with_column("ratio", cc.col("total") / cc.col("value"))
            ratio.collect("out", to=[pa])
            dag = ctx.build_dag()

        assert isinstance(combined.node, Concat)
        assert projected.schema.names == ["value", "key"]
        assert isinstance(filtered.node, Filter)
        assert agg.schema.names == ["key", "total"]
        assert isinstance(joined.node, Join)
        assert joined.schema.names == ["key", "total", "value"]
        assert scaled.schema.names == ["key", "total", "value", "double"]
        assert ratio.schema["ratio"].ctype is ColumnType.FLOAT
        assert len(dag.outputs()) == 1

    def test_join_name_collision_gets_suffix(self, parties):
        pa, pb = parties
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", simple_schema(), at=pa)
            t2 = ctx.new_table("t2", simple_schema(), at=pb)
            joined = t1.join(t2, on="key")
        assert joined.schema.names == ["key", "value", "value_r"]

    def test_project_accepts_positional_indices(self, parties):
        pa, _ = parties
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", simple_schema(), at=pa)
            projected = t1.project([1, "key"])
        assert projected.schema.names == ["value", "key"]

    def test_unknown_columns_rejected(self, parties):
        pa, _ = parties
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", simple_schema(), at=pa)
            with pytest.raises(KeyError):
                t1.project(["nope"])
            with pytest.raises(KeyError):
                t1.filter(cc.col("nope") > 1)
            with pytest.raises(KeyError):
                t1.aggregate(group=["key"], aggs={"x": cc.SUM("nope")})

    def test_concat_schema_mismatch_rejected(self, parties):
        pa, pb = parties
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", simple_schema(), at=pa)
            t2 = ctx.new_table("t2", [cc.Column("other", cc.INT)], at=pb)
            with pytest.raises(ValueError):
                ctx.concat([t1, t2])

    def test_output_requires_recipient(self, parties):
        pa, _ = parties
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", simple_schema(), at=pa)
            with pytest.raises(ValueError):
                t1.collect("out", to=[])

    def test_build_dag_requires_an_output(self, parties):
        pa, _ = parties
        with QueryContext() as ctx:
            ctx.new_table("t1", simple_schema(), at=pa)
            with pytest.raises(ValueError):
                ctx.build_dag()

    def test_relation_names_are_unique(self, parties):
        pa, _ = parties
        with QueryContext() as ctx:
            t1 = ctx.new_table("dup", simple_schema(), at=pa)
            t2 = ctx.new_table("dup", simple_schema(), at=pa)
        assert t1.name != t2.name


class TestDag:
    def build_linear_dag(self, parties):
        pa, pb = parties
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", simple_schema(), at=pa)
            t2 = ctx.new_table("t2", simple_schema(), at=pb)
            combined = ctx.concat([t1, t2])
            agg = combined.aggregate(group=["key"], aggs={"total": cc.SUM("value")})
            agg.collect("out", to=[pa])
            return ctx.build_dag()

    def test_topological_order_respects_dependencies(self, parties):
        dag = self.build_linear_dag(parties)
        order = dag.topological()
        position = {node.node_id: i for i, node in enumerate(order)}
        for node in order:
            for parent in node.parents:
                assert position[parent.node_id] < position[node.node_id]

    def test_inputs_outputs_leaves(self, parties):
        dag = self.build_linear_dag(parties)
        assert len(dag.inputs()) == 2
        assert len(dag.outputs()) == 1
        assert dag.leaves() == dag.outputs()

    def test_node_for_relation(self, parties):
        dag = self.build_linear_dag(parties)
        assert isinstance(dag.node_for_relation("out"), Collect)
        with pytest.raises(KeyError):
            dag.node_for_relation("missing")

    def test_parties(self, parties):
        dag = self.build_linear_dag(parties)
        assert dag.parties() == {"a.example", "b.example"}

    def test_validate_detects_broken_links(self, parties):
        dag = self.build_linear_dag(parties)
        # Claim a child relationship the child does not reciprocate.
        dag.roots[0].children.append(dag.outputs()[0])
        with pytest.raises(ValueError, match="broken"):
            dag.validate()

    def test_roots_must_be_create_nodes(self, parties):
        dag = self.build_linear_dag(parties)
        non_root = dag.outputs()[0]
        with pytest.raises(TypeError):
            Dag([non_root])

    def test_empty_dag_rejected(self):
        with pytest.raises(ValueError):
            Dag([])

    def test_render_mentions_every_relation(self, parties):
        dag = self.build_linear_dag(parties)
        rendered = dag.render()
        for node in dag.topological():
            assert node.out_rel.name in rendered


class TestOperatorHelpers:
    def test_is_reversible_rules(self, parties):
        pa, _ = parties
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", simple_schema(), at=pa)
            scaled = t1.with_column("x", cc.col("value") * 3)
            zero_scaled = t1.with_column("y", cc.col("value") * 0)
            col_scaled = t1.with_column("z", cc.col("value") * cc.col("key"))
            reorder = t1.project(["value", "key"])
            narrowing = t1.project(["key"])
        assert is_reversible(scaled.node)
        assert not is_reversible(zero_scaled.node)
        assert not is_reversible(col_scaled.node)
        assert is_reversible(reorder.node)
        assert not is_reversible(narrowing.node)

    def test_remove_from_dag_splices_unary_node(self, parties):
        pa, _ = parties
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", simple_schema(), at=pa)
            projected = t1.project(["key", "value"])
            projected.collect("out", to=[pa])
        project_node = projected.node
        collect_node = project_node.children[0]
        project_node.remove_from_dag()
        assert collect_node.parents == [t1.node]
        assert collect_node in t1.node.children

    def test_replace_parent_errors_for_non_parent(self, parties):
        pa, pb = parties
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", simple_schema(), at=pa)
            t2 = ctx.new_table("t2", simple_schema(), at=pb)
            projected = t1.project(["key"])
        with pytest.raises(ValueError):
            projected.node.replace_parent(t2.node, t1.node)

    def test_locus(self, parties):
        pa, _ = parties
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", simple_schema(), at=pa)
            projected = t1.project(["key"])
        projected.node.is_mpc = True
        assert projected.node.locus() == ("mpc", "joint")
        projected.node.is_mpc = False
        projected.node.run_at = "b.example"
        assert projected.node.locus() == ("local", "b.example")
