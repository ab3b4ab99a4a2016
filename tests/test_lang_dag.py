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
from repro.data.schema import ColumnDef, ColumnType, PUBLIC, Schema
from repro.data.table import Table


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
        """Derived relations get fresh names; an analyst's input name is
        never silently renamed (see the next test)."""
        pa, _ = parties
        with QueryContext() as ctx:
            t1 = ctx.new_table("dup", simple_schema(), at=pa)
            f1 = t1.filter(cc.col("value") > 0, name="dup_kept")
            f2 = t1.filter(cc.col("value") > 1, name="dup_kept")
            with pytest.raises(ValueError, match="input name 'dup'"):
                ctx.new_table("dup", simple_schema(), at=pa)
        assert len({t1.name, f1.name, f2.name}) == 3

    def test_a_reused_input_or_output_name_is_refused_when_built(self, parties):
        pa, pb = parties
        with QueryContext() as ctx:
            ra = ctx.new_table("r", simple_schema(), at=pa)
            with pytest.raises(ValueError, match="input name 'r' is already the name of an input"):
                ctx.new_table("r", simple_schema(), at=pb)
            ra.collect("o", to=[pa])
            with pytest.raises(ValueError, match="output name 'o' is already the name of an out"):
                ra.collect("o", to=[pb])
            with pytest.raises(ValueError, match="output name 'r' is already the name of an input"):
                ra.collect("r", to=[pa])


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


def two_party_rows(ctx, parties, k2_type=cc.INT):
    """``t1`` at the first party with an INT ``k``, ``t2`` at the second
    with a ``k2`` of ``k2_type``."""
    pa, pb = parties
    t1 = ctx.new_table("t1", [cc.Column("k", cc.INT), cc.Column("v", cc.INT)], at=pa)
    t2 = ctx.new_table("t2", [cc.Column("k2", k2_type), cc.Column("w", cc.INT)], at=pb)
    return t1, t2


class TestJoinKeyTypes:
    """A join's key columns have one type: MPC carries a FLOAT in fixed
    point, so an INT-FLOAT match would depend on where the join runs."""

    def test_int_to_float_join_across_parties_is_rejected(self, parties):
        # Under MPC this join returned no rows; in the clear, (5, 1, 1).
        with QueryContext() as ctx:
            t1, t2 = two_party_rows(ctx, parties, k2_type=cc.FLOAT)
            with pytest.raises(ValueError, match=r"'k' is INT but 'k2' is FLOAT"):
                t1.join(t2, on=[("k", "k2")])

    def test_int_to_float_join_at_one_party_is_rejected(self, parties):
        # In the clear, the engine matched 2**53 + 1 to 2.0**53 and the
        # row oracle did not.
        pa, _ = parties
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", [cc.Column("k", cc.INT), cc.Column("v")], at=pa)
            t2 = ctx.new_table("t2", [cc.Column("k", cc.FLOAT), cc.Column("w")], at=pa)
            with pytest.raises(ValueError, match=r"'k' is INT but 'k' is FLOAT"):
                t1.join(t2, on="k")

    def test_every_pair_of_a_multi_column_key_is_checked(self, parties):
        with QueryContext() as ctx:
            t1, t2 = two_party_rows(ctx, parties, k2_type=cc.FLOAT)
            with pytest.raises(ValueError, match="'k2' is FLOAT"):
                t1.join(t2, on=[("v", "w"), ("k", "k2")])


class TestLimitCount:
    """``limit(n)`` takes a non-negative integer, in the clear and in MPC."""

    @staticmethod
    def ordered(ctx, parties, placement):
        """``t1`` sorted at its party, or ``t1`` and ``t2`` sorted in MPC."""
        pa, pb = parties
        t1 = ctx.new_table("t1", simple_schema(), at=pa)
        if placement == "cleartext":
            return t1.sort_by("value")
        t2 = ctx.new_table("t2", simple_schema(), at=pb)
        return ctx.concat([t1, t2]).sort_by("value")

    @pytest.mark.parametrize("placement", ["cleartext", "mpc"])
    @pytest.mark.parametrize("n", [-2, 2.7, 2.0, True])
    def test_a_count_it_cannot_honour_is_rejected_at_build(self, parties, placement, n):
        with QueryContext() as ctx:
            ordered = self.ordered(ctx, parties, placement)
            with pytest.raises(ValueError, match="non-negative integer"):
                ordered.limit(n)

    @pytest.mark.parametrize("placement", ["cleartext", "mpc"])
    @pytest.mark.parametrize("n", [0, 2, 10])
    def test_zero_and_counts_past_the_end_keep_working(self, parties, placement, n):
        pa, pb = parties
        with QueryContext() as ctx:
            self.ordered(ctx, parties, placement).limit(n).collect("out", to=[pa])
        schema = Schema([ColumnDef("key"), ColumnDef("value")])
        inputs = {
            pa.name: {"t1": Table(schema, [[1, 2, 3], [30, 10, 20]])},
            pb.name: {"t2": Table(schema, [[4], [5]])},
        }
        rows = [(2, 10), (3, 20), (1, 30)]
        if placement == "mpc":
            rows = [(4, 5), *rows]
        result = cc.run_query(ctx, inputs, seed=1)
        assert result.outputs["out"].rows() == rows[:n]
