"""Expression lowering: AST structure, backend parity, and plan invariants.

Covers the expression-API tentpole:

* AST construction and structural analyses (columns, conjuncts, booleans);
* lowering of compound predicates, arithmetic, multi-key joins and
  multi-aggregate group-bys into the fixed operator vocabulary;
* the same expression query runs once, and both cleartext price lists price
  that run; it also compiles and estimates as Obliv-C circuits;
* acceptance invariant: the credit-card query is one aggregate call with
  two aggregates plus a compound filter variant;
* concurrency safety of query construction (ContextVar stack) and eager
  validation of filter operators.
"""

import threading

import numpy as np
import pytest

import repro as cc
from repro.core.config import CompilationConfig
from repro.core.expr import BooleanOp, Comparison, Negation, col, conjuncts, lit
from repro.core.lang import QueryContext
from repro.core.operators import BoolOp, Compare, Filter, Map
from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table
from repro.model.prices import GarbledCostModel, PythonCostModel, SparkCostModel, price
from repro.workloads.credit import CreditWorkload

from oracle_engine import OracleRunner

PA, PB = cc.Party("alpha.example"), cc.Party("beta.example")

ABC_SCHEMA = Schema([ColumnDef("a"), ColumnDef("b"), ColumnDef("c")])
ABC_ROWS = [(1, 10, 2), (2, 20, 3), (1, 30, 2), (3, 40, 5), (2, 50, 3), (4, 0, 7)]


def abc_columns():
    return [cc.Column("a", cc.INT), cc.Column("b", cc.INT), cc.Column("c", cc.INT)]


class TestExpressionAst:
    def test_columns_of_compound_expression(self):
        expression = ((col("a") + 1) * col("b") > 3) & ~(col("c") == 0)
        assert expression.columns() == {"a", "b", "c"}

    def test_conjunction_flattens(self):
        expression = (col("a") > 0) & (col("b") > 1) & (col("c") > 2)
        assert len(conjuncts(expression)) == 3

    def test_boolean_operators_require_predicates(self):
        with pytest.raises(TypeError):
            col("a") & col("b")
        with pytest.raises(TypeError):
            ~col("a")
        # Both operand positions are validated.
        with pytest.raises(TypeError):
            col("a") | (col("b") > 1)
        with pytest.raises(TypeError):
            (col("b") > 1) & col("a")
        with pytest.raises(TypeError):
            BooleanOp("or", (col("a"), col("b") > 1))

    def test_expressions_have_no_truth_value(self):
        with pytest.raises(TypeError, match="no truth value"):
            bool(col("a") > 0)

    def test_comparison_normalises_literal_to_the_right(self):
        norm = (lit(5) > col("a")).normalised()
        assert norm.op == "<" and norm.left.name == "a"

    def test_negation_and_disjunction_build_expected_nodes(self):
        expression = (col("a") == 1) | ~(col("b") == 2)
        assert isinstance(expression, BooleanOp) and expression.op == "or"
        assert isinstance(expression.operands[1], Negation)
        assert isinstance(expression.operands[0], Comparison)

    def test_lit_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            lit("nope")
        with pytest.raises(TypeError):
            col("a") + "nope"


class TestFilterLowering:
    def build(self, predicate):
        with QueryContext() as ctx:
            t = ctx.new_table("t", abc_columns(), at=PA)
            out = t.filter(predicate)
        return ctx, out

    def test_simple_predicate_lowers_to_one_filter(self):
        _, out = self.build(col("b") > 10)
        assert isinstance(out.node, Filter)
        assert (out.node.column, out.node.op, out.node.value) == ("b", ">", 10)
        assert out.schema.names == ["a", "b", "c"]

    def test_conjunction_lowers_to_filter_chain(self):
        _, out = self.build((col("b") > 10) & (col("a") == 1))
        assert isinstance(out.node, Filter)
        assert isinstance(out.node.parent, Filter)
        assert out.schema.names == ["a", "b", "c"]

    def test_disjunction_lowers_to_mask_and_projects_temporaries_away(self):
        _, out = self.build((col("b") > 10) | (col("a") == 1))
        # Final schema is clean: the mask and compare temporaries are gone.
        assert out.schema.names == ["a", "b", "c"]
        # A BoolOp and Compare appear in the lowered chain.
        ops = set()
        node = out.node
        while node.parents:
            ops.add(type(node).__name__)
            node = node.parents[0]
        assert {"Project", "Filter", "BoolOp", "Compare"} <= ops

    def test_negated_simple_comparison_lowers_to_complementary_filter(self):
        _, out = self.build(~(col("a") == 1))
        assert isinstance(out.node, Filter)
        assert (out.node.column, out.node.op, out.node.value) == ("a", "!=", 1)
        _, out = self.build((col("b") > 10) & ~(col("a") >= 3))
        assert isinstance(out.node, Filter)
        assert (out.node.op, out.node.value) == ("<", 3)
        assert isinstance(out.node.parent, Filter)

    def test_ordering_comparisons_exact_at_boundaries_under_mpc(self):
        """'>' and '<=' (single-comparison lowering) are exact at v and v±1."""
        rows = [(1, 9, 0), (2, 10, 0), (3, 11, 0)]
        for op, expected_b in (
            (col("b") > 10, {11}),
            (col("b") <= 10, {9, 10}),
            (col("b") >= 10, {10, 11}),
            (col("b") < 10, {9}),
        ):
            with QueryContext() as ctx:
                t1 = ctx.new_table("t1", abc_columns(), at=PA)
                t2 = ctx.new_table("t2", abc_columns(), at=PB)
                ctx.concat([t1, t2]).filter(op).collect("out", to=[PA])
            inputs = {
                PA.name: {"t1": Table.from_rows(ABC_SCHEMA, rows)},
                PB.name: {"t2": Table.from_rows(ABC_SCHEMA, rows)},
            }
            config = CompilationConfig(enable_push_down=False)
            out = cc.run_query(ctx, inputs, config).outputs["out"]
            assert set(out.column("b").tolist()) == expected_b

    def test_fractional_constant_in_mpc_matches_cleartext(self):
        """INT column vs fractional constant: MPC matches cleartext exactly."""
        rows = [(1, 2, 0), (2, 3, 0)]
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", abc_columns(), at=PA)
            t2 = ctx.new_table("t2", abc_columns(), at=PB)
            kept = ctx.concat([t1, t2]).filter((col("b") < 2.5) | (col("b") == 2.5))
            kept.collect("out", to=[PA])
        inputs = {
            PA.name: {"t1": Table.from_rows(ABC_SCHEMA, rows)},
            PB.name: {"t2": Table.from_rows(ABC_SCHEMA, rows)},
        }
        config = CompilationConfig(enable_push_down=False)
        output = sorted(cc.run_query(ctx, inputs, config).outputs["out"].rows())
        assert output == sorted([r for r in rows + rows if r[1] < 2.5])

    def test_mixed_conjunction_keeps_simple_tests_on_the_filter_fast_path(self):
        _, out = self.build((col("a") > 0) & ((col("b") > 10) | (col("c") == 7)))
        # The simple conjunct becomes a classic Filter *below* the mask
        # machinery, so it shrinks rows before any Compare/BoolOp runs.
        chain = []
        node = out.node
        while node.parents:
            chain.append(node)
            node = node.parents[0]
        filters = [n for n in chain if isinstance(n, Filter)]
        assert any((f.column, f.op, f.value) == ("a", ">", 0) for f in filters)
        compares = [n for n in chain if n.op_name == "compare"]
        assert all(n.left != "a" for n in compares)
        assert out.schema.names == ["a", "b", "c"]

    def test_column_vs_column_comparison_is_supported(self):
        _, out = self.build(col("b") > col("a"))
        assert out.schema.names == ["a", "b", "c"]
        reference = Table.from_rows(ABC_SCHEMA, ABC_ROWS)
        result = cc.run_query(
            self._collected(col("b") > col("a")), {PA.name: {"t": reference}}
        ).outputs["out"]
        expected = [r for r in reference.rows() if r[1] > r[0]]
        assert sorted(result.rows()) == sorted(expected)

    def _collected(self, predicate):
        with QueryContext() as ctx:
            t = ctx.new_table("t", abc_columns(), at=PA)
            t.filter(predicate).collect("out", to=[PA])
        return ctx

    def test_filter_validates_columns_eagerly(self):
        with QueryContext() as ctx:
            t = ctx.new_table("t", abc_columns(), at=PA)
            with pytest.raises(KeyError, match="nope"):
                t.filter(col("nope") > 0)

    def test_filter_node_validates_operator_eagerly(self):
        with QueryContext() as ctx:
            t = ctx.new_table("t", abc_columns(), at=PA)
            with pytest.raises(ValueError, match=r"=>.*supported operators.*<="):
                Filter(t.node.out_rel.copy("bad"), t.node, "a", "=>", 1)


class TestWithColumnLowering:
    def run_with_column(self, expression, rows=ABC_ROWS):
        with QueryContext() as ctx:
            t = ctx.new_table("t", abc_columns(), at=PA)
            t.with_column("x", expression).collect("out", to=[PA])
        table = Table.from_rows(ABC_SCHEMA, rows)
        return cc.run_query(ctx, {PA.name: {"t": table}}).outputs["out"]

    def test_schema_is_input_plus_one_column(self):
        out = self.run_with_column(col("a") * col("b") + 1)
        assert out.schema.names == ["a", "b", "c", "x"]

    def test_arithmetic_values(self):
        out = self.run_with_column((col("a") + col("b")) * 2 - col("c"))
        for a, b, c_val, x in out.rows():
            assert x == (a + b) * 2 - c_val

    def test_scalar_minus_column(self):
        out = self.run_with_column(100 - col("b"))
        for _, b, _, x in out.rows():
            assert x == 100 - b

    def test_scalar_divided_by_column(self):
        out = self.run_with_column(lit(10) / col("c"))
        for _, _, c_val, x in out.rows():
            assert x == pytest.approx(10 / c_val, abs=1e-6)

    def test_constant_folding_produces_single_operator(self):
        with QueryContext() as ctx:
            t = ctx.new_table("t", abc_columns(), at=PA)
            out = t.with_column("x", col("a") * (lit(2) + lit(3)))
        assert isinstance(out.node, Map) and out.node.op == "*"
        assert out.node.right == 5

    def test_literal_column(self):
        out = self.run_with_column(lit(7))
        assert set(out.column("x").tolist()) == {7}

    def test_boolean_expression_as_column(self):
        out = self.run_with_column((col("b") > 10) & (col("c") == 3))
        for _, b, c_val, x in out.rows():
            assert x == int(b > 10 and c_val == 3)

    def test_with_column_name_lands_on_the_result_relation(self):
        with QueryContext() as ctx:
            t = ctx.new_table("t", abc_columns(), at=PA)
            single = t.with_column("x", col("a") * 2, name="doubled")
            compound = t.with_column("y", col("a") + col("b") * 2, name="scored")
        assert single.name == "doubled"
        assert compound.name == "scored"

    def test_with_column_rejects_existing_name(self):
        with QueryContext() as ctx:
            t = ctx.new_table("t", abc_columns(), at=PA)
            with pytest.raises(ValueError, match="already exists"):
                t.with_column("a", col("b") + 1)


class TestMultiKeyJoin:
    def test_two_column_join_matches_cleartext_reference(self):
        left_rows = [(1, 2, 10), (1, 3, 20), (2, 2, 30), (4, 4, 40)]
        right_rows = [(1, 2, 100), (2, 2, 200), (1, 9, 300)]
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", abc_columns(), at=PA)
            t2 = ctx.new_table(
                "t2",
                [cc.Column("a", cc.INT), cc.Column("b", cc.INT), cc.Column("d", cc.INT)],
                at=PB,
            )
            joined = t1.join(t2, on=["a", "b"])
            joined.collect("out", to=[PA, PB])
        assert joined.schema.names == ["a", "b", "c", "d"]

        inputs = {
            PA.name: {"t1": Table.from_rows(ABC_SCHEMA, left_rows)},
            PB.name: {
                "t2": Table.from_rows(
                    Schema([ColumnDef("a"), ColumnDef("b"), ColumnDef("d")]), right_rows
                )
            },
        }
        result = cc.run_query(ctx, inputs).outputs["out"]
        reference = inputs[PA.name]["t1"].join(inputs[PB.name]["t2"], ["a", "b"], ["a", "b"])
        assert sorted(result.rows()) == sorted(reference.rows())

    def test_differently_named_key_pairs(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", abc_columns(), at=PA)
            t2 = ctx.new_table(
                "t2",
                [cc.Column("x", cc.INT), cc.Column("y", cc.INT), cc.Column("d", cc.INT)],
                at=PB,
            )
            joined = t1.join(t2, on=[("a", "x"), ("b", "y")])
        assert joined.schema.names == ["a", "b", "c", "d"]

    def test_single_key_on_form_produces_plain_join(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", abc_columns(), at=PA)
            t2 = ctx.new_table("t2", abc_columns(), at=PB)
            joined = t1.join(t2, on="a")
        assert joined.node.op_name == "join"
        assert joined.schema.names == ["a", "b", "c", "b_r", "c_r"]

    def test_bare_tuple_on_is_rejected_as_ambiguous(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", abc_columns(), at=PA)
            t2 = ctx.new_table("t2", abc_columns(), at=PB)
            with pytest.raises(TypeError, match="ambiguous"):
                t1.join(t2, on=("a", "b"))
            # Both disambiguated forms work.
            pair = t1.join(t2, on=[("a", "b")])
            assert (pair.node.left_on, pair.node.right_on) == ("a", "b")
            multi = t1.join(t2, on=["a", "b"])
            assert multi.schema.names == ["a", "b", "c", "c_r"]

    def test_composite_key_overflow_rejected_at_build_time(self):
        wide = [cc.Column(n, cc.INT) for n in "abcd"]
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", wide, at=PA)
            t2 = ctx.new_table("t2", wide, at=PB)
            # 4 key columns at the default 2**20 base would need 2**80 of
            # key space — must be rejected, not silently wrapped mod 2**64.
            with pytest.raises(ValueError, match="overflows the 64-bit"):
                t1.join(t2, on=["a", "b", "c", "d"])
            # A base sized to the domain makes the same join legal.
            joined = t1.join(t2, on=["a", "b", "c", "d"], key_base=1 << 15)
            assert joined.schema.names == ["a", "b", "c", "d"]

    def test_aggregate_accepts_key_base_for_wide_group_domains(self):
        with QueryContext() as ctx:
            t = ctx.new_table("t", abc_columns(), at=PA)
            stats = t.aggregate(
                group=["a", "c"], aggs={"n": cc.COUNT()}, key_base=1 << 30
            )
            stats.collect("out", to=[PA])
        table = Table.from_rows(ABC_SCHEMA, [(2_000_000, 1, 9), (2_000_000, 2, 9), (5, 3, 9)])
        result = cc.run_query(ctx, {PA.name: {"t": table}}).outputs["out"]
        got = {(row[0], row[1]): row[2] for row in result.rows()}
        assert got == {(2_000_000, 9): 2, (5, 9): 1}

    def test_join_keys_validated_eagerly(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", abc_columns(), at=PA)
            t2 = ctx.new_table("t2", abc_columns(), at=PB)
            with pytest.raises(KeyError):
                t1.join(t2, on=[("a", "missing")])


class TestMultiAggregate:
    def test_two_aggs_one_group_column(self):
        with QueryContext() as ctx:
            t = ctx.new_table("t", abc_columns(), at=PA)
            stats = t.aggregate(
                group=["a"], aggs={"total": cc.SUM("b"), "n": cc.COUNT()}
            )
            stats.collect("out", to=[PA])
        assert stats.schema.names == ["a", "total", "n"]
        table = Table.from_rows(ABC_SCHEMA, ABC_ROWS)
        result = cc.run_query(ctx, {PA.name: {"t": table}}).outputs["out"]
        expected = {}
        for a, b, _ in ABC_ROWS:
            total, n = expected.get(a, (0, 0))
            expected[a] = (total + b, n + 1)
        got = {row[0]: (row[1], row[2]) for row in result.rows()}
        assert got == expected

    def test_multi_group_columns(self):
        with QueryContext() as ctx:
            t = ctx.new_table("t", abc_columns(), at=PA)
            stats = t.aggregate(
                group=["a", "c"], aggs={"total": cc.SUM("b"), "n": cc.COUNT()}
            )
            stats.collect("out", to=[PA])
        assert stats.schema.names == ["a", "c", "total", "n"]
        table = Table.from_rows(ABC_SCHEMA, ABC_ROWS)
        result = cc.run_query(ctx, {PA.name: {"t": table}}).outputs["out"]
        reference = {}
        for a, b, c_val in ABC_ROWS:
            total, n = reference.get((a, c_val), (0, 0))
            reference[(a, c_val)] = (total + b, n + 1)
        got = {(row[0], row[1]): (row[2], row[3]) for row in result.rows()}
        assert got == reference

    def test_scalar_multi_aggregate(self):
        with QueryContext() as ctx:
            t = ctx.new_table("t", abc_columns(), at=PA)
            stats = t.aggregate(aggs={"total": cc.SUM("b"), "n": cc.COUNT(), "top": cc.MAX("b")})
            stats.collect("out", to=[PA])
        assert stats.schema.names == ["total", "n", "top"]
        table = Table.from_rows(ABC_SCHEMA, ABC_ROWS)
        result = cc.run_query(ctx, {PA.name: {"t": table}}).outputs["out"]
        values = dict(zip(result.schema.names, result.rows()[0]))
        assert values == {
            "total": sum(r[1] for r in ABC_ROWS),
            "n": len(ABC_ROWS),
            "top": max(r[1] for r in ABC_ROWS),
        }

    def test_min_max_specs_cross_parties(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", abc_columns(), at=PA)
            t2 = ctx.new_table("t2", abc_columns(), at=PB)
            stats = ctx.concat([t1, t2]).aggregate(
                group=["a"], aggs={"lo": cc.MIN("b"), "hi": cc.MAX("b")}
            )
            stats.collect("out", to=[PA])
        rows_b = [(1, 5, 0), (2, 70, 0)]
        inputs = {
            PA.name: {"t1": Table.from_rows(ABC_SCHEMA, ABC_ROWS)},
            PB.name: {"t2": Table.from_rows(ABC_SCHEMA, rows_b)},
        }
        result = cc.run_query(ctx, inputs).outputs["out"]
        combined = ABC_ROWS + rows_b
        expected = {}
        for a, b, _ in combined:
            lo, hi = expected.get(a, (b, b))
            expected[a] = (min(lo, b), max(hi, b))
        got = {row[0]: (row[1], row[2]) for row in result.rows()}
        assert got == expected

    def test_agg_spec_must_be_called(self):
        with QueryContext() as ctx:
            t = ctx.new_table("t", abc_columns(), at=PA)
            with pytest.raises(TypeError, match="calling an aggregation"):
                t.aggregate(group=["a"], aggs={"total": 42})


PRICE_LISTS = [PythonCostModel(), SparkCostModel()]


class TestBackendParity:
    """The same expression query under every price list: one run that each
    list prices, and an estimate where it does not execute."""

    @staticmethod
    def expression_query():
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", abc_columns(), at=PA)
            t2 = ctx.new_table("t2", abc_columns(), at=PB)
            combined = ctx.concat([t1, t2])
            kept = combined.filter((col("b") > 5) | (col("c") == 7))
            scored = kept.with_column("score", col("b") * 2 + col("c"))
            stats = scored.aggregate(
                group=["a"], aggs={"total": cc.SUM("score"), "n": cc.COUNT()}
            )
            stats.collect("out", to=[PA])
        return ctx

    @staticmethod
    def inputs():
        return {
            PA.name: {"t1": Table.from_rows(ABC_SCHEMA, ABC_ROWS)},
            PB.name: {"t2": Table.from_rows(ABC_SCHEMA, [(1, 6, 7), (9, 4, 7), (2, 8, 1)])},
        }

    @pytest.mark.parametrize("cleartext", PRICE_LISTS, ids=["python", "spark"])
    def test_backends_agree_with_reference(self, cleartext):
        compiled = cc.compile_query(self.expression_query())
        result = cc.QueryRunner(sorted(self.inputs()), self.inputs()).run(compiled)
        assert price(compiled.dag, result.tally, cleartext=cleartext).simulated_seconds > 0
        reference_rows = ABC_ROWS + [(1, 6, 7), (9, 4, 7), (2, 8, 1)]
        expected = {}
        for a, b, c_val in reference_rows:
            if not (b > 5 or c_val == 7):
                continue
            score = b * 2 + c_val
            total, n = expected.get(a, (0, 0))
            expected[a] = (total + score, n + 1)
        got = {row[0]: (row[1], row[2]) for row in result.outputs["out"].rows()}
        assert got == expected

    def test_a_price_list_prices_the_run_and_changes_nothing_else(self):
        compiled = cc.compile_query(self.expression_query())
        result = cc.QueryRunner(sorted(self.inputs()), self.inputs()).run(compiled)
        python, spark = (price(compiled.dag, result.tally, cleartext=p) for p in PRICE_LISTS)
        assert python.simulated_seconds == result.simulated_seconds
        assert spark.backend_seconds["mpc:sharemind"] == python.backend_seconds["mpc:sharemind"]
        assert spark.simulated_seconds != python.simulated_seconds

    @pytest.mark.parametrize("cleartext", PRICE_LISTS, ids=["python", "spark"])
    def test_obliv_c_target_compiles_and_estimates(self, cleartext):
        compiled = cc.compile_query(self.expression_query())
        estimate = cc.PlanEstimator(cleartext=cleartext, mpc=GarbledCostModel()).estimate(compiled)
        engines = {name.split(":")[0] for name in estimate.backend_seconds}
        assert engines == {"mpc", "local"} and "mpc:obliv-c" in estimate.backend_seconds
        assert estimate.simulated_seconds > 0


class TestPaperQueryAcceptance:
    """Acceptance criteria of the redesign issue."""

    def test_credit_variant_with_compound_filter_is_expressible(self):
        """Score-range filtering + two aggregates in one call compiles and runs."""
        regulator = "mpc.ftc.gov"
        agencies = ["mpc.bank-a.com", "mpc.bank-b.cash"]
        p_reg = cc.Party(regulator)
        p_agencies = [cc.Party(a) for a in agencies]
        demo_schema = [cc.Column("ssn", cc.INT), cc.Column("zip", cc.INT)]
        bank_schema = [cc.Column("ssn", cc.INT, trust=[p_reg]), cc.Column("score", cc.INT)]
        with QueryContext() as ctx:
            demo = ctx.new_table("demographics", demo_schema, at=p_reg)
            scores = [
                ctx.new_table(f"scores_{i}", bank_schema, at=p)
                for i, p in enumerate(p_agencies)
            ]
            joined = demo.join(ctx.concat(scores), on="ssn")
            plausible = joined.filter((col("score") >= 300) & (col("score") <= 850))
            stats = plausible.aggregate(
                group=["zip"], aggs={"total": cc.SUM("score"), "cnt": cc.COUNT()}
            )
            stats.with_column("avg_score", col("total") / col("cnt")).collect(
                "avg_scores", to=[p_reg]
            )
        compiled = cc.compile_query(ctx)

        workload = CreditWorkload(num_zip_codes=10, seed=3)
        demo_t, agency_tables = workload.generate(num_people=60, rows_per_agency=30)
        inputs = {
            regulator: {"demographics": demo_t},
            agencies[0]: {"scores_0": agency_tables[0]},
            agencies[1]: {"scores_1": agency_tables[1]},
        }
        runner = cc.QueryRunner([regulator, *agencies], inputs)
        result = runner.run(compiled)
        output = result.outputs["avg_scores"]
        assert output.schema.names == ["zip", "total", "cnt", "avg_score"]
        for row in output.rows():
            values = dict(zip(output.schema.names, row))
            assert values["avg_score"] == pytest.approx(
                values["total"] / values["cnt"], abs=1e-3
            )


class TestConcurrentQueryConstruction:
    """The ContextVar stack keeps concurrent construction isolated."""

    def test_threads_do_not_share_the_context_stack(self):
        errors = []
        barrier = threading.Barrier(4)

        def build(tag: int):
            try:
                with QueryContext() as ctx:
                    barrier.wait(timeout=10)
                    # Module-level helpers resolve to *this* thread's context.
                    t = cc.new_table(f"t_{tag}", abc_columns(), at=PA)
                    barrier.wait(timeout=10)
                    t.filter(col("b") > tag).collect(f"out_{tag}", to=[PA])
                    dag = ctx.build_dag()
                names = [n.out_rel.name for n in dag.topological()]
                assert f"t_{tag}" in names
                assert all(f"t_{other}" not in names for other in range(4) if other != tag)
                assert len(dag.inputs()) == 1
            except Exception as exc:  # pragma: no cover - surfaced via errors list
                errors.append((tag, exc))

        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors

    def test_nested_contexts_still_stack_within_one_thread(self):
        with QueryContext() as outer:
            assert QueryContext.current() is outer
            with QueryContext() as inner:
                assert QueryContext.current() is inner
            assert QueryContext.current() is outer
        with pytest.raises(RuntimeError):
            QueryContext.current()


class TestNewOperatorsUnderMpc:
    def test_compound_predicate_inside_mpc(self):
        """A disjunction over a joint relation executes under MPC correctly."""
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", abc_columns(), at=PA)
            t2 = ctx.new_table("t2", abc_columns(), at=PB)
            joined = t1.join(t2, on="a")
            kept = joined.filter((col("b") > 20) | (col("b_r") > 20))
            kept.collect("out", to=[PA, PB])
        config = CompilationConfig(enable_push_down=False, enable_push_up=False)
        rows_b = [(1, 25, 0), (2, 5, 0), (3, 1, 1)]
        inputs = {
            PA.name: {"t1": Table.from_rows(ABC_SCHEMA, ABC_ROWS)},
            PB.name: {"t2": Table.from_rows(ABC_SCHEMA, rows_b)},
        }
        result = cc.run_query(ctx, inputs, config)
        reference = (
            inputs[PA.name]["t1"]
            .join(inputs[PB.name]["t2"], ["a"], ["a"])
            .filter_predicate(lambda row: row[1] > 20 or row[3] > 20)
        )
        got = sorted(result.outputs["out"].rows())
        assert got == sorted(reference.rows())


    IF_SCHEMA = Schema([ColumnDef("i"), ColumnDef("f", ColumnType.FLOAT)])

    @pytest.mark.parametrize(
        "expression, expected",
        [
            (lambda: col("i") * 2.5, lambda i, f: i * 2.5),
            (lambda: col("f") * 2.5, lambda i, f: f * 2.5),
            (lambda: col("i") * col("f"), lambda i, f: i * f),
            (lambda: col("i") / 4, lambda i, f: i / 4),
            (lambda: col("f") / 4, lambda i, f: f / 4),
            (lambda: col("i") + 2.5, lambda i, f: i + 2.5),
            (lambda: col("f") - col("i"), lambda i, f: f - i),
            (lambda: col("i") / col("f"), lambda i, f: i / f),
        ],
        ids=["i*2.5", "f*2.5", "i*f", "i/4", "f/4", "i+2.5", "f-i", "i/f"],
    )
    def test_fixed_point_product_does_not_depend_on_the_frontier(self, expression, expected):
        """A fractional public scalar (or a FLOAT column) is carried in fixed
        point under MPC: for every operator, scalar or column, the answer
        and its type are the same wherever the operator lands, on either
        engine, and as the compiler declared.  (Every quotient of the data
        has six decimals at most, so fixed point carries it exactly.)"""
        rows = {PA.name: [(4, 0.5), (6, 1.25), (8, 2.0)], PB.name: [(5, 1.25), (7, 2.5), (9, 3.0)]}
        columns = [cc.Column("i", cc.INT), cc.Column("f", cc.FLOAT)]
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", columns, at=PA)
            t2 = ctx.new_table("t2", columns, at=PB)
            ctx.concat([t1, t2]).with_column("z", expression()).collect("out", to=[PA])
        inputs = {
            PA.name: {"t1": Table.from_rows(self.IF_SCHEMA, rows[PA.name])},
            PB.name: {"t2": Table.from_rows(self.IF_SCHEMA, rows[PB.name])},
        }
        parties = [PA.name, PB.name]
        outputs = []
        for frontier in (True, False):
            config = CompilationConfig(enable_push_down=frontier, enable_push_up=frontier)
            compiled = cc.compile_query(ctx, config)
            arithmetic = next(
                n for n in compiled.dag.topological() if isinstance(n, Map) and n.out_name == "z"
            )
            assert arithmetic.is_mpc is not frontier
            for runner in (cc.QueryRunner, OracleRunner):
                out = runner(parties, inputs, config, seed=5).run(compiled).outputs["out"]
                (collect,) = compiled.dag.outputs()
                assert [(c.name, c.ctype) for c in collect.out_rel.schema] == [
                    (c.name, c.ctype) for c in out.schema
                ]
                outputs.append(out)
        assert all(out == outputs[0] for out in outputs)
        assert outputs[0].column("z").tolist() == [
            expected(i, f) for i, f in rows[PA.name] + rows[PB.name]
        ]


class TestDeepExpressionQuery:
    #: Derived-column stages in the chain; with the inputs, the aggregates and
    #: the collect the query lowers to over 50 operators.
    STAGES = 14

    def build(self):
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", abc_columns(), at=PA, estimated_rows=10_000)
            t2 = ctx.new_table("t2", abc_columns(), at=PB, estimated_rows=10_000)
            rel = ctx.concat([t1, t2])
            for i in range(self.STAGES):
                rel = rel.with_column(f"d{i}", col("b") * (i + 2) + col("c"))
                if i % 3 == 0:
                    rel = rel.filter((col(f"d{i}") > i) | (col("c") == i))
                rel = rel.project(["a", "b", "c"] + [f"d{j}" for j in range(i + 1)])
            stats = rel.aggregate(
                group=["a"],
                aggs={"total": cc.SUM(f"d{self.STAGES - 1}"), "n": cc.COUNT(), "hi": cc.MAX("b")},
            )
            stats.with_column("avg", col("total") / col("n")).collect("out", to=[PA])
        return ctx

    def test_fifty_operator_query_lowers_and_compiles(self):
        """A chain of derived columns, compound filters and projections over
        two parties, ending in a multi-aggregate group-by, lowers to 50+
        operators and compiles."""
        compiled = cc.compile_query(self.build())
        assert compiled.operator_count() >= 50
        assert compiled.mpc_operator_count() > 0
