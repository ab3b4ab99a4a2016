"""Tests for sort elimination (§5.4).

Only a ``SortBy`` or a ``Merge`` sets a row order, and only operators that
neither drop nor move rows keep it.  Each shape below used to lose that
rule somewhere (an MPC filter or aggregation shuffles in ``compact``, a
public join keeps no key order, a distinct keeps first occurrences, a sort
has a direction), and the reference for every answer is the same query
compiled with ``enable_sort_elimination=False`` plus a direct ``Table``
computation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as cc
from repro.core.config import CompilationConfig
from repro.core.lang import QueryContext
from repro.core.operators import Aggregate, Filter, HybridAggregate, SortBy
from repro.data.schema import ColumnDef, Schema
from repro.data.table import Table

PA, PB = cc.Party("a.example"), cc.Party("b.example")
KV = [cc.Column("k"), cc.Column("v")]
#: A public key ``k`` on both sides makes a join of the two a public join.
PUBLIC_KV = [cc.Column("k", public=True), cc.Column("v")]
PUBLIC_KW = [cc.Column("k", public=True), cc.Column("w")]


def compile_query(build, config=None):
    with QueryContext() as ctx:
        build(ctx)
    return cc.compile_query(ctx, config or CompilationConfig())


def table(names, rows):
    return Table.from_rows(Schema([ColumnDef(name) for name in names]), rows)


#: Two parties' ``(k, v)`` relations with repeated keys, and a ``(k, w)``
#: relation at the second party for the joins.
T1 = table("kv", [(3, 5), (1, 2), (4, 9), (1, 7), (0, 3), (4, 1), (2, 8), (3, 4), (0, 6)])
T2 = table("kv", [(2, 3), (4, 6), (0, 1), (3, 8), (1, 4), (2, 9), (4, 2), (3, 1)])
W2 = table("kw", [(1, 10), (3, 30), (4, 40), (1, 11), (0, 50), (4, 41)])
INPUTS = {PA.name: {"t1": T1}, PB.name: {"t2": T2}}


def run_both(build, inputs=INPUTS):
    """Rows of ``build``'s ``out`` with sort elimination on, then off."""
    with QueryContext() as ctx:
        build(ctx)
    return [
        cc.run_query(ctx, inputs, CompilationConfig(enable_sort_elimination=on), seed=5)
        .outputs["out"]
        .rows()
        for on in (True, False)
    ]


def grouped(source, key, outputs):
    """Rows ``(key, *outputs)`` of a group-by of ``source``, each output
    ``(func, column)`` computed by ``Table.aggregate``."""
    parts = [source.aggregate([key], over, func, "out") for func, over in outputs]
    return [(k, *(part.row(i)[1] for part in parts)) for i, (k, _) in enumerate(parts[0].rows())]


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
                .project(["k", "v"])
                .with_column("w", cc.col("v") + 1)
                .aggregate(group=["k"], aggs={"total": cc.SUM("w")})
            )
            chained.collect("out", to=[PA])

        compiled = compile_query(build, CompilationConfig(enable_push_down=False))
        agg = [n for n in compiled.dag.topological() if isinstance(n, Aggregate)][0]
        assert agg.presorted

    def test_filter_clears_sort_information(self):
        # The limit keeps the filter after the sort (``sort_filters_first``
        # moves a filter only through row-wise operators); it cuts no row.
        def build(ctx):
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            chained = (
                ctx.concat([t1, t2])
                .sort_by("k")
                .limit(len(T1) + len(T2))
                .filter(cc.col("v") > 2)
                .project(["k", "v"])
                .aggregate(group=["k"], aggs={"total": cc.SUM("v")})
            )
            chained.collect("out", to=[PA])

        config = CompilationConfig(enable_push_down=False)
        agg = [n for n in compile_query(build, config).dag.topological() if isinstance(n, Aggregate)]
        assert not agg[0].presorted
        with QueryContext() as ctx:
            build(ctx)
        rows = cc.run_query(ctx, INPUTS, config, seed=5).outputs["out"].rows()
        assert sorted(rows) == grouped(T1.concat(T2).filter("v", ">", 2), "k", [("sum", "v")])


class TestOnlySortsSetOrder:
    """Shapes that returned wrong rows or a wrong order under the default
    config while sort elimination trusted per-operator order guesses."""

    def test_filter_after_sort_does_not_presort_the_aggregation(self):
        def build(ctx):
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            ctx.concat([t1, t2]).sort_by("k").filter(cc.col("v") > 2).aggregate(
                group=["k"], aggs={"s": cc.SUM("v"), "m": cc.MAX("v")}
            ).collect("out", to=[PA])

        on, off = run_both(build)
        expected = grouped(T1.concat(T2).filter("v", ">", 2), "k", [("sum", "v"), ("max", "v")])
        assert sorted(on) == sorted(off) == expected

    def test_public_join_has_no_key_order(self):
        def build(ctx):
            left = ctx.new_table("t1", PUBLIC_KV, at=PA)
            right = ctx.new_table("w2", PUBLIC_KW, at=PB)
            # The MAX keeps the aggregation out of the hybrid rewrite.
            left.join(right, on="k").aggregate(
                group=["k"], aggs={"s": cc.SUM("v"), "m": cc.MAX("w")}
            ).collect("out", to=[PA])

        on, off = run_both(build, {PA.name: {"t1": T1}, PB.name: {"w2": W2}})
        expected = grouped(T1.join(W2, ["k"], ["k"]), "k", [("sum", "v"), ("max", "w")])
        assert sorted(on) == sorted(off) == expected

    def test_sort_after_mpc_aggregation_is_kept(self):
        def build(ctx):
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            ctx.concat([t1, t2]).aggregate(group=["k"], aggs={"s": cc.SUM("v")}).sort_by(
                "k"
            ).collect("out", to=[PA])

        on, off = run_both(build)
        assert on == off == grouped(T1.concat(T2), "k", [("sum", "v")])

    def test_sort_after_distinct_is_kept(self):
        def build(ctx):
            ctx.new_table("t1", KV, at=PA).distinct(["k"]).sort_by("k").collect("out", to=[PA])

        on, off = run_both(build, {PA.name: {"t1": T1}})
        assert on == off == T1.distinct(["k"]).sort_by(["k"]).rows()

    def test_sort_in_the_other_direction_is_kept(self):
        def build(ctx):
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            ctx.concat([t1, t2]).sort_by("k", ascending=False).sort_by("k").collect(
                "out", to=[PA]
            )

        on, off = run_both(build)
        assert on == off
        assert sorted(on) == sorted(T1.concat(T2).rows())
        assert [row[0] for row in on] == sorted(row[0] for row in on)

    def test_hybrid_aggregation_is_not_counted_as_presorted(self):
        def build(ctx):
            left = ctx.new_table("t1", PUBLIC_KV, at=PA)
            right = ctx.new_table("w2", PUBLIC_KW, at=PB)
            left.join(right, on="k").aggregate(
                group=["k"], aggs={"s": cc.SUM("v"), "n": cc.COUNT()}
            ).collect("out", to=[PA])

        compiled = compile_query(build)
        (agg,) = [n for n in compiled.dag.topological() if isinstance(n, HybridAggregate)]
        assert not agg.presorted
        assert compiled.report.sorts_eliminated == 0
        on, off = run_both(build, {PA.name: {"t1": T1}, PB.name: {"w2": W2}})
        expected = grouped(T1.join(W2, ["k"], ["k"]), "k", [("sum", "v"), ("count", None)])
        assert sorted(on) == sorted(off) == expected


class TestFiltersRunBeforeSorts:
    """A filter that follows a sort runs before it: an MPC filter's
    compaction shuffles its rows, so a top-k taken after it returned
    arbitrary rows under the default config.  ``v`` is unique across ``a``
    and ``b`` (:data:`FENCE_INPUTS`), so every expected row list is exact."""

    @staticmethod
    def run(build, config):
        with QueryContext() as ctx:
            build(ctx)
        return cc.run_query(ctx, FENCE_INPUTS, config, seed=5).outputs

    @staticmethod
    def both():
        return FENCE_INPUTS[PA.name]["a"].concat(FENCE_INPUTS[PB.name]["b"])

    @pytest.mark.parametrize("push_down", [True, False])
    @pytest.mark.parametrize("eliminate", [True, False])
    def test_a_top_k_whose_filter_follows_its_sort(self, push_down, eliminate):
        def build(ctx):
            a, b = ctx.new_table("a", KV, at=PA), ctx.new_table("b", KV, at=PB)
            ctx.concat([a, b]).sort_by("v").filter(cc.col("k") > 0).limit(4).collect("out", to=[PA])

        config = CompilationConfig(enable_push_down=push_down, enable_sort_elimination=eliminate)
        compiled = compile_query(build, config)
        assert not [n for n in compiled.dag.topological()
                    if isinstance(n, Filter) and isinstance(n.parent, SortBy)]
        expected = self.both().filter("k", ">", 0).sort_by(["v"]).limit(4).rows()
        assert self.run(build, config)["out"].rows() == expected

    def test_a_compound_filter_and_a_projection_move_with_it(self):
        def build(ctx):
            a, b = ctx.new_table("a", KV, at=PA), ctx.new_table("b", KV, at=PB)
            (ctx.concat([a, b]).sort_by("v", ascending=False).project(["v", "k"])
             .filter(cc.col("k") + cc.col("v") > 6).limit(5).collect("out", to=[PA]))

        expected = (self.both().filter_predicate(lambda row: row[0] + row[1] > 6)
                    .sort_by(["v"], ascending=False).project(["v", "k"]).limit(5).rows())
        for push_down in (True, False):
            assert self.run(build, CompilationConfig(enable_push_down=push_down))["out"].rows() == expected

    def test_a_sort_with_other_children_keeps_serving_them(self):
        def build(ctx):
            a, b = ctx.new_table("a", KV, at=PA), ctx.new_table("b", KV, at=PB)
            ordered = ctx.concat([a, b]).sort_by("v")
            ordered.filter(cc.col("k") > 1).limit(3).collect("top", to=[PA])
            ordered.limit(3).collect("first", to=[PA])

        compiled = compile_query(build)
        assert len([n for n in compiled.dag.topological() if isinstance(n, SortBy)]) == 2
        outputs = self.run(build, CompilationConfig())
        assert outputs["top"].rows() == self.both().filter("k", ">", 1).sort_by(["v"]).limit(3).rows()
        assert outputs["first"].rows() == self.both().sort_by(["v"]).limit(3).rows()

    def test_the_aggregation_after_a_moved_filter_is_presorted(self):
        def build(ctx):
            t1 = ctx.new_table("t1", KV, at=PA)
            t2 = ctx.new_table("t2", KV, at=PB)
            (ctx.concat([t1, t2]).sort_by("k").filter(cc.col("v") > 2).project(["k", "v"])
             .aggregate(group=["k"], aggs={"total": cc.SUM("v")}).collect("out", to=[PA]))

        config = CompilationConfig(enable_push_down=False)
        agg = [n for n in compile_query(build, config).dag.topological() if isinstance(n, Aggregate)]
        assert agg[0].presorted
        on, off = run_both(build)
        assert sorted(on) == sorted(off) == grouped(T1.concat(T2).filter("v", ">", 2), "k", [("sum", "v")])


# -- generated pipelines -----------------------------------------------------------------------

#: ``v`` is unique across both parties, so a sort on it is a total order and
#: a ``limit`` after it picks the same rows in every plan.  ``d`` holds one
#: row per public key, so a join with it keeps ``v`` unique.
FENCE_INPUTS = {
    PA.name: {
        "a": table("kv", [(2, 14), (0, 3), (3, 9), (1, 12), (2, 5), (0, 10), (3, 1), (1, 7)]),
        "d": table("kw", [(0, 100), (2, 300), (3, 200)]),
    },
    PB.name: {"b": table("kv", [(1, 6), (3, 11), (0, 2), (2, 13), (1, 4), (2, 8), (0, 15)])},
}


@st.composite
def pipelines(draw):
    """Up to four steps over ``concat(a, b)``, optionally ending in a sort:
    each step is ``(name, args)`` and applies to the columns present."""
    columns, unique, steps = ["k", "v"], {"v"}, []
    #: Whether the rows are in a total order: a sort on a unique column
    #: followed by filters only.
    ordered = False
    for _ in range(draw(st.integers(1, 4))):
        # Sorts are drawn twice as often as any other step: only a pipeline
        # with a sort gives the pass anything to do.
        choices = ["sort", "sort", "filter", "project", "with_column"]
        if "k" in columns:
            choices += ["aggregate", "distinct"] + (["join"] if "w" not in columns else [])
        # A total order is what a limit needs: draw one (or another
        # filter before it) about every other time there is one.
        if ordered and draw(st.booleans()):
            kind = draw(st.sampled_from(["limit", "filter"]))
        else:
            kind = draw(st.sampled_from(choices))
        if kind == "sort":
            # Listed first, a unique column is drawn about as often as the rest.
            args = (draw(st.sampled_from(sorted(unique) + columns)), draw(st.booleans()))
        elif kind == "filter":
            args = (draw(st.sampled_from(columns)), draw(st.integers(0, 8)))
        elif kind == "project":
            keep = draw(st.lists(st.sampled_from(columns), min_size=1, unique=True))
            columns, unique = keep, unique & set(keep)
            args = (keep,)
        elif kind == "with_column":
            source = draw(st.sampled_from(columns))
            name = f"c{len(steps)}"
            columns, unique = columns + [name], unique | ({name} if source in unique else set())
            args = (name, source)
        elif kind == "limit":
            args = (draw(st.integers(1, 6)),)
        elif kind == "aggregate":
            over = draw(st.sampled_from([c for c in columns if c != "k"] or [None]))
            func = "count" if over is None else draw(st.sampled_from(["sum", "max", "min", "count"]))
            columns, unique = ["k", "x"], {"k"}
            args = (func, over)
        elif kind == "distinct":
            columns, unique = ["k"], {"k"}
            args = ()
        else:
            columns = columns + ["w"]
            args = ()
        steps.append((kind, args))
        ordered = kind == "sort" and args[0] in unique or kind == "filter" and ordered
    if draw(st.booleans()):
        steps.append(("sort", (draw(st.sampled_from(columns)), draw(st.booleans()))))
    return steps


def build_pipeline(ctx, steps):
    rel = ctx.concat([ctx.new_table("a", PUBLIC_KV, at=PA), ctx.new_table("b", PUBLIC_KV, at=PB)])
    dimension = None
    for kind, args in steps:
        if kind == "sort":
            rel = rel.sort_by(args[0], ascending=args[1])
        elif kind == "filter":
            rel = rel.filter(cc.col(args[0]) > args[1])
        elif kind == "project":
            rel = rel.project(args[0])
        elif kind == "with_column":
            rel = rel.with_column(args[0], cc.col(args[1]) + 1)
        elif kind == "limit":
            rel = rel.limit(args[0])
        elif kind == "aggregate":
            func, over = args
            rel = rel.aggregate(group=["k"], aggs={"x": cc.AggSpec(func, over)})
        elif kind == "distinct":
            rel = rel.distinct(["k"])
        else:
            dimension = dimension or ctx.new_table("d", PUBLIC_KW, at=PA)
            rel = rel.join(dimension, on="k")
    rel.collect("out", to=[PA])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(steps=pipelines())
def test_generated_pipelines_match_the_plan_without_elimination(steps):
    with QueryContext() as ctx:
        build_pipeline(ctx, steps)
    for push_down in (True, False):
        eliminating, plain = (
            CompilationConfig(enable_push_down=push_down, enable_sort_elimination=flag)
            for flag in (True, False)
        )
        if cc.compile_query(ctx, eliminating).report.sorts_eliminated == 0:
            continue  # the pass changed nothing, so both plans are the same plan
        on, off = (
            cc.run_query(ctx, FENCE_INPUTS, config, seed=5).outputs["out"]
            for config in (eliminating, plain)
        )
        assert sorted(on.rows()) == sorted(off.rows())
        if steps[-1][0] == "sort":
            position = on.schema.names.index(steps[-1][1][0])
            assert [row[position] for row in on.rows()] == [row[position] for row in off.rows()]


def table_pipeline(steps) -> Table:
    """``steps`` computed directly on the ``Table``s of :data:`FENCE_INPUTS`."""
    rel = FENCE_INPUTS[PA.name]["a"].concat(FENCE_INPUTS[PB.name]["b"])
    for kind, args in steps:
        if kind == "sort":
            rel = rel.sort_by([args[0]], ascending=args[1])
        elif kind == "filter":
            rel = rel.filter(args[0], ">", args[1])
        elif kind == "project":
            rel = rel.project(args[0])
        elif kind == "with_column":
            rel = rel.with_column(args[0], rel.column(args[1]) + 1)
        elif kind == "limit":
            rel = rel.limit(args[0])
        elif kind == "aggregate":
            func, over = args
            rel = rel.aggregate(["k"], over, func, "x")
        elif kind == "distinct":
            rel = rel.distinct(["k"])
        else:
            rel = rel.join(FENCE_INPUTS[PA.name]["d"], ["k"], ["k"])
    return rel


@settings(max_examples=100, deadline=None, derandomize=True)
@given(steps=pipelines())
def test_generated_pipelines_match_a_direct_table_computation(steps):
    """A ``limit`` is drawn only where a sort on a unique column, and
    filters after it, fix which rows it keeps."""
    with QueryContext() as ctx:
        build_pipeline(ctx, steps)
    expected = table_pipeline(steps)
    for push_down in (True, False):
        out = cc.run_query(ctx, FENCE_INPUTS, CompilationConfig(enable_push_down=push_down),
                           seed=5).outputs["out"]
        assert out.schema.names == expected.schema.names
        assert sorted(out.rows()) == sorted(expected.rows())
        if steps[-1][0] == "sort":
            position = out.schema.names.index(steps[-1][1][0])
            assert [row[position] for row in out.rows()] == [row[position] for row in expected.rows()]
