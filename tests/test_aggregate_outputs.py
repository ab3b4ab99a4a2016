"""One group-by is one aggregation operator, however many aggregates it has.

``aggregate(group=[g], aggs={...})`` lowers to a single ``Aggregate`` (or
``HybridAggregate``) whose outputs are the aggregates, in ``aggs`` order:
nothing joins per-aggregate results back together.  The MPC aggregation
hands every compute party the sort order and group boundaries of its key,
and the leakage report says so, executed and predicted alike.
"""

import re
from collections import defaultdict

import numpy as np
import pytest

import repro as cc
from repro.core.config import CompilationConfig
from repro.core.operators import Aggregate, HybridAggregate, Join, Map, Project
from repro.data.schema import ColumnDef, Schema
from repro.data.table import Table
from repro.queries import market_concentration_query
from repro.workloads import TaxiWorkload

PA, PB, PC = cc.Party("a.example"), cc.Party("b.example"), cc.Party("c.example")
PARTIES = [PA, PB, PC]

#: ``k`` aggregates over one group column, all hybrid-eligible.
AGGS = {
    1: {"s": cc.SUM("v")},
    2: {"s": cc.SUM("v"), "n": cc.COUNT()},
    3: {"s": cc.SUM("v"), "n": cc.COUNT(), "t": cc.SUM("h")},
}

#: Configuration -> (MPC aggregation nodes, cleartext ones) it compiles to.
CONFIGS = {
    "mpc-only": (
        CompilationConfig(enable_push_down=False, enable_hybrid_operators=False), (1, 0)
    ),
    # One partial per party, then one merge under MPC.
    "push-down": (CompilationConfig(enable_hybrid_operators=False), (1, 3)),
    "hybrid": (CompilationConfig(enable_push_down=False), (1, 0)),
}

SCHEMA = Schema([ColumnDef("g"), ColumnDef("h"), ColumnDef("v")])


def inputs(seed: int = 7) -> dict:
    rng = np.random.default_rng(seed)
    return {
        p.name: {f"t{i}": Table(SCHEMA, [rng.integers(0, 4, 12), rng.integers(0, 3, 12),
                                          rng.integers(-50, 50, 12)])}
        for i, p in enumerate(PARTIES)
    }


def query(group, aggs):
    """``aggs`` by ``group`` over the three parties' rows; ``c.example`` may
    learn the ``g`` column, so it can be the aggregation's STP."""
    columns = [cc.Column("g", trust=[PC]), cc.Column("h"), cc.Column("v")]
    with cc.QueryContext() as ctx:
        tables = [ctx.new_table(f"t{i}", columns, at=p) for i, p in enumerate(PARTIES)]
        ctx.concat(tables).aggregate(group=group, aggs=aggs).collect("out", to=[PA])
    return ctx


def reference(group, aggs) -> list[tuple]:
    """The query's rows, computed row by row from the inputs."""
    groups = defaultdict(list)
    for tables in inputs().values():
        (table,) = tables.values()
        for row in table.rows():
            values = dict(zip(SCHEMA.names, row))
            groups[tuple(values[g] for g in group)].append(values)
    reducers = {"sum": lambda rows, c: sum(r[c] for r in rows), "count": lambda rows, c: len(rows)}
    return sorted(
        (*key, *(reducers[spec.func](rows, spec.over) for spec in aggs.values()))
        for key, rows in groups.items()
    )


def aggregations(compiled) -> list[Aggregate]:
    return [n for n in compiled.dag.topological() if isinstance(n, Aggregate)]


@pytest.mark.parametrize("k", AGGS)
@pytest.mark.parametrize("config_name", CONFIGS)
def test_a_group_by_is_one_aggregation_and_no_join(config_name, k):
    config, (mpc_nodes, clear_nodes) = CONFIGS[config_name]
    compiled = cc.compile_query(query(["g"], AGGS[k]), config)
    nodes = aggregations(compiled)
    assert [n.is_mpc for n in nodes].count(True) == mpc_nodes
    assert [n.is_mpc for n in nodes].count(False) == clear_nodes
    assert not [n for n in compiled.dag.topological() if isinstance(n, Join)]
    merge = next(n for n in nodes if n.is_mpc)
    assert isinstance(merge, HybridAggregate) == (config_name == "hybrid")
    assert [out for _, _, out in merge.outputs] == list(AGGS[k])
    result = cc.run_query(query(["g"], AGGS[k]), inputs(), config, seed=5)
    assert result.outputs["out"].schema.names == ["g", *AGGS[k]]
    assert sorted(result.outputs["out"].rows()) == reference(["g"], AGGS[k])


def test_a_whole_relation_multi_aggregate_is_one_aggregation():
    config = CONFIGS["mpc-only"][0]
    compiled = cc.compile_query(query([], AGGS[3]), config)
    (node,) = aggregations(compiled)
    assert node.group_col is None
    assert not [n for n in compiled.dag.topological() if isinstance(n, (Join, Map))]
    # The plan rendering names every output.
    assert "group=- s=sum(v), n=count(), t=sum(h)" in compiled.explain()
    result = cc.run_query(query([], AGGS[3]), inputs(), config, seed=5)
    assert result.outputs["out"].rows() == reference([], AGGS[3])


def test_a_two_column_group_by_is_one_aggregation_and_a_projection():
    config = CONFIGS["mpc-only"][0]
    compiled = cc.compile_query(query(["g", "h"], AGGS[2]), config)
    (node,) = aggregations(compiled)
    # The composite key's columns come back as `min` outputs of the node.
    assert [(func, over) for func, over, _ in node.outputs] == [
        ("min", "g"), ("min", "h"), ("sum", "v"), ("count", None)
    ]
    assert not [n for n in compiled.dag.topological() if isinstance(n, Join)]
    (project,) = node.children
    assert isinstance(project, Project) and project.columns == ["g", "h", "s", "n"]
    result = cc.run_query(query(["g", "h"], AGGS[2]), inputs(), config, seed=5)
    assert sorted(result.outputs["out"].rows()) == reference(["g", "h"], AGGS[2])


def test_the_mpc_aggregation_reports_its_hand_back():
    """``hhi_mpc_only``'s revenue per company is grouped under MPC: the last
    compute party hands every party the sorted order and the group
    boundaries of the rows, and the executed and the predicted leakage
    report both say so, as they do for the hybrid aggregation."""
    rows = 20
    spec = market_concentration_query(rows_per_party=rows)
    tables = TaxiWorkload(seed=1).party_tables(len(spec.parties), rows)
    plan_inputs = {p: {f"trips_{i}": tables[i]} for i, p in enumerate(spec.parties)}
    compiled = cc.compile_query(spec.context, CompilationConfig(enable_push_down=False))
    (grouped,) = [n for n in aggregations(compiled) if n.group_col is not None]

    result = cc.QueryRunner(spec.parties, plan_inputs, seed=1).run(compiled)
    (event,) = [e for e in result.leakage.events if e.kind == "cleartext_transfer"]
    assert event.relation == f"aggregate({grouped.group_col})"
    assert event.columns == () and event.parties == ()
    assert re.fullmatch(
        rf"sorted order and group boundaries of \d+ rows, from {re.escape(spec.parties[-1])}",
        event.detail,
    )
    predicted = compiled.explain().split("== predicted leakage ==")[1]
    assert f"rel={event.relation}" in predicted
    assert "sorted order and group boundaries of" in predicted
