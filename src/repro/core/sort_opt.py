"""Reducing oblivious operations (§5.4).

Oblivious sorts dominate the cost of MPC aggregations and order-bys.  This
pass drops a ``SortBy`` whose input is already in that order, and marks an
MPC aggregation whose input is already grouped by its group column as
``presorted``, so the backend skips its sorting network.

Only a real sort makes an order: a ``SortBy`` or a ``Merge`` sets
``(column, ascending)``, and only the operators that neither drop nor move
rows keep it — ``Project`` while the column survives, ``Map``, ``Compare``,
``BoolOp`` and ``Limit``.  Every other operator clears it, because no other
order holds on every engine and at every locus: an MPC filter, aggregation
or distinct ends in ``compact``, which shuffles the rows, a hash join keeps
no key order, and a concat interleaves its inputs.

For the same reason a top-k must not filter after its sort:
``sort_filters_first`` rewrites ``filter(sort_by(x))`` into
``sort_by(filter(x))`` before any other pass.  Both give the same rows in
the same order, since a filter keeps its rows in their order and the sort
orders them either way.
"""

from __future__ import annotations

from repro.core.dag import Dag
from repro.core.operators import (
    Aggregate,
    BoolOp,
    Compare,
    Concat,
    Filter,
    Limit,
    Map,
    Merge,
    OpNode,
    Project,
    SortBy,
)
from repro.core.propagation import mark_mpc_frontier, propagate_ownership, propagate_trust
from repro.core.relation import Relation

#: Operators that neither drop nor move rows, so a sorted input stays sorted.
_KEEP_ORDER = (Map, Compare, BoolOp, Limit)
#: Operators that compute each output row from one input row, keeping it.
_ROW_WISE = (Map, Compare, BoolOp, Project)


def sort_filters_first(dag: Dag) -> None:
    """Rewrite every ``filter(sort_by(x))`` into ``sort_by(filter(x))``.

    The row-wise operators between the two move with the filter when the
    filter is their only consumer: those that compute a compound filter's
    mask (``Map``, ``Compare``, ``BoolOp``, which only append a column) and
    a ``Project`` that keeps the sort column.  A sort with other children
    keeps serving them; one left without children leaves the plan.
    """
    for node in dag.topological():
        if not isinstance(node, Filter):
            continue
        chain = [node]
        while isinstance(chain[-1].parent, _ROW_WISE) and len(chain[-1].parent.children) == 1:
            chain.append(chain[-1].parent)
        top, sort = chain[-1], chain[-1].parent
        if not isinstance(sort, SortBy) or any(
            isinstance(n, Project) and sort.column not in n.columns for n in chain
        ):
            continue
        top.replace_parent(sort, sort.parent)
        if sort.children:
            name = dag.fresh_name(sort.out_rel.name, "filtered")
        else:
            sort.parent.children.remove(sort)
            sort.parents, name = [], sort.out_rel.name
        rel = node.out_rel
        resorted = SortBy(
            Relation(name, rel.schema, set(rel.stored_with)), node, sort.column, sort.ascending
        )
        for child in [c for c in node.children if c is not resorted]:
            child.replace_parent(node, resorted)


def eliminate_redundant_sorts(dag: Dag) -> int:
    """Drop redundant sorts and mark MPC aggregations of grouped input.

    Returns the number of oblivious sorts eliminated or avoided (dropped
    ``SortBy`` nodes plus aggregations marked ``presorted``).
    """
    order: dict[OpNode, tuple[str, bool]] = {}
    removed = 0
    for node in dag.topological():
        known = order.get(node.parents[0]) if len(node.parents) == 1 else None
        if isinstance(node, SortBy):
            if known == (node.column, node.ascending):
                # The children adopt the parent, whose order is the same.
                node.remove_from_dag()
                removed += 1
            else:
                order[node] = (node.column, node.ascending)
        elif isinstance(node, Merge):
            order[node] = (node.column, node.ascending)
        elif type(node) is Aggregate:
            # Adjacent groups are all the MPC aggregation needs, so either
            # direction will do; ``hybrid_aggregate`` has the STP sort anyway.
            if node.is_mpc and known and known[0] == node.group_col:
                node.presorted = True
                removed += 1
        elif known and (
            isinstance(node, _KEEP_ORDER) or isinstance(node, Project) and known[0] in node.columns
        ):
            order[node] = known
    return removed


def push_up_sorts(dag: Dag) -> int:
    """Push oblivious sorts through ``concat`` into per-party cleartext sorts.

    The paper sketches this as an extension of §5.4: a sort whose input is a
    concat of singleton-owned relations can be replaced by local sorts at
    each contributing party followed by an oblivious *merge* — O(n log n)
    multiplications instead of an O(n log^2 n) comparison network.

    Returns the number of sorts rewritten.
    """
    rewritten = 0
    for sort in list(dag.find(lambda n: isinstance(n, SortBy))):
        if not sort.is_mpc or not sort.parents:
            continue
        concat = sort.parent
        if not isinstance(concat, Concat) or len(concat.children) != 1:
            continue
        owners = [p.out_rel.owner for p in concat.parents]
        if any(owner is None for owner in owners):
            continue
        _split_sort_through_concat(dag, sort, concat)
        rewritten += 1
    if rewritten:
        propagate_ownership(dag)
        mark_mpc_frontier(dag)
        propagate_trust(dag)
    return rewritten


def _split_sort_through_concat(dag: Dag, sort: SortBy, concat: Concat) -> None:
    """Rewrite ``sort(concat(R1..Rn))`` into ``merge(sort(R1)..sort(Rn))``."""
    per_party_sorts = []
    for parent in concat.parents:
        rel = Relation(
            name=dag.fresh_name(sort.out_rel.name, parent.out_rel.owner),
            schema=sort.out_rel.schema,
            stored_with=set(parent.out_rel.stored_with),
        )
        per_party_sorts.append(SortBy(rel, parent, sort.column, sort.ascending))

    merge = Merge(
        sort.out_rel.copy(dag.fresh_name(sort.out_rel.name, "merged")),
        per_party_sorts,
        sort.column,
        sort.ascending,
    )
    for child in list(sort.children):
        child.replace_parent(sort, merge)
    concat.children.remove(sort)
    sort.parents = []
    sort.children = []
    if not concat.children:
        for parent in list(concat.parents):
            parent.children.remove(concat)
        concat.parents = []
