"""Reducing oblivious operations (§5.4).

Oblivious sorts dominate the cost of MPC aggregations and order-bys.  This
pass tracks, for every intermediate relation, the column it is known to be
sorted by, and uses that information to

* drop ``SortBy`` operators whose input is already sorted by the same
  column, and
* mark aggregations (and distincts) whose input is already grouped by the
  group-by column as ``presorted``, so the backends skip their internal
  sorting network.

Order tracking rules: order-preserving unary operators (project, filter,
arithmetic, limit) propagate the sort column as long as it survives the
projection; joins, concats and oblivious shuffles destroy it; sort-based
operators (sort, aggregation, public join) establish it.
"""

from __future__ import annotations

from repro.core.config import CompilationConfig
from repro.core.dag import Dag
from repro.core.operators import (
    Aggregate,
    Collect,
    Concat,
    Create,
    Distinct,
    HybridJoin,
    Join,
    Limit,
    Merge,
    OpNode,
    Project,
    PublicJoin,
    SortBy,
)
from repro.core.propagation import mark_mpc_frontier, propagate_ownership, propagate_trust
from repro.core.relation import Relation


def eliminate_redundant_sorts(dag: Dag, config: CompilationConfig) -> int:
    """Annotate sort order through the DAG and drop redundant sorts.

    Returns the number of oblivious sorts eliminated or avoided (dropped
    ``SortBy`` nodes plus aggregations marked ``presorted``).
    """
    removed = 0
    for node in dag.topological():
        if isinstance(node, Create):
            # Analysts may declare inputs as pre-sorted via the relation.
            continue

        input_order = node.parents[0].out_rel.sorted_by if node.parents else None

        if isinstance(node, SortBy):
            if input_order == node.column:
                # The relation is already in the right order: splice the sort out.
                parent = node.parent
                parent.out_rel.sorted_by = node.column
                node.out_rel.sorted_by = node.column
                node.remove_from_dag()
                removed += 1
                continue
            node.out_rel.sorted_by = node.column
            continue

        if isinstance(node, Aggregate):
            if node.group_col is not None and input_order == node.group_col and not node.presorted:
                node.presorted = True
                removed += 1
            node.out_rel.sorted_by = node.group_col
            continue

        if isinstance(node, Distinct):
            node.out_rel.sorted_by = node.columns[0] if node.columns else None
            continue

        if isinstance(node, Merge):
            node.out_rel.sorted_by = node.column
            continue

        if isinstance(node, PublicJoin):
            # The host joins in the clear and can emit the result ordered by
            # the join key at no extra cost.
            node.out_rel.sorted_by = node.left_on
            continue

        if isinstance(node, (HybridJoin, Join)):
            # Hybrid joins end with an oblivious shuffle; MPC joins shuffle too.
            node.out_rel.sorted_by = None
            continue

        if isinstance(node, Concat):
            node.out_rel.sorted_by = None
            continue

        if node.order_preserving:
            if input_order is not None and input_order in node.out_rel.schema:
                node.out_rel.sorted_by = input_order
            else:
                node.out_rel.sorted_by = None
            continue

        node.out_rel.sorted_by = None

    return removed


def push_up_sorts(dag: Dag, config: CompilationConfig) -> int:
    """Push oblivious sorts through ``concat`` into per-party cleartext sorts.

    The paper sketches this as an extension of §5.4: a sort whose input is a
    concat of singleton-owned relations can be replaced by local sorts at
    each contributing party followed by an oblivious *merge* — O(n log n)
    multiplications instead of an O(n log^2 n) comparison network.  The
    rewrite is applied only when ``config.enable_sort_pushup`` is set.

    Returns the number of sorts rewritten.
    """
    if not config.enable_sort_pushup:
        return 0
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
