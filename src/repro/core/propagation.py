"""Annotation propagation (§5.1).

Two passes over the DAG:

* :func:`propagate_ownership` — derives, for every intermediate relation,
  which parties store it and which single party (if any) could compute it
  locally from its own data.  Operators whose output has no owner combine
  data across parties and must run under MPC.
* :func:`propagate_trust` — derives per-column *trust sets* for every
  intermediate relation from the input annotations, using the column
  dependency rules described in the paper: a result column's trust set is
  the intersection of the trust sets of every operand column that
  contributes rows to it or that affects how its rows are combined,
  filtered, or reordered.

Both passes are deterministic and idempotent; the frontier and hybrid
rewrite passes re-run them after restructuring the DAG.
"""

from __future__ import annotations

from repro.core.dag import Dag
from repro.core.operators import (
    Aggregate,
    BoolOp,
    Collect,
    Compare,
    Concat,
    Create,
    Distinct,
    Filter,
    Join,
    Limit,
    Map,
    Merge,
    OpNode,
    Project,
    SortBy,
)
from repro.data.schema import PUBLIC


def intersect_trust(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """Intersection of two trust sets, treating ``"*"`` (public) as the universe."""
    if PUBLIC in a:
        return b
    if PUBLIC in b:
        return a
    return a & b


def intersect_all(sets: list[frozenset[str]]) -> frozenset[str]:
    if not sets:
        return frozenset()
    result = sets[0]
    for s in sets[1:]:
        result = intersect_trust(result, s)
    return result


# -- ownership --------------------------------------------------------------------------------


def propagate_ownership(dag: Dag) -> None:
    """Fill in ``owner`` and ``stored_with`` for every relation in the DAG."""
    for node in dag.topological():
        if isinstance(node, Create):
            if node.out_rel.owner is None:
                if len(node.out_rel.stored_with) == 1:
                    node.out_rel.owner = next(iter(node.out_rel.stored_with))
            continue
        input_rels = node.input_relations()
        owners = {rel.owner for rel in input_rels}
        stored: set[str] = set()
        for rel in input_rels:
            stored |= rel.stored_with
        if len(owners) == 1 and None not in owners:
            node.out_rel.owner = next(iter(owners))
        else:
            node.out_rel.owner = None
        if isinstance(node, Collect):
            # Output relations end up stored at their recipients.
            node.out_rel.stored_with = set(node.recipients)
        else:
            node.out_rel.stored_with = stored


def mark_mpc_frontier(dag: Dag) -> None:
    """Initial MPC marking: operators without a single owner run under MPC.

    Hybrid operators keep their MPC flag; operators explicitly placed at a
    party by the push-up pass (``run_at``) stay in the clear.
    """
    for node in dag.topological():
        if isinstance(node, Create):
            node.is_mpc = False
            continue
        if node.run_at is not None:
            node.is_mpc = False
            continue
        if getattr(node, "stp", None) is not None or getattr(node, "host", None) is not None:
            # Hybrid operators always involve the MPC backend.
            node.is_mpc = True
            continue
        if isinstance(node, Collect):
            # Revealing the output is handled by the producer; the collect
            # node itself runs at the recipients.
            node.is_mpc = False
            node.run_at = node.recipients[0]
            continue
        node.is_mpc = node.out_rel.owner is None


# -- trust -------------------------------------------------------------------------------------


def propagate_trust(dag: Dag) -> None:
    """Fill in per-column trust sets for every intermediate relation."""
    for node in dag.topological():
        if isinstance(node, Create):
            # Input trust sets come from the analyst's annotations (already
            # stored on the relation by the frontend).
            continue
        node.out_rel.trust = _derive_trust(node)


def _derive_trust(node: OpNode) -> dict[str, frozenset[str]]:
    if isinstance(node, Merge):
        # Row interleaving is determined by the merge column, so every output
        # column additionally depends on it (like a sort).
        concat_trust = _concat_trust(node)
        key_trust = concat_trust.get(node.column, frozenset())
        return {
            name: intersect_trust(trust, key_trust) for name, trust in concat_trust.items()
        }
    if isinstance(node, Concat):
        return _concat_trust(node)
    if isinstance(node, Join):
        return _join_trust(node)
    if isinstance(node, Aggregate):
        return _aggregate_trust(node)
    if isinstance(node, (Map, Compare)):
        return _arithmetic_trust(node)
    if isinstance(node, BoolOp):
        return _bool_op_trust(node)
    if isinstance(node, Filter):
        return _filter_trust(node)
    if isinstance(node, SortBy):
        return _sort_trust(node)
    if isinstance(node, (Project, Distinct)):
        parent = node.parent.out_rel
        return {name: parent.column_trust(name) for name in node.out_rel.schema.names}
    if isinstance(node, (Limit, Collect)):
        parent = node.parent.out_rel
        return {name: parent.column_trust(name) for name in node.out_rel.schema.names}
    # Default: inherit matching columns from the first parent.
    parent = node.parents[0].out_rel
    return {
        name: parent.column_trust(name) if name in parent.schema else frozenset()
        for name in node.out_rel.schema.names
    }


def _concat_trust(node: Concat | Merge) -> dict[str, frozenset[str]]:
    trust: dict[str, frozenset[str]] = {}
    for i, name in enumerate(node.out_rel.schema.names):
        sets = []
        for parent in node.parents:
            in_name = parent.out_rel.schema.names[i]
            sets.append(parent.out_rel.column_trust(in_name))
        trust[name] = intersect_all(sets)
    return trust


def _join_trust(node: Join) -> dict[str, frozenset[str]]:
    left_rel = node.parents[0].out_rel
    right_rel = node.parents[1].out_rel
    key_trust = intersect_trust(
        left_rel.column_trust(node.left_on), right_rel.column_trust(node.right_on)
    )
    trust: dict[str, frozenset[str]] = {}
    left_names = set(left_rel.schema.names)
    for name in node.out_rel.schema.names:
        if name == node.left_on:
            trust[name] = key_trust
            continue
        if name in left_names:
            source = left_rel.column_trust(name)
        else:
            # Right-side column, possibly suffixed with "_r" on collision.
            base = name[:-2] if name.endswith("_r") and name[:-2] in right_rel.schema else name
            source = right_rel.column_trust(base)
        trust[name] = intersect_trust(source, key_trust)
    return trust


def _aggregate_trust(node: Aggregate) -> dict[str, frozenset[str]]:
    parent = node.parent.out_rel
    trust: dict[str, frozenset[str]] = {}
    group_trust = (
        parent.column_trust(node.group_col) if node.group_col is not None else frozenset({PUBLIC})
    )
    if node.group_col is not None:
        trust[node.group_col] = group_trust
    for _, over, out_name in node.outputs:
        # A count depends only on the group-by column.
        trust[out_name] = (
            group_trust if over is None
            else intersect_trust(parent.column_trust(over), group_trust)
        )
    return trust


def _bool_op_trust(node: BoolOp) -> dict[str, frozenset[str]]:
    parent = node.parent.out_rel
    trust = {name: parent.column_trust(name) for name in parent.schema.names}
    trust[node.out_name] = intersect_all([parent.column_trust(c) for c in node.operands])
    return trust


def _arithmetic_trust(node: Map | Compare) -> dict[str, frozenset[str]]:
    parent = node.parent.out_rel
    trust = {name: parent.column_trust(name) for name in parent.schema.names}
    left_trust = parent.column_trust(node.left)
    if isinstance(node.right, str):
        out_trust = intersect_trust(left_trust, parent.column_trust(node.right))
    else:
        out_trust = left_trust
    trust[node.out_name] = out_trust
    return trust


def _filter_trust(node: Filter) -> dict[str, frozenset[str]]:
    parent = node.parent.out_rel
    filter_trust = parent.column_trust(node.column)
    return {
        name: intersect_trust(parent.column_trust(name), filter_trust)
        for name in node.out_rel.schema.names
    }


def _sort_trust(node: SortBy) -> dict[str, frozenset[str]]:
    parent = node.parent.out_rel
    key_trust = parent.column_trust(node.column)
    return {
        name: intersect_trust(parent.column_trust(name), key_trust)
        for name in node.out_rel.schema.names
    }
