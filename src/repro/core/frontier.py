"""Finding the MPC frontier (§5.2).

Two families of rewrites shrink the portion of the DAG executed under MPC:

* **Push-down** moves the frontier *down* from the inputs: a ``concat`` of
  per-party relations is pushed past operators that distribute over the
  union (project, filter, row-wise arithmetic), so those operators run
  locally at each party before the data ever enters MPC.  Aggregations are
  *split* into per-party partial aggregations (local) and a small secondary
  aggregation over the partials (MPC).  Splits change the cardinality of the
  MPC's input — the number of distinct keys per party instead of the raw
  record count — so they require the parties' consent
  (``consent_to_cardinality_leakage``).
* **Push-up** moves the frontier *up* from the outputs: a chain of
  reversible operators directly above an output is computed in the clear by
  the recipient, because the output already determines the operators'
  inputs.  A leaf ``count`` aggregation is rewritten into an MPC projection
  of the group-by column plus a cleartext count at the recipient.
"""

from __future__ import annotations

from repro.core.config import CompilationConfig
from repro.core.dag import Dag
from repro.core.operators import (
    Aggregate,
    BoolOp,
    Collect,
    Compare,
    Concat,
    Create,
    DISTRIBUTIVE_OPS,
    Filter,
    Map,
    OpNode,
    Project,
    SPLITTABLE_AGGS,
    is_reversible,
)
from repro.core.propagation import mark_mpc_frontier, propagate_ownership, propagate_trust
from repro.core.relation import Relation
from repro.data.schema import PUBLIC, Schema

# -- push-down ------------------------------------------------------------------------------------


def push_down(dag: Dag, config: CompilationConfig) -> int:
    """Apply push-down rewrites until a fixpoint; returns the number applied."""
    applied = 0
    changed = True
    while changed:
        changed = False
        propagate_ownership(dag)
        mark_mpc_frontier(dag)
        for concat in list(dag.find(lambda n: isinstance(n, Concat))):
            if not _is_partition_point(concat):
                continue
            for child in list(concat.children):
                if _push_concat_past(dag, concat, child, config):
                    applied += 1
                    changed = True
                    break
            if changed:
                break
    propagate_ownership(dag)
    mark_mpc_frontier(dag)
    propagate_trust(dag)
    return applied


def _is_partition_point(concat: Concat) -> bool:
    """A concat of singleton-owned relations is where data crosses parties."""
    owners = [p.out_rel.owner for p in concat.parents]
    return all(o is not None for o in owners) and len(set(owners)) > 1


def _push_concat_past(dag: Dag, concat: Concat, child: OpNode, config: CompilationConfig) -> bool:
    """Try to push ``concat`` below ``child``; returns True if rewritten."""
    if isinstance(child, DISTRIBUTIVE_OPS):
        if isinstance(child, Filter) and not config.push_down_private_filters:
            # SMCQL-compatible mode: only push filters on public columns down.
            parent_rel = concat.out_rel
            if PUBLIC not in parent_rel.column_trust(child.column):
                return False
        _distribute_unary(dag, concat, child)
        return True
    if isinstance(child, Aggregate) and not child.is_secondary:
        if child.funcs <= SPLITTABLE_AGGS.keys() and config.consent_to_cardinality_leakage:
            _split_aggregate(dag, concat, child)
            return True
    return False


def _distribute_unary(dag: Dag, concat: Concat, child: OpNode) -> None:
    """Rewrite ``child(concat(R1..Rn))`` into ``concat(child(R1)..child(Rn))``."""
    per_party_nodes: list[OpNode] = []
    for parent in concat.parents:
        rel = Relation(
            name=dag.fresh_name(child.out_rel.name, parent.out_rel.owner or "local"),
            schema=child.out_rel.schema,
            stored_with=set(parent.out_rel.stored_with),
        )
        per_party_nodes.append(_clone_unary(child, rel, parent))

    new_concat_rel = Relation(
        name=dag.fresh_name(child.out_rel.name, "concat"),
        schema=child.out_rel.schema,
        stored_with=set(concat.out_rel.stored_with),
    )
    new_concat = Concat(new_concat_rel, per_party_nodes)

    # Children of the distributed operator now read from the new concat.
    for grandchild in list(child.children):
        grandchild.replace_parent(child, new_concat)
    # Detach the old operator and, if no longer used, the old concat.
    concat.children.remove(child)
    child.parents = []
    child.children = []
    if not concat.children:
        for parent in list(concat.parents):
            parent.children.remove(concat)
        concat.parents = []


def _split_aggregate(dag: Dag, concat: Concat, agg: Aggregate) -> None:
    """Split ``agg(concat(R1..Rn))`` into local partials, each with every
    output, plus one MPC merge of each output's partials."""
    partial_schema = agg.out_rel.schema

    partials: list[OpNode] = []
    for parent in concat.parents:
        rel = Relation(
            name=dag.fresh_name(agg.out_rel.name, parent.out_rel.owner or "local"),
            schema=partial_schema,
            stored_with=set(parent.out_rel.stored_with),
        )
        partials.append(Aggregate(rel, parent, agg.group_col, agg.outputs))

    concat_rel = Relation(
        name=dag.fresh_name(agg.out_rel.name, "partials"),
        schema=partial_schema,
        stored_with=set(concat.out_rel.stored_with),
    )
    partial_concat = Concat(concat_rel, partials)

    secondary = Aggregate(
        agg.out_rel.copy(dag.fresh_name(agg.out_rel.name, "merge")),
        partial_concat,
        agg.group_col,
        [(SPLITTABLE_AGGS[func], out, out) for func, _, out in agg.outputs],
    )
    secondary.is_secondary = True

    for grandchild in list(agg.children):
        grandchild.replace_parent(agg, secondary)
    concat.children.remove(agg)
    agg.parents = []
    agg.children = []
    if not concat.children:
        for parent in list(concat.parents):
            parent.children.remove(concat)
        concat.parents = []


def _clone_unary(node: OpNode, out_rel: Relation, parent: OpNode) -> OpNode:
    if isinstance(node, Project):
        clone = Project(out_rel, parent, node.columns)
    elif isinstance(node, Filter):
        clone = Filter(out_rel, parent, node.column, node.op, node.value)
    elif isinstance(node, Map):
        clone = Map(out_rel, parent, node.out_name, node.left, node.op, node.right)
    elif isinstance(node, Compare):
        clone = Compare(out_rel, parent, node.out_name, node.left, node.op, node.right)
    elif isinstance(node, BoolOp):
        clone = BoolOp(out_rel, parent, node.out_name, node.op, node.operands)
    else:
        raise TypeError(f"cannot distribute operator {type(node).__name__}")
    # Keep the composite-key range guard on every per-party copy of a
    # distributed encode operator.
    clone.key_range_check = node.key_range_check
    return clone


# -- push-up ---------------------------------------------------------------------------------------


def push_up(dag: Dag, config: CompilationConfig) -> int:
    """Lift reversible leaf operators out of MPC; returns the number lifted."""
    lifted = 0
    for output in dag.outputs():
        recipient = output.recipients[0]
        node = output.parent
        # Walk up through reversible single-use operators.
        while (
            node.is_mpc
            and is_reversible(node)
            and len(node.children) == 1
            and len(node.parents) == 1
        ):
            node.is_mpc = False
            node.run_at = recipient
            node.lifted = True
            lifted += 1
            node = node.parent
        # Special case: a leaf count aggregation reveals its group-key
        # frequencies anyway, so replace it with an MPC projection and a
        # cleartext count at the recipient.
        if (
            isinstance(node, Aggregate)
            and len(node.outputs) == 1
            and node.outputs[0][0] == "count"
            and node.group_col is not None
            and node.is_mpc
            and len(node.children) == 1
            and not node.is_secondary
        ):
            _rewrite_leaf_count(dag, node, recipient)
            lifted += 1
    propagate_trust(dag)
    return lifted


def _rewrite_leaf_count(dag: Dag, agg: Aggregate, recipient: str) -> None:
    """Rewrite an MPC leaf count into MPC project + cleartext count."""
    parent = agg.parent
    project_rel = Relation(
        name=dag.fresh_name(agg.out_rel.name, "keys"),
        schema=parent.out_rel.schema.project([agg.group_col]),
        stored_with=set(parent.out_rel.stored_with),
    )
    project = Project(project_rel, parent, [agg.group_col])
    project.is_mpc = True

    clear_count = Aggregate(
        agg.out_rel.copy(dag.fresh_name(agg.out_rel.name, "clear_count")),
        project,
        agg.group_col,
        [("count", None, agg.outputs[0][2])],
    )
    clear_count.is_mpc = False
    clear_count.run_at = recipient
    clear_count.lifted = True

    for child in list(agg.children):
        child.replace_parent(agg, clear_count)
    parent.children.remove(agg)
    agg.parents = []
    agg.children = []
