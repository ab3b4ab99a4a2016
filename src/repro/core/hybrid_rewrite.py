"""Hybrid operator insertion (§5.3).

After trust propagation, operators running under MPC whose key columns have
a non-empty trust set can be replaced by hybrid operators:

* an MPC join whose two key columns share a trusted party becomes a
  :class:`~repro.core.operators.HybridJoin` with that party as the
  selectively-trusted party (STP);
* an MPC join whose key columns are public on both sides becomes a
  :class:`~repro.core.operators.PublicJoin` hosted by one party;
* an MPC grouped aggregation whose group-by column has a trusted party,
  and whose outputs are all sums and counts, becomes a
  :class:`~repro.core.operators.HybridAggregate`.

Only a single STP may exist in one Conclave execution; when several
candidate parties are available the pass deterministically picks the one
usable by the largest number of operators (ties broken by name), restricted
to ``config.allowed_stps`` when set.
"""

from __future__ import annotations

from collections import Counter

from repro.core.config import CompilationConfig
from repro.core.dag import Dag
from repro.core.operators import (
    Aggregate,
    HybridAggregate,
    HybridJoin,
    Join,
    PublicJoin,
)
from repro.core.propagation import intersect_trust, propagate_ownership, propagate_trust, mark_mpc_frontier
from repro.data.schema import PUBLIC


def apply_hybrid_operators(dag: Dag, config: CompilationConfig) -> list[str]:
    """Insert hybrid operators where trust annotations permit.

    Returns a human-readable list of the rewrites applied (useful for the
    compilation report and the tests).
    """
    propagate_trust(dag)
    all_parties = dag.parties()
    candidates = _collect_candidates(dag, all_parties, config)
    stp = _choose_stp(candidates, config)

    applied: list[str] = []
    for node, kind, parties in candidates:
        if not node.is_mpc or node.parents == []:
            continue
        if kind == "public_join":
            host = _choose_host(node, all_parties)
            new_node = _replace_join(node, PublicJoin, host=host)
            applied.append(f"public_join({new_node.out_rel.name}) host={host}")
        elif kind == "hybrid_join" and stp is not None and stp in parties:
            new_node = _replace_join(node, HybridJoin, stp=stp)
            applied.append(f"hybrid_join({new_node.out_rel.name}) stp={stp}")
        elif kind == "hybrid_aggregate" and stp is not None and stp in parties:
            new_node = _replace_aggregate(node, stp)
            applied.append(f"hybrid_aggregate({new_node.out_rel.name}) stp={stp}")

    propagate_ownership(dag)
    mark_mpc_frontier(dag)
    propagate_trust(dag)
    return applied


def _collect_candidates(dag: Dag, all_parties: set[str], config: CompilationConfig):
    """Find MPC joins/aggregations eligible for a hybrid rewrite."""
    candidates = []
    for node in dag.topological():
        if not node.is_mpc:
            continue
        if isinstance(node, (HybridJoin, PublicJoin, HybridAggregate)):
            continue
        if isinstance(node, Join):
            left_rel, right_rel = node.parents[0].out_rel, node.parents[1].out_rel
            left_trust = left_rel.column_trust(node.left_on)
            right_trust = right_rel.column_trust(node.right_on)
            if PUBLIC in left_trust and PUBLIC in right_trust:
                candidates.append((node, "public_join", set(all_parties)))
                continue
            # The STP may be any party the annotations name — including one
            # that contributes no input and only assists the MPC (§3.2).
            shared = intersect_trust(left_trust, right_trust) - {PUBLIC}
            if shared:
                candidates.append((node, "hybrid_join", set(shared)))
        elif (
            isinstance(node, Aggregate)
            and node.group_col is not None
            and node.funcs <= {"sum", "count"}
        ):
            parent_rel = node.parent.out_rel
            group_trust = parent_rel.column_trust(node.group_col)
            trusted = set(group_trust) - {PUBLIC}
            if PUBLIC in group_trust:
                trusted = trusted | set(all_parties)
            if trusted:
                candidates.append((node, "hybrid_aggregate", trusted))
    return candidates


def _choose_stp(candidates, config: CompilationConfig) -> str | None:
    """Pick the single STP used for this query execution."""
    votes: Counter[str] = Counter()
    for _node, kind, parties in candidates:
        if kind == "public_join":
            continue
        for party in parties:
            if config.allowed_stps is None or party in config.allowed_stps:
                votes[party] += 1
    if not votes:
        return None
    best = max(votes.values())
    top = sorted(p for p, v in votes.items() if v == best)
    return top[0]


def _choose_host(node: Join, all_parties: set[str]) -> str:
    """Pick the party computing a public join in the clear."""
    stored = set()
    for parent in node.parents:
        stored |= parent.out_rel.stored_with
    pool = sorted(stored or all_parties)
    return pool[0]


def _replace_join(node: Join, cls, **extra) -> Join:
    left, right = node.parents
    new_node = cls(node.out_rel, left, right, node.left_on, node.right_on, **extra)
    # The constructor appended new_node to the parents' child lists; detach
    # the old node and transfer its children.
    for parent in (left, right):
        parent.children.remove(node)
    for child in list(node.children):
        child.replace_parent(node, new_node)
    node.parents = []
    node.children = []
    return new_node


def _replace_aggregate(node: Aggregate, stp: str) -> HybridAggregate:
    parent = node.parent
    new_node = HybridAggregate(node.out_rel, parent, node.group_col, node.outputs, stp)
    new_node.is_secondary = node.is_secondary
    parent.children.remove(node)
    for child in list(node.children):
        child.replace_parent(node, new_node)
    node.parents = []
    node.children = []
    return new_node
