"""DAG partitioning into per-backend sub-plans: a view of the compiled DAG.

After the rewrite passes every operator carries an execution *locus*: either
``("mpc", "joint")`` or ``("local", <party>)``.  The partitioner walks the
DAG in topological order and groups maximal runs of consecutive nodes with
the same locus into :class:`SubPlan` objects.  Because grouping follows the
topological order, the resulting sub-plan list is itself a valid execution
order.  Nothing executes it: the executor runs the DAG node by node, and
the sub-plans are what ``CompiledQuery.explain()`` renders and the code
generators (:mod:`repro.core.codegen`) turn into source text —
``CompiledQuery.subplans`` derives them on access and stores nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dag import Dag
from repro.core.operators import Collect, Create, OpNode


@dataclass
class SubPlan:
    """A maximal run of operators executing on the same backend/party."""

    index: int
    #: ``"mpc"`` or ``"local"``.
    kind: str
    #: Executing party for local sub-plans; ``"joint"`` for MPC sub-plans.
    party: str
    nodes: list[OpNode] = field(default_factory=list)

    @property
    def relation_names(self) -> list[str]:
        return [n.out_rel.name for n in self.nodes]

    def input_relations(self) -> list[str]:
        """Relations consumed from outside this sub-plan."""
        produced = {n.out_rel.name for n in self.nodes}
        inputs: list[str] = []
        for node in self.nodes:
            for parent in node.parents:
                name = parent.out_rel.name
                if name not in produced and name not in inputs:
                    inputs.append(name)
        return inputs

    def output_relations(self) -> list[str]:
        """Relations produced here and consumed by later sub-plans (or outputs)."""
        produced = {n.out_rel.name for n in self.nodes}
        outputs: list[str] = []
        for node in self.nodes:
            is_output = isinstance(node, Collect)
            consumed_outside = any(
                child.out_rel.name not in produced for child in node.children
            ) or not node.children
            if (is_output or consumed_outside) and node.out_rel.name not in outputs:
                outputs.append(node.out_rel.name)
        return outputs

    def __repr__(self) -> str:
        return (
            f"SubPlan(#{self.index}, {self.kind}@{self.party}, "
            f"ops=[{', '.join(n.op_name for n in self.nodes)}])"
        )


def partition_dag(dag: Dag) -> list[SubPlan]:
    """Split the DAG into an ordered list of per-locus sub-plans."""
    subplans: list[SubPlan] = []
    current: SubPlan | None = None

    for node in dag.topological():
        kind, party = node.locus()
        if isinstance(node, Create):
            kind, party = "local", node.out_rel.owner or party
        if current is None or current.kind != kind or current.party != party:
            current = SubPlan(index=len(subplans), kind=kind, party=party)
            subplans.append(current)
        current.nodes.append(node)

    return subplans


def describe_partitioning(subplans: list[SubPlan]) -> str:
    """Render the sub-plan structure as readable text (for explain output)."""
    lines = []
    for sp in subplans:
        lines.append(f"--- sub-plan {sp.index}: {sp.kind} @ {sp.party} ---")
        for node in sp.nodes:
            inputs = ", ".join(p.out_rel.name for p in node.parents) or "-"
            lines.append(f"    {node.op_name:<18} {node.out_rel.name:<30} <- [{inputs}]")
    return "\n".join(lines)
