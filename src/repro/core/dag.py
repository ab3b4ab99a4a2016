"""The query DAG container.

A :class:`Dag` owns the roots (``Create`` nodes) of an operator graph and
provides the traversals the compiler passes need: topological order, reverse
topological order, node lookup by output-relation name, and structural
validation (acyclicity, consistent parent/child links, unique relation
names).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.core.operators import Collect, Create, OpNode


class Dag:
    """Directed acyclic graph of relational operators."""

    def __init__(self, roots: Iterable[OpNode]):
        self.roots: list[OpNode] = list(roots)
        #: Suffix of the next relation name a rewrite pass asks for.
        self._fresh_names = 0
        if not self.roots:
            raise ValueError("a query DAG needs at least one input relation")
        for root in self.roots:
            if not isinstance(root, Create):
                raise TypeError(f"DAG roots must be Create nodes, got {type(root).__name__}")

    # -- traversal --------------------------------------------------------------------------

    def nodes(self) -> list[OpNode]:
        """All nodes reachable from the roots (unordered)."""
        seen: dict[int, OpNode] = {}
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            if node.node_id in seen:
                continue
            seen[node.node_id] = node
            stack.extend(node.children)
        return list(seen.values())

    def topological(self) -> list[OpNode]:
        """Nodes in topological order (parents before children)."""
        nodes = self.nodes()
        in_deg = {n.node_id: len(n.parents) for n in nodes}
        by_id = {n.node_id: n for n in nodes}
        ready = sorted(
            [n for n in nodes if in_deg[n.node_id] == 0], key=lambda n: n.node_id
        )
        order: list[OpNode] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for child in node.children:
                if child.node_id not in in_deg:
                    continue
                in_deg[child.node_id] -= 1
                if in_deg[child.node_id] == 0:
                    ready.append(by_id[child.node_id])
            ready.sort(key=lambda n: n.node_id)
        if len(order) != len(nodes):
            raise ValueError("query graph contains a cycle")
        return order

    def __iter__(self) -> Iterator[OpNode]:
        return iter(self.topological())

    # -- lookups ----------------------------------------------------------------------------

    def leaves(self) -> list[OpNode]:
        """Nodes with no children (normally the Collect outputs)."""
        return [n for n in self.nodes() if not n.children]

    def outputs(self) -> list[Collect]:
        return [n for n in self.nodes() if isinstance(n, Collect)]

    def inputs(self) -> list[Create]:
        return [n for n in self.roots if isinstance(n, Create)]

    def node_for_relation(self, name: str) -> OpNode:
        for node in self.nodes():
            if node.out_rel.name == name:
                return node
        raise KeyError(f"no operator produces relation {name!r}")

    def find(self, predicate: Callable[[OpNode], bool]) -> list[OpNode]:
        return [n for n in self.topological() if predicate(n)]

    def parties(self) -> set[str]:
        """All party names mentioned by input owners and output recipients."""
        parties: set[str] = set()
        for node in self.nodes():
            parties.update(node.out_rel.stored_with)
            if isinstance(node, Collect):
                parties.update(node.recipients)
        return parties

    def fresh_name(self, base: str, suffix: str) -> str:
        """A relation name for a node a rewrite pass derives from ``base``.

        Numbered per DAG, not per process, so compiling the same query twice
        names the rewritten relations identically.
        """
        name = f"{base}__{suffix}_{self._fresh_names}"
        self._fresh_names += 1
        return name

    # -- validation -------------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        nodes = self.topological()  # raises on cycles
        names = [n.out_rel.name for n in nodes]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"duplicate relation names in DAG: {sorted(duplicates)}")
        for node in nodes:
            for parent in node.parents:
                if node not in parent.children:
                    raise ValueError(f"broken parent/child link between {parent} and {node}")
            for child in node.children:
                if node not in child.parents:
                    raise ValueError(f"broken child/parent link between {node} and {child}")

    def render(self) -> str:
        """Human-readable rendering of the DAG (one line per node)."""
        lines = []
        for node in self.topological():
            locus = "MPC" if node.is_mpc else (node.run_at or node.out_rel.owner or "?")
            inputs = ", ".join(p.out_rel.name for p in node.parents) or "-"
            lines.append(
                f"{node.op_name:<18} {node.out_rel.name:<28} at={locus:<14} inputs=[{inputs}]"
                f"  {node.detail()}".rstrip()
            )
        return "\n".join(lines)
