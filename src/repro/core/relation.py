"""Intermediate relations of the operator DAG.

A :class:`Relation` describes the *output* of one operator node: its name,
schema, which parties physically store it, which single party (if any) can
derive it locally ("owner", §5.1), the per-column trust sets derived by
annotation propagation, and the row-count estimate the cost estimator
reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.schema import Schema


@dataclass
class Relation:
    """Metadata describing one relation in the query DAG."""

    name: str
    schema: Schema
    #: Parties that physically hold (a partition of) this relation.
    stored_with: set[str] = field(default_factory=set)
    #: The single party able to derive the relation locally, or ``None`` if
    #: it combines data from several parties (and therefore needs MPC).
    owner: str | None = None
    #: Per-column trust sets (party names; ``"*"`` means public), keyed by
    #: column name.  Filled in by the trust-propagation pass.
    trust: dict[str, frozenset[str]] = field(default_factory=dict)
    #: Estimated number of rows (used by the plan cost estimator).
    estimated_rows: int | None = None

    def column_trust(self, column: str) -> frozenset[str]:
        """Trust set of ``column`` (empty if unknown)."""
        return self.trust.get(column, frozenset())

    def copy(self, name: str | None = None) -> "Relation":
        return Relation(
            name=name or self.name,
            schema=self.schema,
            stored_with=set(self.stored_with),
            owner=self.owner,
            trust=dict(self.trust),
            estimated_rows=self.estimated_rows,
        )

    def __repr__(self) -> str:
        owner = self.owner or "-"
        return f"Relation({self.name}, owner={owner}, cols={self.schema.names})"
