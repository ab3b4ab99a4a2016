"""The selectively-trusted party (STP) and leakage accounting.

Hybrid protocols "create a server-aided setting with leakage" (§3.2): the
STP performs cleartext work on columns it was explicitly authorised to see,
and all parties learn the cardinalities of hybrid inputs and outputs.  The
classes here model the STP's local compute (re-using a cleartext backend)
and record every reveal in a :class:`LeakageReport` so callers — and the
tests — can audit exactly what left the cryptographic envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.data.schema import ColumnDef, Schema
from repro.data.table import Table


@dataclass(frozen=True)
class LeakageEvent:
    """One disclosure made outside the MPC's cryptographic guarantees."""

    #: Kind of disclosure: ``column_reveal``, ``cardinality``, ``output`` or
    #: ``cleartext_transfer``.
    kind: str
    #: Relation the disclosure concerns.
    relation: str
    #: Columns disclosed (empty for pure cardinality leakage).
    columns: tuple[str, ...]
    #: Parties that learn the disclosed data.
    parties: tuple[str, ...]
    #: Free-text detail (e.g. the row count for cardinality events).
    detail: str = ""


@dataclass
class LeakageReport:
    """Accumulates every disclosure of one query execution.

    Every field of every event is a plan name or a public row count, never
    a value only one party holds — so each agent of a distributed run
    records the identical report, in the order of the in-process run.
    """

    events: list[LeakageEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        #: ``(relation, columns)`` of each column reveal whose values reached
        #: this process.  It differs between the agents of one run, so it is
        #: no field: reports compare and cross the wire by their events.
        self.received: list[tuple[str, tuple[str, ...]]] = []

    def record(
        self,
        kind: str,
        relation: str,
        columns: Sequence[str] = (),
        parties: Sequence[str] = (),
        detail: str = "",
        received: bool = False,
    ) -> None:
        """Record one disclosure; ``parties`` empty means every party.  A
        column reveal whose values materialised here says ``received``."""
        self.events.append(
            LeakageEvent(kind, relation, tuple(columns), tuple(parties), detail)
        )
        if received:
            self.received.append((relation, tuple(columns)))

    def column_reveals_to(self, party: str) -> list[LeakageEvent]:
        """All column disclosures a given party received, those to every
        party included."""
        return [
            e for e in self.events
            if e.kind == "column_reveal" and (party in e.parties or not e.parties)
        ]

    def cardinality_events(self) -> list[LeakageEvent]:
        return [e for e in self.events if e.kind == "cardinality"]

    def summary(self) -> str:
        lines = []
        for e in self.events:
            cols = ",".join(e.columns) if e.columns else "-"
            parties = ",".join(e.parties) if e.parties else "all"
            lines.append(f"{e.kind:<18} rel={e.relation:<28} cols={cols:<20} to={parties} {e.detail}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)


class SelectivelyTrustedParty:
    """The aiding party of the hybrid protocols.

    Wraps the party's cleartext engine so the hybrid protocols run their
    cleartext steps on it and the work is charged to the STP's local engine.
    A protocol calls it only where the reveal to the STP returned values.
    """

    def __init__(self, name: str, engine):
        self.name = name
        self.engine = engine

    def _enumerated(self, keys: np.ndarray, idx_name: str):
        """Load the ``(key, row index)`` relation of a revealed key column."""
        schema = Schema([ColumnDef("key"), ColumnDef(idx_name)])
        return self.engine.ingest(self._keyed(schema, keys), contributor=self.name)

    @staticmethod
    def _keyed(schema: Schema, keys: np.ndarray) -> Table:
        return Table(schema, [keys, np.arange(len(keys), dtype=np.int64)])

    @staticmethod
    def _same_as_next(sorted_keys: np.ndarray) -> np.ndarray:
        return sorted_keys[:-1] == sorted_keys[1:]

    def match_keys(
        self, left_keys: np.ndarray, right_keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Join two revealed key columns in the clear.

        Enumerates both columns, joins the ``(key, row index)`` relations on
        the STP's engine and returns the matching ``(left_idx, right_idx)``
        row-index pairs.
        """
        left = self._enumerated(left_keys, "left_idx")
        right = self._enumerated(right_keys, "right_idx")
        joined = self.engine.join(left, right, "key", "key")
        return joined.column("left_idx"), joined.column("right_idx")

    def sort_keys(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sort a revealed key column in the clear.

        Enumerates the column, sorts the ``(key, row index)`` relation by key
        on the STP's engine and returns the row indices in sorted order — the
        stable ascending permutation of ``keys`` — and whether each sorted
        key equals the next (``n - 1`` group-boundary flags).
        """
        relation = self._enumerated(keys, "row_id")
        ordered = self.engine.sort_by(relation, "key")
        return ordered.column("row_id"), self._same_as_next(ordered.column("key"))
