"""Engines on row counts alone: what a plan estimate executes.

The plan estimator runs the executor itself once per plan over these
engines, whose relations carry a schema and a row count and nothing else,
so every step is charged and every round scheduled exactly as in execution
— at O(1) per step, whatever the row count:

* :class:`ShapeEngine` is a share engine that holds no slice and draws no
  randomness; the protocols run on it unchanged, its carried primitives
  call ``Network.round`` with ``None`` payloads, as an observer engine's
  do.  :class:`ShapeBackend` is the Sharemind facade over it.
* :class:`ShapeColumnarBackend` is the cleartext engine over relations of
  zero-stride columns (:func:`shape_table`); :class:`ShapeSTP` the
  selectively-trusted party over it.

Opened values and row positions are :class:`Positions`: a count, sliceable.
What a shape run cannot derive from its inputs' lengths — the rows a
compaction keeps, the pairs an STP's key match returns, the rows a cleartext
filter, join, aggregation or distinct produces — is the running node's
estimated output, ``rows_out()``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.data.schema import Schema
from repro.data.table import Table
from repro.exec.engine import ColumnarBackend
from repro.hybrid.stp import SelectivelyTrustedParty
from repro.model.counters import CostMeter
from repro.mpc.network import Network
from repro.mpc.protocols import SharedTable
from repro.mpc.secretshare import SecretSharingEngine, SharedVector
from repro.mpc.sharemind import SharemindBackend

#: The estimated output rows of the node being run.
RowsOut = Callable[[], int]


#: One zero, which every column of a :func:`shape_table` views.
_ZERO = bytes(8)


def shape_table(schema: Schema, rows: int) -> Table:
    """A relation of ``schema`` with ``rows`` rows, each column a zero-stride
    (read-only) view of one zero."""
    return Table(
        schema,
        [np.ndarray((rows,), Table._dtype(c), buffer=_ZERO, strides=(0,)) for c in schema],
    )


def resized(handle: "Table | SharedTable", rows: int) -> "Table | SharedTable":
    """``handle``'s relation with ``rows`` rows."""
    if handle.num_rows == rows:
        return handle
    if isinstance(handle, Table):
        return shape_table(handle.schema, rows)
    engine = handle.engine
    return SharedTable(engine, handle.schema, [engine.fill(0, rows) for _ in handle.schema])


class Positions:
    """Row positions, or opened values, of which only the count is known."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = int(n)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: "slice | Positions") -> "Positions":
        if isinstance(rows, Positions):
            return Positions(len(rows))
        return Positions(len(range(self.n)[rows]))


class ShapeEngine(SecretSharingEngine):
    """A share engine whose vectors carry only a length.

    No slice, stream or dealer exists, so a primitive that would touch one
    fails loudly instead of silently allocating a billion-row vector.
    """

    def __init__(self, party_names: Sequence[str], rows_out: RowsOut):
        self.party_names = list(party_names)
        self.num_parties = len(self.party_names)
        self.local_parties = set()
        self.local_indices = []
        self._local_pos = {}
        self.num_local_shares = 0
        self.network = Network(self.party_names)
        self.meter = CostMeter(network=self.network.stats)
        self.rows_out = rows_out

    def _require_local(self) -> None:
        pass

    def _vector(self, n: int) -> SharedVector:
        return SharedVector(self, [], n)

    # -- the carried primitives: their rounds, with nothing to reconstruct ----------------

    def input_vectors(self, values=None, contributor=None, num_rows=None):
        """A compute party's sharing is a peer's: only the row counts are
        known here."""
        if values is not None and (contributor or self.party_names[0]) in self.party_names:
            values, num_rows = None, [len(v) for v in values]
        return super().input_vectors(values, contributor, num_rows)

    def reveal_to_many(self, vecs: Sequence[SharedVector], party: str) -> list[Positions]:
        """A shape run plays the party the vectors are revealed to, so the
        logic that party runs on them is charged too."""
        super().reveal_to_many(vecs, party)
        return [Positions(len(vec)) for vec in vecs]

    def _opened(self, delivered, step: str, vecs: Sequence[SharedVector]) -> list[Positions]:
        return [Positions(len(vec)) for vec in vecs]

    def _flags_opened(self, delivered, n: int) -> Positions:
        return Positions(n)

    def _beaver(self, left: SharedVector, right: SharedVector) -> list:
        self._broadcast("beaver-open", [left, right])
        return []

    # -- sharings of values every engine knows: no randomness, no slice ---------------------

    def fill(self, value: int, n: int) -> SharedVector:
        return self._vector(n)

    def share_from_env(self, values) -> SharedVector:
        return self._vector(len(values))

    def zero_sharing(self, n: int) -> list[np.ndarray]:
        return []

    def _env_sharing(self, n: int, values=None) -> list[np.ndarray]:
        return []

    def _expanded_input(self, values, c_idx: int, num_rows) -> list:
        return []

    # -- positions and scans ----------------------------------------------------------------

    def permutation(self, n: int) -> Positions:
        return Positions(n)

    def _at_host(self, vecs, layout, compute) -> tuple:
        """The host's two rounds; what it hands back has its layout's lengths."""
        super()._at_host(vecs, layout, compute)
        return tuple(Positions(n) for _, n in layout)

    def rows_where(self, opened_flags) -> Positions:
        return Positions(self.rows_out())

    def cross_pairs(self, n: int, m: int) -> tuple[Positions, Positions]:
        return Positions(n * m), Positions(n * m)

    def check_index(self, rows, n: int) -> None:
        pass

    def key_outside(self, vecs: Sequence[SharedVector], base: int) -> list[None]:
        """The rounds are carried; an estimate sees no key out of range."""
        self._at_host(vecs, [(np.int64, len(vecs))], None)
        return [None] * len(vecs)

    def _segment_sums(self, values: SharedVector, same) -> list[np.ndarray]:
        return []


class ShapeBackend(SharemindBackend):
    """The Sharemind facade over a :class:`ShapeEngine` of ``party_names``."""

    def __init__(self, party_names: Sequence[str], rows_out: RowsOut):
        self.party_names = list(party_names)
        self.engine = ShapeEngine(self.party_names, rows_out)

    def ingest(self, table: Table, contributor: str | None = None) -> SharedTable:
        """A party's relation enters as a peer's does: by its row count."""
        return self.ingest_remote(table.schema, table.num_rows, contributor)

    def reveal_to(self, handle: SharedTable, party: str) -> Table:
        self.engine.reveal_to_many(handle.columns, party)
        return shape_table(handle.schema, handle.num_rows)


class ShapeColumnarBackend(ColumnarBackend):
    """The cleartext engine over :func:`shape_table` relations."""

    def __init__(self, rows_out: RowsOut):
        super().__init__()
        self.rows_out = rows_out

    def _pass(self, compute, handles, records, shuffled=0, rows=None) -> Table:
        """The pass the engine charges, building the output from the schema
        ``compute`` gives on no rows, at ``rows`` rows — or, where the data
        decides, the node's estimated output."""

        def shaped(*tables: Table) -> Table:
            schema = compute(*(table.limit(0) for table in tables)).schema
            return shape_table(schema, self.rows_out() if rows is None else rows)

        return super()._pass(shaped, handles, records, shuffled)

    def key_outside(self, handle: Table, columns: Sequence[str], base: int) -> None:
        """An estimate sees no key out of range."""


class ShapeSTP(SelectivelyTrustedParty):
    """The STP over a :class:`ShapeColumnarBackend`: its key relations carry
    only a length."""

    @staticmethod
    def _keyed(schema: Schema, keys) -> Table:
        return shape_table(schema, len(keys))

    @staticmethod
    def _same_as_next(sorted_keys) -> Positions:
        return Positions(max(0, len(sorted_keys) - 1))
