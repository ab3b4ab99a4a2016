"""Sharemind-style secret-sharing MPC backend.

The real Conclave generates SecreC programs and submits them to a Sharemind
installation of three computing parties.  This module provides the
equivalent backend for the reproduction: a facade over the
:class:`~repro.mpc.secretshare.SecretSharingEngine` and the oblivious
relational protocols, exposing the uniform operator interface the plan
executor drives (ingest, concat, project, filter, join, aggregate,
arithmetic, sort, distinct, limit, reveal) plus its work counts.

Every handle returned by the backend is a
:class:`~repro.mpc.protocols.SharedTable`; data stays secret-shared between
operators and is only reconstructed by ``reveal``/``reveal_to``.
"""

from __future__ import annotations

from typing import Sequence

from repro.data.schema import Schema
from repro.data.table import Table
from repro.model import steps
from repro.model.counters import CostMeter
from repro.mpc import protocols
from repro.mpc.protocols import SharedTable
from repro.mpc.secretshare import SecretSharingEngine


class SharemindBackend:
    """Three-party (by default) secret-sharing MPC backend."""

    #: Maximum number of computing parties Sharemind supports in the paper's
    #: deployment.
    MAX_PARTIES = 3
    name = "sharemind"

    def __init__(
        self,
        party_names: Sequence[str],
        seed: int | None = 0,
        network=None,
        local_parties: Sequence[str] | None = None,
    ):
        party_names = list(party_names)
        if len(party_names) < 2:
            raise ValueError("the Sharemind backend needs at least two computing parties")
        if len(party_names) > self.MAX_PARTIES:
            raise ValueError(
                f"the Sharemind backend supports at most {self.MAX_PARTIES} computing parties"
            )
        self.party_names = party_names
        # ``local_parties=None`` (the single-process simulation) plays every
        # party; a party agent materialises only its own share slices.
        self.engine = SecretSharingEngine(
            party_names, seed=seed, network=network, local_parties=local_parties
        )

    # -- data movement -----------------------------------------------------------------

    def ingest(self, table: Table, contributor: str | None = None) -> SharedTable:
        """Secret-share a party's cleartext relation into the MPC."""
        return SharedTable.from_table(self.engine, table, contributor=contributor)

    def ingest_remote(self, schema: Schema, num_rows: int, contributor: str) -> SharedTable:
        """Another party's relation, as the share slices this engine expands.

        Runs the same input step as :meth:`ingest` at the contributor, but
        with only the plan's schema and the public row count known locally —
        the cleartext never reaches this process.
        """
        return SharedTable.from_metadata(self.engine, schema, num_rows, contributor)

    def reveal(self, handle: SharedTable) -> Table:
        """Open a relation to all parties."""
        return handle.reveal()

    def reveal_to(self, handle: SharedTable, party: str) -> Table:
        """Open a relation to a single (possibly external) party."""
        return handle.reveal_to(party)

    def key_outside(self, handle: SharedTable, columns: Sequence[str], base: int):
        """The first of ``columns`` with a value outside ``[0, base)`` and
        that value, or ``None``: the executor's composite-key range check,
        decided for every column at once at the last compute party, which
        hands back only the verdicts."""
        bad = zip(columns, self.engine.key_outside([handle.column(c) for c in columns], base))
        return next(((name, value) for name, value in bad if value is not None), None)

    # -- relational operators -------------------------------------------------------------

    def concat(self, handles: Sequence[SharedTable]) -> SharedTable:
        return protocols.mpc_concat(list(handles))

    def project(self, handle: SharedTable, columns: Sequence[str]) -> SharedTable:
        return protocols.mpc_project(handle, columns)

    def filter(self, handle: SharedTable, column: str, op: str, value: float) -> SharedTable:
        return protocols.mpc_filter(handle, column, op, value)

    def arith(self, handle: SharedTable, out_name: str, left: str, op: str, right: str | float) -> SharedTable:
        """``out_name = left <op> right``: ``op`` picks local add/sub, a
        Beaver product or scaling, or a fixed-point division."""
        return protocols.mpc_arith(handle, out_name, left, op, right)

    def compare(self, handle: SharedTable, out_name: str, left: str, op: str, right: str | float) -> SharedTable:
        return protocols.mpc_compare(handle, out_name, left, op, right)

    def bool_op(self, handle: SharedTable, out_name: str, op: str, operands: Sequence[str]) -> SharedTable:
        return protocols.mpc_bool_op(handle, out_name, op, list(operands))

    def join(
        self, left: SharedTable, right: SharedTable, left_on: str, right_on: str
    ) -> SharedTable:
        return protocols.mpc_join(left, right, left_on, right_on)

    def aggregate(
        self,
        handle: SharedTable,
        group_by: str | None,
        outputs: Sequence[tuple[str, str | None, str]],
        presorted: bool = False,
        leakage=None,
    ) -> SharedTable:
        """Every ``(func, over, out_name)`` of ``outputs`` per ``group_by``
        key, from one sort (:func:`~repro.mpc.protocols.mpc_aggregate`)."""
        return protocols.mpc_aggregate(handle, group_by, outputs, presorted, leakage)

    def sort_by(self, handle: SharedTable, column: str, ascending: bool = True) -> SharedTable:
        return protocols.mpc_sort(handle, column, ascending=ascending)

    def merge_sorted(
        self, handles: Sequence[SharedTable], column: str, ascending: bool = True
    ) -> SharedTable:
        """Obliviously merge relations that are each sorted by ``column``.

        Costs an O(n log n) bitonic merge instead of a full oblivious sort —
        the primitive behind the sort push-up extension of §5.4.
        """
        return protocols.mpc_merge_sorted(list(handles), column, ascending=ascending)

    def distinct(self, handle: SharedTable, columns: Sequence[str], leakage=None) -> SharedTable:
        return protocols.mpc_distinct(handle, columns, leakage)

    def limit(self, handle: SharedTable, n: int) -> SharedTable:
        """Keep the first ``n`` rows (used after an order-by)."""
        columns = [col.head(n) for col in handle.columns]
        self.engine.charge(steps.local_meter(min(n, handle.num_rows), len(handle.columns)))
        return SharedTable(self.engine, handle.schema, columns)

    # -- accounting -------------------------------------------------------------------------

    @property
    def meter(self) -> CostMeter:
        """The MPC work so far: operations, and rounds and bytes of the network."""
        return self.engine.meter
