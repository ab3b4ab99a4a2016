"""The cleartext engine.

:class:`ColumnarBackend` is the one engine that executes the cleartext
side of a plan: its handles are :class:`~repro.data.table.Table`\\ s, and
it computes on their columns with the vectorized kernels in
:mod:`repro.exec.kernels`.  A filter's result is a pending selection
(:meth:`~repro.data.table.Table.select_rows`): an aggregate that scatters
reduces its survivors straight from the source, chunk by chunk, and
anything else reads them copied.

The plan executor instantiates one engine per party, hands it the party's
plaintext inputs, and reads the tables it produces.  Everything it
produces must be byte-identical to the row-at-a-time ``Table`` reference
(``tests/oracle_engine.py``; the differential corpus enforces this), so
any operator whose bit-exact vectorization is not worth the trouble should
simply call the corresponding ``Table`` method — correctness first; the
O(n log n) join/sort kernels and the sort-free dense-key grouping are where
the throughput win lives.

The engine counts its work in a :class:`~repro.model.counters.CleartextWork`
and never prices it; :mod:`repro.model.prices` holds the price lists.  Every
operator is one :meth:`~ColumnarBackend._pass`: its charge, then its output
computed.  The plan estimator's length-only engine (:mod:`repro.mpc.shape`)
wraps only the computation, so it charges exactly what this engine charges.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.schema import ColumnType, Schema, aggregate_schema
from repro.data.table import Table
from repro.model.counters import CleartextWork
from repro.exec import kernels


class ColumnarBackend:
    """Vectorized cleartext backend operating on tables."""

    def __init__(self):
        self.work = CleartextWork()

    # -- data movement ---------------------------------------------------------------

    def ingest(self, table: Table, contributor: str | None = None) -> Table:
        self.work.jobs += 1
        return table

    def key_outside(self, handle: Table, columns: Sequence[str], base: int):
        """The first of ``columns`` with a value outside ``[0, base)`` and
        that value, or ``None``: the executor's composite-key range check."""
        bad = ((name, kernels.first_outside(handle.column(name), base)) for name in columns)
        return next(((name, value) for name, value in bad if value is not None), None)

    # -- relational operators ----------------------------------------------------------

    def concat(self, handles: Sequence[Table]) -> Table:
        rows = sum(handle.num_rows for handle in handles)
        return self._pass(lambda first, *rest: first.concat(*rest), handles, rows, rows=rows)

    def project(self, handle: Table, columns: Sequence[str]) -> Table:
        n = handle.num_rows
        return self._pass(lambda t: t.project(list(columns)), [handle], n, rows=n)

    def filter(self, handle: Table, column: str, op: str, value: float) -> Table:
        return self._pass(
            lambda t: t.select_rows(kernels.filter_flags(t.column(column), op, value)),
            [handle], handle.num_rows,
        )

    def join(self, left: Table, right: Table, left_on: str, right_on: str) -> Table:
        rows_in = left.num_rows + right.num_rows
        return self._pass(
            lambda l, r: _hash_join(l, r, left_on, right_on), [left, right], rows_in, rows_in
        )

    def aggregate(
        self,
        handle: Table,
        group_by: str | None,
        outputs: Sequence[tuple[str, str | None, str]],
        presorted: bool = False,
        leakage=None,
    ) -> Table:
        """Every ``(func, over, out_name)`` of ``outputs`` per ``group_by``
        key, in one pass.  Only the MPC engine sorts or hands anything back,
        so ``presorted`` and ``leakage`` change nothing here."""
        schema = aggregate_schema(handle.schema, group_by, outputs)
        n = handle.num_rows
        return self._pass(lambda t: _grouped(t, group_by, outputs, schema), [handle], n, n)

    def arith(
        self, handle: Table, out_name: str, left: str, op: str, right: str | float
    ) -> Table:
        """Append ``out_name = left <op> right`` (FLOAT where the result is)."""
        return self._appended(
            handle, out_name, None,
            lambda t: kernels.arithmetic(t.column(left), op, _operand(t, right)),
        )

    def compare(
        self, handle: Table, out_name: str, left: str, op: str, right: str | float
    ) -> Table:
        return self._appended(
            handle, out_name, ColumnType.INT,
            lambda t: kernels.compare(t.column(left), op, _operand(t, right)),
        )

    def bool_op(
        self, handle: Table, out_name: str, op: str, operands: Sequence[str]
    ) -> Table:
        return self._appended(
            handle, out_name, ColumnType.INT,
            lambda t: kernels.combine_bool(op, [t.column(name) for name in operands]),
        )

    def _appended(self, handle: Table, name: str, ctype: ColumnType | None, values) -> Table:
        n = handle.num_rows
        return self._pass(lambda t: t.with_column(name, values(t), ctype), [handle], n, rows=n)

    def sort_by(self, handle: Table, column: str, ascending: bool = True) -> Table:
        n = handle.num_rows
        return self._pass(lambda t: _sorted(t, column, ascending), [handle], 2 * n, n, rows=n)

    def merge_sorted(
        self, handles: Sequence[Table], column: str, ascending: bool = True
    ) -> Table:
        """Merge relations that are each sorted by ``column``."""
        rows = sum(handle.num_rows for handle in handles)
        return self._pass(
            lambda first, *rest: _sorted(first.concat(*rest) if rest else first, column, ascending),
            handles, rows, rows, rows=rows,
        )

    def distinct(self, handle: Table, columns: Sequence[str], leakage=None) -> Table:
        """The distinct rows of ``columns``; ``leakage`` matters to the MPC
        engine only, whose distinct is a grouped count."""
        n = handle.num_rows
        return self._pass(lambda t: _distinct(t.project(list(columns))), [handle], n, n)

    def limit(self, handle: Table, n: int) -> Table:
        return handle.limit(n)

    # -- accounting --------------------------------------------------------------------

    def _pass(self, compute, handles, records: int, shuffled: int = 0, rows=None) -> Table:
        """An operator pass over ``records`` rows, ``shuffled`` of them by key:
        charged, then ``compute(*handles)``.  ``rows`` is the output's row
        count where the inputs' counts decide it (``None``: the data does)."""
        self.work.stages += 1
        self.work.records_processed += int(records)
        self.work.records_shuffled += int(shuffled)
        return compute(*handles)


def _operand(table: Table, right: str | float):
    """The right operand of a binary operator: a column, or a scalar."""
    return table.column(right) if isinstance(right, str) else right


def _sorted(table: Table, column: str, ascending: bool) -> Table:
    return table.take(kernels.sort_indices(table.column(column), ascending))


def _distinct(table: Table) -> Table:
    if table.num_rows == 0:
        return table
    return table.take(kernels.distinct_indices(table.columns()))


def _hash_join(left: Table, right: Table, left_on: str, right_on: str) -> Table:
    """Every matching pair: all left columns, then the right columns but the
    key, suffixed ``_r`` where a left column has the name."""
    left_idx, right_idx = kernels.hash_join_indices(left.column(left_on), right.column(right_on))
    right_proj = right.project([c.name for c in right.schema if c.name != right_on])
    taken = set(left.schema.names)
    right_defs = [
        cdef.renamed(cdef.name + "_r") if cdef.name in taken else cdef
        for cdef in right_proj.schema
    ]
    schema = Schema([*left.schema.columns, *right_defs])
    return Table(
        schema,
        [
            *(col[left_idx] for col in left.columns()),
            *(col[right_idx] for col in right_proj.columns()),
        ],
    )


def _grouped(
    table: Table, group_by: str | None, outputs: Sequence[tuple], schema: Schema
) -> Table:
    """Each output's reduction per ``group_by`` key (one row without a key)."""
    reducers = [(func, None if func == "count" else over) for func, over, _ in outputs]
    if not group_by:
        # Counts alone read no column.
        reads = any(func != "count" for func, _ in reducers)
        dense = _dense_in_place(table, None, reducers) if reads else None
        if dense is None:
            return Table(schema, [np.array([table._reduce(func, over)]) for func, over in reducers])
        return Table(schema, dense[1])
    if table.num_rows == 0:
        return Table(schema)
    dense = _dense_in_place(table, group_by, reducers)
    if dense is None:
        dense = kernels.group_reduce(
            table.column(group_by),
            [(None if over is None else table.column(over), func) for func, over in reducers],
        )
    out_keys, reduced = dense
    return Table(schema, [out_keys, *reduced])


def _dense_in_place(table: Table, group_by: str | None, reducers: Sequence[tuple]):
    """The scattered grouping of a pending selection's survivors, read from
    its source without copying them; ``None`` where the rows are in place
    already or the grouping would not scatter."""
    pending = table.pending_selection()
    if pending is None:
        return None
    source, flags = pending
    key = source.column(group_by) if group_by else None
    return kernels.dense_group_reduce(
        key,
        [(None if over is None else source.column(over), func) for func, over in reducers],
        flags,
    )
