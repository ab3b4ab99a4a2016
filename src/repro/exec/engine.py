"""The cleartext engine.

:class:`ColumnarBackend` is the one engine that executes the cleartext
side of a plan: its handles are :class:`~repro.data.table.Table`\\ s, and
it computes on their columns with the vectorized kernels in
:mod:`repro.exec.kernels`.  A filter copies the surviving rows at once, so
every operator reads plain columns.

The plan executor instantiates one engine per party, hands it the party's
plaintext inputs, and reads the tables it produces.  Everything it
produces must be byte-identical to the row-at-a-time ``Table`` reference
(``tests/oracle_engine.py``; the differential corpus enforces this), so
any operator whose bit-exact vectorization is not worth the trouble should
simply call the corresponding ``Table`` method — correctness first; the
O(n log n) join/sort kernels and the sort-free dense-key grouping are where
the throughput win lives.

The engine counts its work in a :class:`~repro.model.counters.CleartextWork`
and never prices it; :mod:`repro.model.prices` holds the price lists.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import AGG_FUNCS, Table
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

    def key_values(self, handle: Table, column: str) -> np.ndarray:
        """The values of ``column`` for the executor's composite-key range
        check."""
        return handle.column(column)

    # -- relational operators ----------------------------------------------------------

    def concat(self, handles: Sequence[Table]) -> Table:
        first, *rest = handles
        result = first.concat(*rest)
        self._charge(result.num_rows)
        return result

    def project(self, handle: Table, columns: Sequence[str]) -> Table:
        self._charge(handle.num_rows)
        return handle.project(list(columns))

    def filter(self, handle: Table, column: str, op: str, value: float) -> Table:
        self._charge(handle.num_rows)
        return handle.select_rows(kernels.filter_flags(handle.column(column), op, value))

    def join(self, left: Table, right: Table, left_on: str, right_on: str) -> Table:
        rows_in = left.num_rows + right.num_rows
        self._charge(rows_in, shuffled=rows_in)
        left_idx, right_idx = kernels.hash_join_indices(
            left.column(left_on), right.column(right_on)
        )
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

    def aggregate(
        self,
        handle: Table,
        group_by: str | None,
        agg_col: str | None,
        func: str,
        out_name: str,
        presorted: bool = False,
    ) -> Table:
        func = func.lower()
        if func not in AGG_FUNCS:
            raise ValueError(f"unsupported aggregation {func!r}")
        if func != "count" and agg_col is None:
            raise ValueError(f"aggregation {func!r} requires a value column")
        n = handle.num_rows
        self._charge(n, shuffled=n)

        out_type = ColumnType.INT
        if agg_col is not None:
            out_type = handle.schema[agg_col].ctype
        if func == "mean":
            out_type = ColumnType.FLOAT
        out_def = ColumnDef(out_name, out_type)

        if not group_by:
            value = self._scalar_reduce(handle, func, agg_col)
            return Table(Schema([out_def]), [np.array([value])])

        out_schema = Schema([*handle.schema.project([group_by]).columns, out_def])
        if n == 0:
            return Table(out_schema)

        key = handle.column(group_by)
        values = None if func == "count" else handle.column(agg_col)
        out_keys, reduced = kernels.group_reduce(key, values, func)
        return Table(out_schema, [out_keys, reduced.astype(Table._dtype(out_def))])

    @staticmethod
    def _scalar_reduce(table: Table, func: str, agg_col: str | None):
        """Whole-column reduction, matching ``Table._reduce`` bit for bit."""
        if func == "count":
            return int(table.num_rows)
        col = table.column(agg_col)
        if len(col) == 0:
            return 0
        if func == "sum":
            return col.sum()
        if func == "min":
            return col.min()
        if func == "max":
            return col.max()
        if func == "mean":
            return float(col.mean())
        raise AssertionError(func)

    def arith(
        self, handle: Table, out_name: str, left: str, op: str, right: str | float
    ) -> Table:
        """Append ``out_name = left <op> right``."""
        self._charge(handle.num_rows)
        lcol = handle.column(left)
        rval = handle.column(right) if isinstance(right, str) else right
        result = kernels.arithmetic(lcol, op, rval)
        ctype = ColumnType.FLOAT if np.asarray(result).dtype.kind == "f" else ColumnType.INT
        return handle.with_column(out_name, result, ctype)

    def compare(
        self, handle: Table, out_name: str, left: str, op: str, right: str | float
    ) -> Table:
        self._charge(handle.num_rows)
        lcol = handle.column(left)
        rval = handle.column(right) if isinstance(right, str) else right
        return handle.with_column(out_name, kernels.compare(lcol, op, rval), ColumnType.INT)

    def bool_op(
        self, handle: Table, out_name: str, op: str, operands: Sequence[str]
    ) -> Table:
        self._charge(handle.num_rows)
        cols = [handle.column(name) for name in operands]
        return handle.with_column(out_name, kernels.combine_bool(op, cols), ColumnType.INT)

    def sort_by(self, handle: Table, column: str, ascending: bool = True) -> Table:
        self._charge(handle.num_rows * 2, shuffled=handle.num_rows)
        return handle.take(kernels.sort_indices(handle.column(column), ascending))

    def merge_sorted(
        self, handles: Sequence[Table], column: str, ascending: bool = True
    ) -> Table:
        """Merge relations that are each sorted by ``column``."""
        first, *rest = handles
        combined = first.concat(*rest) if rest else first
        self._charge(combined.num_rows, shuffled=combined.num_rows)
        return combined.take(kernels.sort_indices(combined.column(column), ascending))

    def distinct(self, handle: Table, columns: Sequence[str]) -> Table:
        self._charge(handle.num_rows, shuffled=handle.num_rows)
        projected = handle.project(list(columns))
        if projected.num_rows == 0:
            return projected
        return projected.take(kernels.distinct_indices(projected.columns()))

    def limit(self, handle: Table, n: int) -> Table:
        return handle.limit(n)

    # -- accounting --------------------------------------------------------------------

    def _charge(self, records: int, shuffled: int = 0) -> None:
        self.work.stages += 1
        self.work.records_processed += int(records)
        self.work.records_shuffled += int(shuffled)
