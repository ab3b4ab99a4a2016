"""The cleartext engine.

:class:`ColumnarBackend` is the one engine that executes the cleartext
side of a plan: it operates on :class:`~repro.exec.batch.ColumnBatch`
handles with the vectorized kernels in :mod:`repro.exec.kernels`.
Per-lane operators (filter, compare, bool, map) are mask-lazy — a filter
costs one boolean AND, not a copy of every surviving column — and the
copy happens once at the next compaction point (join / aggregate / sort /
distinct / limit / enumerate / concat / collect).

The plan executor instantiates one engine per party, hands it the party's
plaintext inputs, and collects plain tables back out.  Everything it
produces must be byte-identical to the row-at-a-time ``Table`` reference
(``tests/oracle_engine.py``; the differential corpus enforces this), so
any operator whose bit-exact vectorization is not worth the trouble should
simply call the corresponding ``Table`` method on a collected batch —
correctness first, the mask trick, the O(n log n) join/sort kernels and
the sort-free dense-key grouping are where the throughput win lives.

The engine counts its work in a :class:`~repro.model.counters.CleartextWork`
and never prices it; :mod:`repro.model.prices` holds the price lists.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import AGG_FUNCS, Table
from repro.exec.batch import ColumnBatch
from repro.model.counters import CleartextWork
from repro.exec import kernels


class ColumnarBackend:
    """Vectorized cleartext backend operating on column batches."""

    def __init__(self):
        self.work = CleartextWork()

    # -- data movement ---------------------------------------------------------------

    def ingest(self, table: Table, contributor: str | None = None) -> ColumnBatch:
        self.work.jobs += 1
        return ColumnBatch.from_table(table)

    def collect(self, handle: ColumnBatch) -> Table:
        return handle.to_table()

    def key_values(self, handle: ColumnBatch, column: str) -> np.ndarray:
        """The live values of ``column`` for the executor's composite-key
        range check: a lane filtered out before the encode chain must not
        trip it."""
        return handle.column_values(column)

    # -- relational operators ----------------------------------------------------------

    def concat(self, handles: Sequence[ColumnBatch]) -> ColumnBatch:
        handles = [h.compact() for h in handles]
        first = handles[0]
        for other in handles[1:]:
            if not first.schema.concat_compatible(other.schema):
                raise ValueError(
                    f"cannot concat incompatible schemas {first.schema} and {other.schema}"
                )
        width = len(first.schema)
        columns = [
            np.concatenate([h.columns()[j] for h in handles]) for j in range(width)
        ]
        result = ColumnBatch(first.schema, columns)
        self._charge(result.num_rows)
        return result

    def project(self, handle: ColumnBatch, columns: Sequence[str]) -> ColumnBatch:
        self._charge(handle.num_rows)
        return handle.project(list(columns))

    def filter(self, handle: ColumnBatch, column: str, op: str, value: float) -> ColumnBatch:
        self._charge(handle.num_rows)
        return handle.narrow(kernels.filter_flags(handle.column(column), op, value))

    def join(
        self, left: ColumnBatch, right: ColumnBatch, left_on: str, right_on: str
    ) -> ColumnBatch:
        left = left.compact()
        right = right.compact()
        rows_in = left.num_rows + right.num_rows
        self._charge(rows_in, shuffled=rows_in)
        left_idx, right_idx = kernels.hash_join_indices(
            left.column(left_on), right.column(right_on)
        )
        left_cols = [col[left_idx] for col in left.columns()]
        right_keep = [c.name for c in right.schema if c.name != right_on]
        right_proj = right.project(right_keep)
        right_cols = [col[right_idx] for col in right_proj.columns()]
        taken = set(left.schema.names)
        right_defs = [
            cdef.renamed(cdef.name + "_r") if cdef.name in taken else cdef
            for cdef in right_proj.schema
        ]
        schema = Schema([*left.schema.columns, *right_defs])
        return ColumnBatch(schema, [*left_cols, *right_cols])

    def aggregate(
        self,
        handle: ColumnBatch,
        group_by: str | None,
        agg_col: str | None,
        func: str,
        out_name: str,
        presorted: bool = False,
    ) -> ColumnBatch:
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
            return ColumnBatch(Schema([out_def]), [np.array([value])])

        out_schema = Schema([*handle.schema.project([group_by]).columns, out_def])
        if n == 0:
            return ColumnBatch(out_schema)

        # Only the valid lanes of the two columns read are materialised.
        key = handle.column_values(group_by)
        values = None if func == "count" else handle.column_values(agg_col)
        out_keys, reduced = kernels.group_reduce(key, values, func)
        return ColumnBatch(out_schema, [out_keys, reduced.astype(Table._dtype(out_def))])

    @staticmethod
    def _scalar_reduce(batch: ColumnBatch, func: str, agg_col: str | None):
        """Whole-column reduction, matching ``Table._reduce`` bit for bit."""
        if func == "count":
            return int(batch.num_rows)
        col = batch.column_values(agg_col)
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
        self, handle: ColumnBatch, out_name: str, left: str, op: str, right: str | float
    ) -> ColumnBatch:
        """Append ``out_name = left <op> right`` over every lane."""
        self._charge(handle.num_rows)
        lcol = handle.column(left)
        rval = handle.column(right) if isinstance(right, str) else right
        result = kernels.arithmetic(lcol, op, rval)
        ctype = ColumnType.FLOAT if np.asarray(result).dtype.kind == "f" else ColumnType.INT
        return handle.with_column(out_name, result, ctype)

    def compare(
        self, handle: ColumnBatch, out_name: str, left: str, op: str, right: str | float
    ) -> ColumnBatch:
        self._charge(handle.num_rows)
        lcol = handle.column(left)
        rval = handle.column(right) if isinstance(right, str) else right
        return handle.with_column(out_name, kernels.compare(lcol, op, rval), ColumnType.INT)

    def bool_op(
        self, handle: ColumnBatch, out_name: str, op: str, operands: Sequence[str]
    ) -> ColumnBatch:
        self._charge(handle.num_rows)
        cols = [handle.column(name) for name in operands]
        return handle.with_column(out_name, kernels.combine_bool(op, cols), ColumnType.INT)

    def sort_by(self, handle: ColumnBatch, column: str, ascending: bool = True) -> ColumnBatch:
        self._charge(handle.num_rows * 2, shuffled=handle.num_rows)
        batch = handle.compact()
        return batch.take(kernels.sort_indices(batch.column(column), ascending))

    def merge_sorted(
        self, handles: Sequence[ColumnBatch], column: str, ascending: bool = True
    ) -> ColumnBatch:
        """Merge relations that are each sorted by ``column``."""
        handles = [h.compact() for h in handles]
        if len(handles) > 1:
            first = handles[0]
            columns = [
                np.concatenate([h.columns()[j] for h in handles])
                for j in range(len(first.schema))
            ]
            combined = ColumnBatch(first.schema, columns)
        else:
            combined = handles[0]
        self._charge(combined.num_rows, shuffled=combined.num_rows)
        return combined.take(kernels.sort_indices(combined.column(column), ascending))

    def distinct(self, handle: ColumnBatch, columns: Sequence[str]) -> ColumnBatch:
        self._charge(handle.num_rows, shuffled=handle.num_rows)
        projected = handle.compact().project(list(columns))
        if projected.num_rows == 0:
            return projected
        return projected.take(kernels.distinct_indices(projected.columns()))

    def limit(self, handle: ColumnBatch, n: int) -> ColumnBatch:
        batch = handle.compact()
        return ColumnBatch(batch.schema, [col[:n] for col in batch.columns()])

    def enumerate_rows(self, handle: ColumnBatch, out_name: str = "row_id") -> ColumnBatch:
        self._charge(handle.num_rows)
        batch = handle.compact()
        return batch.with_column(
            out_name, np.arange(batch.num_rows, dtype=np.int64), ColumnType.INT
        )

    # -- accounting --------------------------------------------------------------------

    def _charge(self, records: int, shuffled: int = 0) -> None:
        self.work.stages += 1
        self.work.records_processed += int(records)
        self.work.records_shuffled += int(shuffled)
