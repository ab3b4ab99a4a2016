"""The row-at-a-time reference engine the differential tests compare against.

Every operator maps directly onto the corresponding
:class:`~repro.data.table.Table` method, one call per operator — the
semantic reference for :class:`repro.exec.engine.ColumnarBackend`.  It is
not part of the package: :class:`OracleRunner` substitutes it through
``PlanExecutor.cleartext_engine``, the executor's one engine seam, so a
whole compiled plan (MPC and hybrid steps included) can be replayed on it.
It keeps no cost accounting; its work tally stays empty.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.dispatch import QueryRunner
from repro.data.table import Table
from repro.model.counters import CleartextWork


class PythonBackend:
    """Sequential cleartext reference operating directly on tables."""

    def __init__(self):
        self.work = CleartextWork()

    # -- data movement ---------------------------------------------------------------

    def ingest(self, table: Table, contributor: str | None = None) -> Table:
        return table

    def collect(self, handle: Table) -> Table:
        return handle

    def key_values(self, handle: Table, column: str):
        return handle.column(column)

    # -- relational operators ----------------------------------------------------------

    def concat(self, handles: Sequence[Table]) -> Table:
        handles = list(handles)
        return handles[0].concat(*handles[1:])

    def project(self, handle: Table, columns: Sequence[str]) -> Table:
        return handle.project(list(columns))

    def filter(self, handle: Table, column: str, op: str, value: float) -> Table:
        return handle.filter(column, op, value)

    def join(self, left: Table, right: Table, left_on: str, right_on: str) -> Table:
        return left.join(right, [left_on], [right_on])

    def aggregate(
        self,
        handle: Table,
        group_by: str | None,
        agg_col: str | None,
        func: str,
        out_name: str,
        presorted: bool = False,
    ) -> Table:
        group = [group_by] if group_by else []
        return handle.aggregate(group, agg_col, func, out_name)

    def multiply(self, handle: Table, out_name: str, left: str, right: str | float) -> Table:
        return handle.arithmetic(out_name, left, "*", right)

    def divide(self, handle: Table, out_name: str, left: str, right: str) -> Table:
        return handle.arithmetic(out_name, left, "/", right)

    def arith(self, handle: Table, out_name: str, left: str, op: str, right: str | float) -> Table:
        """Append ``out_name = left <op> right`` (``+``/``-`` map operator)."""
        return handle.arithmetic(out_name, left, op, right)

    def compare(self, handle: Table, out_name: str, left: str, op: str, right: str | float) -> Table:
        return handle.compare(out_name, left, op, right)

    def bool_op(self, handle: Table, out_name: str, op: str, operands: Sequence[str]) -> Table:
        return handle.bool_op(out_name, op, list(operands))

    def sort_by(self, handle: Table, column: str, ascending: bool = True) -> Table:
        return handle.sort_by([column], ascending=ascending)

    def merge_sorted(self, handles: Sequence[Table], column: str, ascending: bool = True) -> Table:
        """Merge relations that are each sorted by ``column``."""
        handles = list(handles)
        combined = handles[0].concat(*handles[1:]) if len(handles) > 1 else handles[0]
        return combined.sort_by([column], ascending=ascending)

    def distinct(self, handle: Table, columns: Sequence[str]) -> Table:
        return handle.distinct(list(columns))

    def limit(self, handle: Table, n: int) -> Table:
        return handle.limit(n)

    def enumerate_rows(self, handle: Table, out_name: str = "row_id") -> Table:
        return handle.enumerate_rows(out_name)


class OracleRunner(QueryRunner):
    """The in-process runner with the reference engine in the engine seam."""

    cleartext_engine = PythonBackend
