"""CSV input/output for tables.

The original Conclave prototype exchanges relations between its per-party
agents and the MPC backends as CSV files.  We keep the same convention: each
party's local data directory holds one CSV file per input/output relation,
with a header row naming the columns.
"""

from __future__ import annotations

import csv
import os
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table


def write_csv(table: Table, path: str | os.PathLike) -> Path:
    """Write ``table`` to ``path`` as CSV with a header row.

    Returns the path written.  Parent directories are created as needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.schema.names)
        for row in table.rows():
            writer.writerow(row)
    return path


def read_csv(path: str | os.PathLike, schema: Schema | None = None) -> Table:
    """Read a CSV file with a header row into a :class:`Table`.

    If ``schema`` is omitted, all columns are inferred: a column is INT if
    every value parses as an integer, FLOAT otherwise.  A row whose cell
    count differs from the header's is a ``ValueError`` naming its line.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise ValueError(f"{path} is empty; expected a CSV header row") from exc
        raw_rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path} line {reader.line_num} has {len(row)} cells; "
                    f"its header has {len(header)}"
                )
            raw_rows.append(row)

    if schema is None:
        schema = _infer_schema(header, raw_rows)
    elif schema.names != header:
        raise ValueError(
            f"CSV header {header} does not match expected schema columns {schema.names}"
        )

    columns = []
    for j, cdef in enumerate(schema):
        if cdef.ctype is ColumnType.INT:
            columns.append(np.array([_int_cell(row[j], cdef.name) for row in raw_rows],
                                    dtype=np.int64))
        else:
            columns.append(np.array([float(row[j]) for row in raw_rows], dtype=np.float64))
    return Table(schema, columns)


def _int_cell(cell: str, column: str) -> int:
    """An INT cell's exact value (``"3.0"`` is 3); anything else is refused."""
    try:
        value = Decimal(cell)
        if value == value.to_integral_value() and -(2**63) <= value < 2**63:
            return int(value)
    except InvalidOperation:
        pass
    raise ValueError(f"INT column {column!r} has the cell {cell!r}, which is not an int64")


def _infer_schema(header: Sequence[str], rows: Sequence[Sequence[str]]) -> Schema:
    cols = []
    for j, name in enumerate(header):
        ctype = ColumnType.INT
        for row in rows:
            value = row[j]
            try:
                int(value)
            except ValueError:
                ctype = ColumnType.FLOAT
                break
        cols.append(ColumnDef(name, ctype))
    return Schema(cols)
