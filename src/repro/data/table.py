"""In-memory columnar tables.

:class:`Table` is the single data container used across the reproduction.
It stores columns as numpy arrays (int64 or float64) and offers the
relational primitives the compiler's generated code needs: project, filter,
join, group-by aggregation, sort, concat, arithmetic on columns, distinct,
and limit.  All operations return new tables; tables are never mutated after
construction.

A selection (:meth:`Table.select_rows`, which every filter calls) is lazy:
it keeps its source's columns and the boolean flags of the surviving rows,
and copies those rows out the first time anything reads a column.
:meth:`Table.project` and :meth:`Table.rename` of such a table stay lazy,
and :meth:`Table.pending_selection` lets an engine reduce the survivors in
place; every other reader sees the copied rows.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.data.schema import ColumnDef, ColumnType, Schema, aggregate_schema


class Table:
    """Immutable columnar table with a :class:`Schema`."""

    def __init__(self, schema: Schema, columns: Sequence[np.ndarray] | None = None):
        self.schema = schema
        if columns is None:
            columns = [np.empty(0, dtype=self._dtype(c)) for c in schema]
        if len(columns) != len(schema):
            raise ValueError(
                f"schema has {len(schema)} columns but {len(columns)} arrays given"
            )
        arrays: list[np.ndarray] = []
        nrows = None
        for cdef, col in zip(schema, columns):
            arr = np.asarray(col, dtype=self._dtype(cdef))
            if arr.ndim != 1:
                raise ValueError("table columns must be one-dimensional")
            if nrows is None:
                nrows = len(arr)
            elif len(arr) != nrows:
                raise ValueError("all columns must have the same length")
            arrays.append(arr)
        self._columns = tuple(arrays)
        self._nrows: int = 0 if nrows is None else int(nrows)

    @classmethod
    def _selected(cls, source: "Table", flags: np.ndarray, rows: int) -> "Table":
        """The ``rows`` rows of ``source`` whose ``flags`` are set, not yet
        copied out of it."""
        table = cls.__new__(cls)
        table.schema = source.schema
        table._copied = None
        table._pending = (source, flags)
        table._nrows = rows
        return table

    @property
    def _columns(self) -> tuple[np.ndarray, ...]:
        """The column arrays; a pending selection copies its surviving rows
        out of the source here, once."""
        pending = self._pending
        if pending is not None:
            source, flags = pending
            self._copied = tuple(col[flags] for col in source._columns)
            self._pending = None
        return self._copied

    @_columns.setter
    def _columns(self, columns: tuple[np.ndarray, ...]) -> None:
        self._copied = columns
        self._pending = None

    # -- constructors ----------------------------------------------------------------

    @staticmethod
    def _dtype(cdef: ColumnDef) -> np.dtype:
        return np.dtype(np.int64) if cdef.ctype is ColumnType.INT else np.dtype(np.float64)

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence[float]]) -> "Table":
        """Build a table from an iterable of row tuples."""
        rows = list(rows)
        if not rows:
            return cls(schema)
        ncols = len(schema)
        for row in rows:
            if len(row) != ncols:
                raise ValueError(f"row {row!r} does not match schema width {ncols}")
        columns = [
            np.array([row[j] for row in rows], dtype=cls._dtype(cdef))
            for j, cdef in enumerate(schema)
        ]
        return cls(schema, columns)

    @classmethod
    def from_dict(cls, schema: Schema, data: dict[str, Sequence[float]]) -> "Table":
        """Build a table from a mapping of column name to values."""
        return cls(schema, [np.asarray(data[c.name]) for c in schema])

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """Return an empty table with the given schema."""
        return cls(schema)

    # -- basic accessors ---------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._nrows

    @property
    def num_columns(self) -> int:
        return len(self.schema)

    def __len__(self) -> int:
        return self._nrows

    def column(self, name: str) -> np.ndarray:
        """Return the column array for ``name`` (a view; do not mutate)."""
        return self._columns[self.schema.index_of(name)]

    def columns(self) -> tuple[np.ndarray, ...]:
        return self._columns

    def pending_selection(self) -> "tuple[Table, np.ndarray] | None":
        """``(source, flags)`` while this table is a selection whose rows
        are not copied yet: ``source`` has this table's schema and every
        source row, ``flags`` marks the survivors.  ``None`` once the rows
        are in place."""
        return self._pending

    def rows(self) -> list[tuple]:
        """Materialise the table as a list of Python row tuples."""
        columns = self._columns
        return [tuple(col[i].item() for col in columns) for i in range(self._nrows)]

    def row(self, i: int) -> tuple:
        return tuple(col[i].item() for col in self._columns)

    def to_dict(self) -> dict[str, list]:
        """Return the table as a mapping of column name to Python lists."""
        return {c.name: self.column(c.name).tolist() for c in self.schema}

    def __repr__(self) -> str:
        return f"Table({self.schema!r}, rows={self._nrows})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        # Byte equality: INT 1 is not FLOAT 1.0, -0.0 is not 0.0, NaN is NaN.
        if self.schema.names != other.schema.names or self._nrows != other._nrows:
            return False
        if [c.ctype for c in self.schema] != [c.ctype for c in other.schema]:
            return False
        return all(a.tobytes() == b.tobytes() for a, b in zip(self._columns, other._columns))

    def equals_unordered(self, other: "Table") -> bool:
        """Compare two tables as multisets of rows (row order ignored)."""
        if self.schema.names != other.schema.names:
            return False
        return sorted(self.rows()) == sorted(other.rows())

    # -- relational operators -----------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Table":
        """Return a table with only the named columns, in the given order."""
        pending = self._pending
        if pending is not None:
            source, flags = pending
            return Table._selected(source.project(names), flags, self._nrows)
        idx = self.schema.indices_of(list(names))
        return Table(self.schema.project(list(names)), [self._columns[i] for i in idx])

    def rename(self, mapping: dict[str, str]) -> "Table":
        """Return a table with columns renamed according to ``mapping``."""
        pending = self._pending
        if pending is not None:
            source, flags = pending
            return Table._selected(source.rename(mapping), flags, self._nrows)
        return Table(self.schema.rename(mapping), self._columns)

    def select_rows(self, mask: np.ndarray) -> "Table":
        """Return rows where the boolean ``mask`` is true.

        The result is a pending selection: it copies the rows when a column
        is first read (see the module docstring)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._nrows,):
            raise ValueError(f"a mask of shape {mask.shape} cannot select from {self._nrows} rows")
        source = Table(self.schema, self._columns)
        return Table._selected(source, mask, int(np.count_nonzero(mask)))

    def take(self, indices: np.ndarray) -> "Table":
        """Return the rows at the given positional ``indices``, in order."""
        indices = np.asarray(indices, dtype=np.int64)
        return Table(self.schema, [col[indices] for col in self._columns])

    def filter(self, column: str, op: str, value: float) -> "Table":
        """Filter rows by comparing ``column`` against a scalar.

        ``op`` is one of ``==``, ``!=``, ``<``, ``<=``, ``>``, ``>=``.
        """
        col = self.column(column)
        ops: dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
            "==": np.equal,
            "!=": np.not_equal,
            "<": np.less,
            "<=": np.less_equal,
            ">": np.greater,
            ">=": np.greater_equal,
        }
        if op not in ops:
            raise ValueError(f"unsupported filter op {op!r}")
        return self.select_rows(ops[op](col, value))

    def filter_predicate(self, predicate: Callable[[tuple], bool]) -> "Table":
        """Filter rows using an arbitrary Python predicate over row tuples."""
        mask = np.fromiter(
            (bool(predicate(row)) for row in self.rows()), dtype=bool, count=self._nrows
        )
        return self.select_rows(mask)

    def limit(self, n: int) -> "Table":
        """Return the first ``n`` rows."""
        return Table(self.schema, [col[:n] for col in self._columns])

    def concat(self, *others: "Table") -> "Table":
        """Row-wise concatenation (duplicate-preserving set union)."""
        for other in others:
            if not self.schema.concat_compatible(other.schema):
                raise ValueError(
                    f"cannot concat incompatible schemas {self.schema} and {other.schema}"
                )
        tables = [self, *others]
        cols = [
            np.concatenate([t._columns[j] for t in tables])
            for j in range(len(self._columns))
        ]
        return Table(self.schema, cols)

    def distinct(self, names: Sequence[str] | None = None) -> "Table":
        """Return distinct rows (optionally projecting to ``names`` first)."""
        t = self if names is None else self.project(list(names))
        if t.num_rows == 0:
            return t
        # One record per row, each field in its column's own dtype: an INT
        # beyond 2**53 must not round to its neighbour beside a FLOAT.
        _, idx = np.unique(np.rec.fromarrays(t._columns), return_index=True)
        return t.take(np.sort(idx))

    def sort_by(self, names: Sequence[str], ascending: bool = True) -> "Table":
        """Stable sort by the named columns (last name is least significant)."""
        if self._nrows == 0:
            return self
        keys = [self.column(n) for n in reversed(list(names))]
        order = np.lexsort(keys)
        if not ascending:
            order = order[::-1]
        return self.take(order)

    def join(
        self,
        other: "Table",
        left_on: Sequence[str],
        right_on: Sequence[str],
        suffix: str = "_r",
    ) -> "Table":
        """Inner equi-join.

        The result contains all left columns followed by the right table's
        non-key columns; right columns whose names collide with a left column
        get ``suffix`` appended.
        """
        left_on = list(left_on)
        right_on = list(right_on)
        if len(left_on) != len(right_on):
            raise ValueError("join key lists must have equal length")

        # Build a hash index on the right side keyed by the join columns.  A
        # NaN key equals nothing, so it matches nothing.
        right_keys = [other.column(n) for n in right_on]
        index: dict[tuple, list[int]] = {}
        for i in range(other.num_rows):
            key = tuple(k[i].item() for k in right_keys)
            if all(value == value for value in key):
                index.setdefault(key, []).append(i)

        left_keys = [self.column(n) for n in left_on]
        left_idx: list[int] = []
        right_idx: list[int] = []
        for i in range(self._nrows):
            key = tuple(k[i].item() for k in left_keys)
            for j in index.get(key, ()):
                left_idx.append(i)
                right_idx.append(j)

        left_sel = self.take(np.array(left_idx, dtype=np.int64))
        right_keep = [c.name for c in other.schema if c.name not in right_on]
        right_sel = other.project(right_keep).take(np.array(right_idx, dtype=np.int64))

        # Resolve name collisions on the right side.
        taken = set(left_sel.schema.names)
        mapping = {}
        for name in right_sel.schema.names:
            if name in taken:
                mapping[name] = name + suffix
        right_sel = right_sel.rename(mapping)

        schema = Schema([*left_sel.schema.columns, *right_sel.schema.columns])
        return Table(schema, [*left_sel._columns, *right_sel._columns])

    def aggregate(
        self,
        group_by: Sequence[str],
        agg_col: str | None,
        func: str,
        out_name: str,
    ) -> "Table":
        """Group-by aggregation: the row-at-a-time reference of one output.

        ``func`` is one of :data:`~repro.data.schema.AGG_FUNCS`, and the
        output is typed by :func:`~repro.data.schema.aggregate_schema`.
        With an empty ``group_by`` the whole table is reduced to a single
        row.  ``agg_col`` may be ``None`` for ``count``.
        """
        func = func.lower()
        group_by = list(group_by)
        (out_def,) = aggregate_schema(self.schema, None, [(func, agg_col, out_name)])

        if not group_by:
            value = self._reduce(func, agg_col, np.arange(self._nrows))
            return Table(Schema([out_def]), [np.array([value])])

        key_cols = [self.column(n) for n in group_by]
        groups: dict[tuple, list[int]] = {}
        for i in range(self._nrows):
            key = tuple(k[i].item() for k in key_cols)
            groups.setdefault(key, []).append(i)

        out_schema = Schema([*self.schema.project(group_by).columns, out_def])
        key_rows = []
        values = []
        for key in sorted(groups):
            idx = np.array(groups[key], dtype=np.int64)
            key_rows.append(key)
            values.append(self._reduce(func, agg_col, idx))
        key_arrays = [
            np.array([row[j] for row in key_rows], dtype=Table._dtype(self.schema[name]))
            for j, name in enumerate(group_by)
        ]
        value_array = np.array(values, dtype=Table._dtype(out_def))
        return Table(out_schema, [*key_arrays, value_array])

    def _reduce(self, func: str, agg_col: str | None, idx: np.ndarray | None = None) -> float:
        """``func`` of ``agg_col`` over the rows ``idx`` (``None``: every row)."""
        if func == "count":
            return self._nrows if idx is None else int(len(idx))
        col = self.column(agg_col)
        if idx is not None:
            col = col[idx]
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

    # -- column arithmetic -----------------------------------------------------------------

    def with_column(self, name: str, values: np.ndarray, ctype: ColumnType | None = None) -> "Table":
        """Return a table with a new column appended."""
        values = np.asarray(values)
        if ctype is None:
            ctype = ColumnType.FLOAT if values.dtype.kind == "f" else ColumnType.INT
        cdef = ColumnDef(name, ctype)
        values = values.astype(Table._dtype(cdef))
        return Table(self.schema.with_column(cdef), [*self._columns, values])

    def arithmetic(
        self,
        out_name: str,
        left: str,
        op: str,
        right: str | float,
    ) -> "Table":
        """Append ``out_name = left <op> right`` where right is a column or scalar.

        ``op`` is one of ``+``, ``-``, ``*``, ``/``.
        """
        lcol = self.column(left)
        rval = self.column(right) if isinstance(right, str) else right
        if op == "+":
            result = lcol + rval
        elif op == "-":
            result = lcol - rval
        elif op == "*":
            result = lcol * rval
        elif op == "/":
            result = np.divide(
                lcol.astype(np.float64),
                np.asarray(rval, dtype=np.float64),
                out=np.zeros(len(lcol), dtype=np.float64),
                where=np.asarray(rval, dtype=np.float64) != 0,
            )
        else:
            raise ValueError(f"unsupported arithmetic op {op!r}")
        ctype = ColumnType.FLOAT if np.asarray(result).dtype.kind == "f" else ColumnType.INT
        return self.with_column(out_name, result, ctype)

    def compare(self, out_name: str, left: str, op: str, right: "str | float") -> "Table":
        """Append a 0/1 column ``out_name = left <op> right``.

        ``right`` is a column name or a public scalar; ``op`` is one of
        ``==``, ``!=``, ``<``, ``<=``, ``>``, ``>=``.
        """
        ops: dict[str, Callable] = {
            "==": np.equal,
            "!=": np.not_equal,
            "<": np.less,
            "<=": np.less_equal,
            ">": np.greater,
            ">=": np.greater_equal,
        }
        if op not in ops:
            raise ValueError(f"unsupported comparison op {op!r}")
        lcol = self.column(left)
        rval = self.column(right) if isinstance(right, str) else right
        flags = ops[op](lcol, rval).astype(np.int64)
        return self.with_column(out_name, flags, ColumnType.INT)

    def bool_op(self, out_name: str, op: str, operands: Sequence[str]) -> "Table":
        """Append ``out_name`` combining 0/1 columns with and/or/not."""
        cols = [self.column(name) != 0 for name in operands]
        if op == "and":
            result = np.logical_and.reduce(cols)
        elif op == "or":
            result = np.logical_or.reduce(cols)
        elif op == "not":
            if len(cols) != 1:
                raise ValueError("'not' takes exactly one operand column")
            result = np.logical_not(cols[0])
        else:
            raise ValueError(f"unsupported boolean op {op!r}")
        return self.with_column(out_name, np.asarray(result).astype(np.int64), ColumnType.INT)

    def enumerate_rows(self, out_name: str = "row_id") -> "Table":
        """Append a 0-based row identifier column."""
        return self.with_column(out_name, np.arange(self._nrows, dtype=np.int64), ColumnType.INT)

    def shuffle(self, rng: np.random.Generator | None = None) -> "Table":
        """Return a random row permutation of the table."""
        rng = rng or np.random.default_rng()
        perm = rng.permutation(self._nrows)
        return self.take(perm)
