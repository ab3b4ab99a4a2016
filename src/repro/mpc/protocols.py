"""Oblivious relational operators over secret-shared tables.

The paper implements "the same standard MPC algorithms for joins (a
Cartesian product approach) and aggregations [Jónsson et al.]" in both
Sharemind and Obliv-C (§6).  This module provides those algorithms — plus
project, filter, concat, distinct, sort and arithmetic — over a
:class:`SharedTable`, which wraps one :class:`SharedVector` per column
together with the cleartext :class:`~repro.data.schema.Schema`.

All operators are *functional*: results reconstruct to the same rows a
cleartext engine would produce (up to row order, which MPC deliberately
randomises), and every oblivious operation is charged to the engine's cost
meter — ``engine.charge`` with the step's :mod:`repro.model.steps` meter —
so the backend reports realistic simulated runtimes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table
from repro.model import steps
from repro.mpc.oblivious import (
    oblivious_index,
    oblivious_merge,
    oblivious_shuffle,
    oblivious_sort,
)
from repro.mpc.secretshare import SecretSharingEngine, SharedVector

#: Fixed-point scaling factor used to carry fractional values (divisions)
#: through the integer secret-sharing ring.
FIXED_POINT_SCALE = 1_000_000


class SharedTable:
    """A secret-shared relation: a schema plus one shared column per field."""

    def __init__(self, engine: SecretSharingEngine, schema: Schema, columns: Sequence[SharedVector]):
        if len(schema) != len(columns):
            raise ValueError("schema width does not match number of shared columns")
        n = len(columns[0]) if columns else 0
        for col in columns:
            if len(col) != n:
                raise ValueError("all shared columns must have the same length")
        self.engine = engine
        self.schema = schema
        self.columns = list(columns)

    # -- lifecycle ----------------------------------------------------------------------

    @classmethod
    def from_table(
        cls, engine: SecretSharingEngine, table: Table, contributor: str | None = None
    ) -> "SharedTable":
        """Secret-share a cleartext table into the MPC (one input round)."""
        values = [
            np.round(table.column(cdef.name) * FIXED_POINT_SCALE).astype(np.int64)
            if cdef.ctype is ColumnType.FLOAT
            else table.column(cdef.name)
            for cdef in table.schema
        ]
        return cls(engine, table.schema, engine.input_vectors(values, contributor))

    @classmethod
    def from_metadata(
        cls, engine: SecretSharingEngine, schema: Schema, num_rows: int, contributor: str
    ) -> "SharedTable":
        """Receive a peer party's secret-shared table.

        Only the schema and the row count (public metadata) are known here;
        this engine's share slices arrive over the wire from ``contributor``,
        which runs :meth:`from_table` in lockstep.  The cleartext never
        leaves the contributing party.
        """
        columns = engine.input_vectors(None, contributor, [num_rows] * len(schema))
        return cls(engine, schema, columns)

    @classmethod
    def empty(cls, engine: SecretSharingEngine, schema: Schema) -> "SharedTable":
        """A shared relation of ``schema`` with no rows."""
        return cls(engine, schema, [engine.empty_vector() for _ in schema])

    def reveal(self) -> Table:
        """Open the whole relation to all parties as a cleartext table (one round)."""
        return self._decoded(self.engine.open_many(self.columns))

    def reveal_to(self, party: str) -> Table | None:
        """Open the whole relation to a single party (one round).

        Engines that do not hold the target party's slice ship their shares
        and get ``None`` back — only the target materialises the cleartext.
        """
        opened = self.engine.reveal_to_many(self.columns, party)
        return None if opened is None else self._decoded(opened)

    def _decoded(self, opened: Sequence[np.ndarray]) -> Table:
        """Opened ring values as a table: fixed-point columns back to floats."""
        arrays = [
            values.astype(np.float64) / FIXED_POINT_SCALE
            if cdef.ctype is ColumnType.FLOAT
            else values
            for cdef, values in zip(self.schema, opened)
        ]
        return Table(self.schema, arrays)

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column(self, name: str) -> SharedVector:
        return self.columns[self.schema.index_of(name)]

    def _replace(self, schema: Schema, columns: Sequence[SharedVector]) -> "SharedTable":
        return SharedTable(self.engine, schema, list(columns))


# -- relational operators ----------------------------------------------------------------


def mpc_project(table: SharedTable, names: Sequence[str]) -> SharedTable:
    """Projection: drop / reorder columns.  Requires no oblivious operations."""
    names = list(names)
    idx = table.schema.indices_of(names)
    table.engine.charge(steps.local_meter(table.num_rows, len(names)))
    return table._replace(table.schema.project(names), [table.columns[i] for i in idx])


def mpc_concat(tables: Sequence[SharedTable]) -> SharedTable:
    """Duplicate-preserving union of shared relations with identical schemas."""
    if not tables:
        raise ValueError("need at least one relation to concatenate")
    first = tables[0]
    for t in tables[1:]:
        if not first.schema.concat_compatible(t.schema):
            raise ValueError("cannot concat shared relations with different schemas")
        if t.engine is not first.engine:
            raise ValueError("cannot concat relations from different MPC engines")
    engine = first.engine
    columns = []
    for c in range(len(first.schema)):
        shares = [
            np.concatenate([t.columns[c].shares[p] for t in tables])
            for p in range(engine.num_local_shares)
        ]
        columns.append(SharedVector(engine, shares))
    engine.charge(steps.local_meter(sum(t.num_rows for t in tables), len(first.schema)))
    return SharedTable(engine, first.schema, columns)


def _fixed_point(schema: Schema, operand: "str | float") -> bool:
    """Whether an operand — a column name or a public scalar — is carried in
    fixed point: a FLOAT column, a fractional scalar."""
    if isinstance(operand, str):
        return schema[operand].ctype is ColumnType.FLOAT
    return not float(operand).is_integer()


def mpc_multiply(
    table: SharedTable, out_name: str, left: str, right: "str | float"
) -> SharedTable:
    """Append ``out_name = left * right`` (column or public scalar).

    A FLOAT column or a fractional scalar is a fixed-point operand, so the
    product is FLOAT as soon as either operand is.  When both are, it is
    rescaled by :data:`FIXED_POINT_SCALE` with a truncation step, as a real
    secret-sharing backend would do after a fixed-point multiplication.
    """
    engine = table.engine
    lcol = table.column(left)
    left_fixed = _fixed_point(table.schema, left)
    right_fixed = _fixed_point(table.schema, right)
    if isinstance(right, str):
        result = engine.mul(lcol, table.column(right))
    else:
        result = engine.scale(
            lcol, round(right * FIXED_POINT_SCALE) if right_fixed else int(right)
        )
    if left_fixed and right_fixed:
        result = _truncate_fixed_point(engine, result)
    out_type = ColumnType.FLOAT if left_fixed or right_fixed else ColumnType.INT
    schema = table.schema.with_column(ColumnDef(out_name, out_type))
    return table._replace(schema, [*table.columns, result])


def _truncate_fixed_point(engine: SecretSharingEngine, vec: SharedVector) -> SharedVector:
    """Rescale a double-width fixed-point product back to single precision.

    Executed as an ideal functionality (env-open, divide, re-share) with
    the cost of a probabilistic truncation protocol (one multiplication and
    one round per element) charged to the meter.
    """
    truncated = engine.env_open(vec) // FIXED_POINT_SCALE
    engine.charge(steps.truncation_meter(len(vec), engine.num_parties))
    return engine.share_from_env(truncated)


def mpc_divide(table: SharedTable, out_name: str, left: str, right: str) -> SharedTable:
    """Append ``out_name = left / right`` as a fixed-point division.

    Division under secret sharing is notoriously expensive; the standard
    approach (Goldschmidt iteration) costs tens of multiplications per
    element.  We execute it as an ideal functionality over the reconstructed
    fixed-point values and meter that realistic cost.
    """
    engine = table.engine
    n = table.num_rows
    lvals, rvals = _decode_columns(table, [left, right])
    result = np.divide(
        lvals,
        rvals,
        out=np.zeros(n, dtype=np.float64),
        where=rvals != 0,
    )
    encoded = np.round(result * FIXED_POINT_SCALE).astype(np.int64)
    engine.charge(steps.division_meter(n, engine.num_parties))
    out_col = engine.share_from_env(encoded)
    schema = table.schema.with_column(ColumnDef(out_name, ColumnType.FLOAT))
    return table._replace(schema, [*table.columns, out_col])


def _comparison_flags(
    engine: SecretSharingEngine,
    col: SharedVector,
    op: str,
    rhs: "SharedVector | int",
    n: int,
) -> SharedVector:
    """Secret 0/1 flags for ``col <op> rhs`` (shared vector or public scalar).

    Every operator costs exactly one secret comparison: for an integer
    scalar ``v``, ``x <= v`` is ``x < v+1``; for a shared vector ``y``,
    ``x > y`` is ``y < x``.  Negations are a local share subtraction.
    """
    def negated(flags: SharedVector) -> SharedVector:
        return engine.sub(engine.constant(np.ones(n, dtype=np.int64)), flags)

    if op == "==":
        return engine.equals(col, rhs)
    if op == "!=":
        return negated(engine.equals(col, rhs))
    if op == "<":
        return engine.less_than(col, rhs)
    if op == ">":
        if isinstance(rhs, SharedVector):
            return engine.less_than(rhs, col)
        return negated(engine.less_than(col, int(rhs) + 1))
    if op == "<=":
        if isinstance(rhs, SharedVector):
            return negated(engine.less_than(rhs, col))
        return engine.less_than(col, int(rhs) + 1)
    if op == ">=":
        return negated(engine.less_than(col, rhs))
    raise ValueError(f"unsupported comparison op {op!r}")


def _comparison_operands(
    table: SharedTable, left: str, right: str
) -> "tuple[SharedVector, SharedVector]":
    """Align the fixed-point scales of a column-vs-column comparison."""
    engine = table.engine
    lcol = table.column(left)
    rcol = table.column(right)
    left_float = table.schema[left].ctype is ColumnType.FLOAT
    right_float = table.schema[right].ctype is ColumnType.FLOAT
    if left_float and not right_float:
        rcol = engine.scale(rcol, FIXED_POINT_SCALE)
    elif right_float and not left_float:
        lcol = engine.scale(lcol, FIXED_POINT_SCALE)
    return lcol, rcol


def _scalar_comparison_flags(
    table: SharedTable, column: str, op: str, value: float
) -> SharedVector:
    """Secret 0/1 flags for ``column <op> public scalar``.

    Fixed-point (FLOAT) columns compare against the scaled constant; for
    integer columns a fractional constant is rewritten into the exact
    equivalent integer comparison (``x < 2.5`` → ``x <= 2``; ``x == 2.5`` is
    constant false), so the cleartext and MPC backends agree bit-for-bit.
    """
    engine = table.engine
    col = table.column(column)
    n = table.num_rows
    scalar = float(value)
    if table.schema[column].ctype is ColumnType.FLOAT:
        return _comparison_flags(engine, col, op, int(round(scalar * FIXED_POINT_SCALE)), n)
    if scalar.is_integer():
        return _comparison_flags(engine, col, op, int(scalar), n)
    floor = int(np.floor(scalar))
    if op == "==":
        return engine.constant(np.zeros(n, dtype=np.int64))
    if op == "!=":
        return engine.constant(np.ones(n, dtype=np.int64))
    if op in ("<", "<="):
        return _comparison_flags(engine, col, "<=", floor, n)
    if op in (">", ">="):
        return _comparison_flags(engine, col, ">=", floor + 1, n)
    raise ValueError(f"unsupported comparison op {op!r}")


def mpc_compare(
    table: SharedTable, out_name: str, left: str, op: str, right: "str | float"
) -> SharedTable:
    """Append a secret 0/1 column ``out_name = left <op> right``.

    ``right`` is a column name or a public scalar.  The flags stay
    secret-shared — nothing is revealed; compound predicates combine them
    with :func:`mpc_bool_op` before a single size-revealing filter step.
    """
    if isinstance(right, str):
        lcol, rcol = _comparison_operands(table, left, right)
        flags = _comparison_flags(table.engine, lcol, op, rcol, table.num_rows)
    else:
        flags = _scalar_comparison_flags(table, left, op, right)
    schema = table.schema.with_column(ColumnDef(out_name, ColumnType.INT))
    return table._replace(schema, [*table.columns, flags])


def mpc_bool_op(
    table: SharedTable, out_name: str, op: str, operands: Sequence[str]
) -> SharedTable:
    """Append ``out_name`` combining secret 0/1 columns with and/or/not."""
    engine = table.engine
    cols = [table.column(name) for name in operands]
    if op == "and":
        acc = cols[0]
        for other in cols[1:]:
            acc = engine.mul(acc, other)
    elif op == "or":
        acc = cols[0]
        for other in cols[1:]:
            # a OR b == a + b - a*b over 0/1 values.
            acc = engine.sub(engine.add(acc, other), engine.mul(acc, other))
    elif op == "not":
        if len(cols) != 1:
            raise ValueError("'not' takes exactly one operand column")
        ones = engine.constant(np.ones(table.num_rows, dtype=np.int64))
        acc = engine.sub(ones, cols[0])
    else:
        raise ValueError(f"unsupported boolean op {op!r}")
    schema = table.schema.with_column(ColumnDef(out_name, ColumnType.INT))
    return table._replace(schema, [*table.columns, acc])


def mpc_map(
    table: SharedTable, out_name: str, left: str, op: str, right: "str | float"
) -> SharedTable:
    """Append ``out_name = left <op> right`` for ``op`` in ``+``/``-``.

    Additive operations are local on additive shares — no communication.
    Fixed-point (FLOAT) operands are aligned to a common scale first.
    """
    if op not in ("+", "-"):
        raise ValueError(f"mpc_map supports '+' and '-', got {op!r}")
    engine = table.engine
    left_float = _fixed_point(table.schema, left)
    right_float = _fixed_point(table.schema, right)
    out_type = ColumnType.FLOAT if (left_float or right_float) else ColumnType.INT
    lcol = table.column(left)
    if out_type is ColumnType.FLOAT and not left_float:
        lcol = engine.scale(lcol, FIXED_POINT_SCALE)
    if isinstance(right, str):
        rhs: "SharedVector | int" = table.column(right)
        if out_type is ColumnType.FLOAT and not right_float:
            rhs = engine.scale(rhs, FIXED_POINT_SCALE)
    else:
        scalar = float(right)
        rhs = int(round(scalar * FIXED_POINT_SCALE)) if out_type is ColumnType.FLOAT else int(scalar)
    result = engine.add(lcol, rhs) if op == "+" else engine.sub(lcol, rhs)
    schema = table.schema.with_column(ColumnDef(out_name, out_type))
    return table._replace(schema, [*table.columns, result])


def mpc_filter(table: SharedTable, column: str, op: str, value: int) -> SharedTable:
    """Oblivious filter against a public constant.

    The filter produces secret 0/1 flags, obliviously shuffles the relation,
    reveals the flags and discards non-matching rows — the standard
    size-revealing filter used by the paper's baselines.
    """
    flags = _scalar_comparison_flags(table, column, op, value)
    return table._replace(table.schema, compact(table.engine, flags, table.columns))


def mpc_sort(table: SharedTable, key: str, ascending: bool = True) -> SharedTable:
    """Obliviously sort the relation by ``key`` with a bitonic network.

    A descending sort runs the same ascending network and then reverses the
    rows — the reversal is a public permutation, so it is free.
    """
    engine = table.engine
    key_idx = table.schema.index_of(key)
    payload = [c for i, c in enumerate(table.columns) if i != key_idx]
    sorted_key, sorted_payload = oblivious_sort(engine, table.columns[key_idx], payload)
    columns = list(sorted_payload)
    columns.insert(key_idx, sorted_key)
    if not ascending:
        columns = [
            SharedVector(engine, [share[::-1].copy() for share in col.shares])
            for col in columns
        ]
    return table._replace(table.schema, columns)


def mpc_merge_sorted(
    tables: Sequence[SharedTable], key: str, ascending: bool = True
) -> SharedTable:
    """Obliviously merge relations that are each sorted by ``key``.

    Uses the bitonic merge of :func:`repro.mpc.oblivious.oblivious_merge`,
    which costs O(n log n) comparisons instead of the O(n log^2 n) a full
    re-sort of the concatenation would need.
    """
    if not tables:
        raise ValueError("need at least one relation to merge")
    first = tables[0]
    engine = first.engine
    for t in tables[1:]:
        if t.engine is not engine:
            raise ValueError("cannot merge relations from different MPC engines")
        if not first.schema.concat_compatible(t.schema):
            raise ValueError("cannot merge relations with different schemas")

    key_idx = first.schema.index_of(key)
    runs = []
    for t in tables:
        payload = [c for i, c in enumerate(t.columns) if i != key_idx]
        runs.append((t.columns[key_idx], payload))
    merged_key, merged_payload = oblivious_merge(engine, runs, ascending)
    columns = list(merged_payload)
    columns.insert(key_idx, merged_key)
    return SharedTable(engine, first.schema, columns)


def mpc_join(
    left: SharedTable,
    right: SharedTable,
    left_on: str,
    right_on: str,
    suffix: str = "_r",
) -> SharedTable:
    """Standard MPC join: Cartesian product of the two relations.

    Every pair of rows is compared obliviously (``O(n*m)`` equality tests);
    matching pairs are selected by obliviously shuffling the product and
    revealing the match flags — the output size is therefore public, which
    matches the baseline the paper benchmarks against (§7.3).
    """
    engine = left.engine
    if right.engine is not engine:
        raise ValueError("cannot join relations from different MPC engines")
    n, m = left.num_rows, right.num_rows

    # Build the flattened Cartesian product index vectors.
    li = np.repeat(np.arange(n, dtype=np.int64), m)
    ri = np.tile(np.arange(m, dtype=np.int64), n)

    lkey = _gather_vector(engine, left.column(left_on), li)
    rkey = _gather_vector(engine, right.column(right_on), ri)
    flags = engine.equals(lkey, rkey)

    schema, columns = join_assembly(left, right, right_on, suffix, li, ri)
    return SharedTable(engine, schema, compact(engine, flags, columns))


def mpc_aggregate(
    table: SharedTable,
    group_by: str | None,
    agg_col: str | None,
    func: str,
    out_name: str,
    presorted: bool = False,
) -> SharedTable:
    """Sort-based oblivious aggregation (Jónsson et al.).

    The relation is obliviously sorted by the group-by key, the aggregate is
    accumulated into the last row of every key group with an oblivious linear
    scan, and non-final rows are discarded after an oblivious shuffle and a
    flag reveal.  ``presorted=True`` skips the sort — this is exactly the
    saving Conclave's sort-elimination pass (§5.4) exploits.

    With ``group_by=None`` the whole relation reduces to one row, which needs
    only local share additions (sums) — the cheap case in Figure 1a.
    """
    func = func.lower()
    engine = table.engine
    n = table.num_rows

    if group_by is None:
        return _mpc_scalar_aggregate(table, agg_col, func, out_name)

    if func not in ("sum", "count", "min", "max"):
        raise ValueError(
            f"oblivious grouped aggregation supports sum/count/min/max, got {func!r}"
        )
    value_col, schema = grouped_operands(table, group_by, agg_col, func, out_name)
    if n == 0:
        return SharedTable.empty(engine, schema)

    # Oblivious accumulation scan: fold each row's value into the next row of
    # the same key group; a row is "last of its group" if the next key differs.
    key_col = table.column(group_by)
    keep_flags = engine.constant(np.ones(n, dtype=np.int64))
    acc = value_col
    if n > 1:
        # The one opening of the key column to the environment: the sort
        # order, the adjacent-equality flags and the segment boundaries are
        # all functions of it, each still charged the price of the oblivious
        # protocol it stands for.
        keys = engine.env_open(key_col)
        if not presorted:
            order = np.argsort(keys, kind="stable")
            key_col, (value_col,) = oblivious_sort(engine, key_col, [value_col], order)
            keys = keys[order]
        same = keys[:-1] == keys[1:]  # length n-1, row i vs i+1
        engine.charge(steps.adjacent_equality_meter(n, engine.num_parties))
        same_as_next = engine.share_from_env(same)

        if func in ("sum", "count"):
            acc = segmented_sum(engine, value_col, same)
        else:
            # Grouped min/max: a segmented running-extremum scan, executed
            # ideally over reconstructed values with a fresh resharing, and
            # charged the oblivious scan's price (one comparison plus two
            # multiplexes per fold).
            values = engine.env_open(value_col)
            scan = np.minimum.accumulate if func == "min" else np.maximum.accumulate
            result = np.empty(n, dtype=np.int64)
            bounds = np.flatnonzero(np.r_[True, ~same])
            for b, e in zip(bounds, np.r_[bounds[1:], n]):
                result[b:e] = scan(values[b:e])
            acc = engine.share_from_env(result)
            engine.charge(steps.segmented_extremum_meter(n, engine.num_parties))
        keep_flags = last_of_group(engine, same_as_next)

    return SharedTable(engine, schema, compact(engine, keep_flags, [key_col, acc]))


def mpc_distinct(table: SharedTable, names: Sequence[str]) -> SharedTable:
    """Distinct values of the named columns, via sort + adjacent comparison."""
    projected = mpc_project(table, names)
    if len(names) != 1:
        raise ValueError("oblivious distinct currently supports a single column")
    counted = mpc_aggregate(projected, names[0], None, "count", "__count")
    return mpc_project(counted, [names[0]])


def _mpc_scalar_aggregate(
    table: SharedTable, agg_col: str | None, func: str, out_name: str
) -> SharedTable:
    """Aggregate the whole relation to a single row (no group-by)."""
    engine = table.engine
    n = table.num_rows
    if func == "count":
        result = engine.constant(np.array([n], dtype=np.int64))
        out_type = ColumnType.INT
    elif func == "sum":
        col = table.column(agg_col)
        total_shares = [
            np.array([share.sum(dtype=np.uint64)], dtype=np.uint64) for share in col.shares
        ]
        result = SharedVector(engine, total_shares)
        engine.charge(steps.local_meter(n))
        out_type = table.schema[agg_col].ctype
    else:
        raise ValueError(f"unsupported scalar aggregation {func!r}")
    schema = Schema([ColumnDef(out_name, out_type)])
    return SharedTable(engine, schema, [result])


# -- building blocks, shared with the hybrid protocols (repro.hybrid) -----------------------


def compact(
    engine: SecretSharingEngine, flags: SharedVector, columns: Sequence[SharedVector]
) -> list[SharedVector]:
    """The size-revealing tail of every selecting operator.

    Obliviously shuffle the relation together with its secret 0/1 ``flags``,
    open the shuffled flags — one bit each — and keep the flagged rows: which
    input rows survive stays hidden, how many becomes public.
    """
    shuffled = oblivious_shuffle(engine, [flags, *columns])
    keep = np.flatnonzero(engine.open_flags(shuffled[0]))
    return [
        SharedVector(engine, [share[keep] for share in col.shares]) for col in shuffled[1:]
    ]


def grouped_operands(
    table: SharedTable, group_by: str, agg_col: str | None, func: str, out_name: str
) -> tuple[SharedVector, Schema]:
    """Value column and output schema of a grouped aggregation.

    A ``count`` is the sum of a public column of ones.
    """
    if func == "count":
        value_col = table.engine.constant(np.ones(table.num_rows, dtype=np.int64))
        out_type = ColumnType.INT
    else:
        value_col = table.column(agg_col)
        out_type = table.schema[agg_col].ctype
    return value_col, Schema([table.schema[group_by], ColumnDef(out_name, out_type)])


def segmented_sum(
    engine: SecretSharingEngine, values: SharedVector, same: np.ndarray
) -> SharedVector:
    """The oblivious accumulation scan of a grouped sum.

    ``same[i]`` tells whether rows ``i`` and ``i+1`` of the key-sorted
    relation share a key (known to the protocol environment, or to the STP
    that sorted the keys in the clear); the last row of every key group ends
    up holding the group's sum.  The real protocol is a logarithmic-depth
    segmented prefix scan over whole share vectors — one oblivious fold per
    row charged analytically, no per-row message exchange, so wire rounds
    stay independent of the relation size.  A segmented cumulative sum
    distributes over additive shares: the per-party segmented prefix sums
    (mod 2^64) reconstruct to the true segmented running totals.
    """
    n = len(values)
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.logical_not(same, out=starts[1:])
    start_idx = np.maximum.accumulate(np.where(starts, np.arange(n), 0))
    nz = start_idx > 0
    base_idx = start_idx[nz] - 1
    acc_shares = engine.zero_sharing(n)
    for fresh, share in zip(acc_shares, values.shares):
        running = np.cumsum(share, dtype=np.uint64)
        fresh += running
        fresh[nz] -= running[base_idx]
    engine.charge(steps.segmented_sum_meter(n, engine.num_parties))
    return SharedVector(engine, acc_shares)


def last_of_group(engine: SecretSharingEngine, same_as_next: SharedVector) -> SharedVector:
    """Secret keep flags of an accumulation scan (local).

    Row ``i`` is the last of its group iff ``key[i] != key[i+1]``, i.e.
    ``1 - same_as_next[i]``; the final row always is.
    """
    n = len(same_as_next) + 1
    keep = engine.constant(np.ones(n, dtype=np.int64))
    for flags, same in zip(keep.shares, same_as_next.shares):
        flags[: n - 1] -= same
    engine.charge(steps.local_meter(n - 1))
    return keep


def join_assembly(
    left: SharedTable,
    right: SharedTable,
    right_on: str,
    suffix: str,
    left_rows: "np.ndarray | SharedVector",
    right_rows: "np.ndarray | SharedVector",
) -> tuple[Schema, list[SharedVector]]:
    """Output schema and columns of every join variant.

    All left columns, then the right columns except the join key, renamed
    with ``suffix`` where a left column has the name already.  Each side's
    matching rows are picked by :func:`gather_rows` when the row indices are
    public, and by :func:`~repro.mpc.oblivious.oblivious_index` when they are
    secret — the index vectors of the sides that contribute columns then
    reach the environment in one round.
    """
    engine = left.engine
    out_defs: list[ColumnDef] = list(left.schema.columns)
    taken = {c.name for c in out_defs}
    right_cols = []
    for cdef, col in zip(right.schema, right.columns):
        if cdef.name == right_on:
            continue
        name = cdef.name + suffix if cdef.name in taken else cdef.name
        out_defs.append(ColumnDef(name, cdef.ctype, cdef.trust))
        right_cols.append(col)
    sides = [s for s in ((left.columns, left_rows), (right_cols, right_rows)) if s[0]]
    rows, select = [r for _, r in sides], gather_rows
    if isinstance(left_rows, SharedVector):
        rows, select = engine.env_open_many(rows), oblivious_index
    columns = [col for (cols, _), idx in zip(sides, rows) for col in select(engine, cols, idx)]
    return Schema(out_defs), columns


def gather_rows(
    engine: SecretSharingEngine, columns: Sequence[SharedVector], idx: np.ndarray
) -> list[SharedVector]:
    """Rows ``idx`` (public positions) of every column: a local share gather."""
    return [_gather_vector(engine, col, idx) for col in columns]


def _gather_vector(engine: SecretSharingEngine, vec: SharedVector, idx: np.ndarray) -> SharedVector:
    engine.charge(steps.local_meter(len(idx)))
    return SharedVector(engine, [share[idx] for share in vec.shares])


def _decode_columns(table: SharedTable, names: Sequence[str]) -> list[np.ndarray]:
    """Env-open columns to float in one round, honouring the fixed-point encoding."""
    opened = table.engine.env_open_many([table.column(name) for name in names])
    return [
        values / FIXED_POINT_SCALE
        if table.schema[name].ctype is ColumnType.FLOAT
        else values.astype(np.float64)
        for name, values in zip(names, opened)
    ]
