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

from repro.data.schema import ColumnDef, ColumnType, Schema, aggregate_schema, arithmetic_typing
from repro.data.table import Table
from repro.model import steps
from repro.mpc.oblivious import oblivious_index, oblivious_merge, oblivious_sort
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
        """Secret-share a cleartext table into the MPC (nothing crosses: the
        peers expand their slices, see ``engine.input_vectors``)."""
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
        """A peer party's table, secret-shared into the MPC.

        Only the schema and the row count (public metadata) are known here;
        this engine expands its share slices from the key it shares with
        ``contributor``, which runs :meth:`from_table` in lockstep.  Neither
        the cleartext nor a slice leaves the contributing party.
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
    columns = [SharedVector.concat(parts) for parts in zip(*(t.columns for t in tables))]
    engine.charge(steps.local_meter(sum(t.num_rows for t in tables), len(first.schema)))
    return SharedTable(engine, first.schema, columns)


def mpc_arith(
    table: SharedTable, out_name: str, left: str, op: str, right: "str | float"
) -> SharedTable:
    """Append ``out_name = left <op> right`` (column or public scalar).

    ``op`` picks the protocol: ``+``/``-`` are local on additive shares,
    ``*`` a local scaling by a scalar or a Beaver product of two columns,
    ``/`` a fixed-point division.  Operands and result are typed by
    :func:`~repro.data.schema.arithmetic_typing`.
    """
    left_fixed, right_fixed, out_type = arithmetic_typing(table.schema, left, op, right)
    if op in ("+", "-"):
        result = _add_sub(table, left, op, right, left_fixed, right_fixed, out_type)
    elif op == "*":
        result = _multiply(table, left, right, left_fixed, right_fixed)
    elif op == "/":
        result = _divide(table, left, right)
    else:
        raise ValueError(f"unsupported arithmetic op {op!r}")
    schema = table.schema.with_column(ColumnDef(out_name, out_type))
    return table._replace(schema, [*table.columns, result])


def _add_sub(
    table: SharedTable,
    left: str,
    op: str,
    right: "str | float",
    left_fixed: bool,
    right_fixed: bool,
    out_type: ColumnType,
) -> SharedVector:
    """``left +/- right``: local, no communication; an integer operand of a
    fixed-point sum is aligned to the common scale first."""
    engine = table.engine
    floating = out_type is ColumnType.FLOAT
    lcol = table.column(left)
    if floating and not left_fixed:
        lcol = engine.scale(lcol, FIXED_POINT_SCALE)
    if isinstance(right, str):
        rhs: "SharedVector | int" = table.column(right)
        if floating and not right_fixed:
            rhs = engine.scale(rhs, FIXED_POINT_SCALE)
    else:
        scalar = float(right)
        rhs = int(round(scalar * FIXED_POINT_SCALE)) if floating else int(scalar)
    return engine.add(lcol, rhs) if op == "+" else engine.sub(lcol, rhs)


def _multiply(
    table: SharedTable, left: str, right: "str | float", left_fixed: bool, right_fixed: bool
) -> SharedVector:
    """``left * right``: a scalar scales locally, a column costs a Beaver
    product.  When both operands are fixed point the product is rescaled by
    :data:`FIXED_POINT_SCALE` with a truncation step, as a real
    secret-sharing backend would do after a fixed-point multiplication."""
    engine = table.engine
    lcol = table.column(left)
    if isinstance(right, str):
        result = engine.mul(lcol, table.column(right))
    else:
        result = engine.scale(
            lcol, round(right * FIXED_POINT_SCALE) if right_fixed else int(right)
        )
    if left_fixed and right_fixed:
        result = _truncate_fixed_point(engine, result)
    return result


def _truncate_fixed_point(engine: SecretSharingEngine, vec: SharedVector) -> SharedVector:
    """Rescale a double-width fixed-point product back to single precision.

    Executed as an ideal functionality (env-apply, divide, re-share) with
    the cost of a probabilistic truncation protocol (one multiplication and
    one round per element) charged to the meter.
    """
    truncated = engine.env_apply(lambda values: values // FIXED_POINT_SCALE, [vec])
    engine.charge(steps.truncation_meter(len(vec), engine.num_parties))
    return truncated


def _divide(table: SharedTable, left: str, right: "str | float") -> SharedVector:
    """``left / right`` as a fixed-point division (zero where ``right`` is 0).

    Division under secret sharing is notoriously expensive; the standard
    approach (Goldschmidt iteration) costs tens of multiplications per
    element.  We execute it as an ideal functionality over the reconstructed
    fixed-point values — ``left``, and a divisor column, sent to the last
    compute party in one round — and meter that realistic cost.
    """
    engine = table.engine
    names = [left, right] if isinstance(right, str) else [left]
    fixed = [table.schema[name].ctype is ColumnType.FLOAT for name in names]

    def decoded(values: np.ndarray, is_fixed: bool) -> np.ndarray:
        return values / FIXED_POINT_SCALE if is_fixed else values.astype(np.float64)

    def quotient(lvals: np.ndarray, rvals: "np.ndarray | None" = None) -> np.ndarray:
        lvals = decoded(lvals, fixed[0])
        rvals = np.float64(right) if rvals is None else decoded(rvals, fixed[1])
        result = np.divide(lvals, rvals, out=np.zeros(len(lvals)), where=rvals != 0)
        return np.round(result * FIXED_POINT_SCALE).astype(np.int64)

    result = engine.env_apply(quotient, [table.column(name) for name in names])
    engine.charge(steps.division_meter(table.num_rows, engine.num_parties))
    return result


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
        return engine.sub(engine.fill(1, n), flags)

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
    column_fixed, scalar_fixed, _ = arithmetic_typing(table.schema, column, "-", value)
    if column_fixed:
        return _comparison_flags(engine, col, op, int(round(scalar * FIXED_POINT_SCALE)), n)
    if not scalar_fixed:
        return _comparison_flags(engine, col, op, int(scalar), n)
    floor = int(np.floor(scalar))
    if op in ("==", "!="):
        return engine.fill(int(op == "!="), n)
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
        acc = engine.sub(engine.fill(1, table.num_rows), cols[0])
    else:
        raise ValueError(f"unsupported boolean op {op!r}")
    schema = table.schema.with_column(ColumnDef(out_name, ColumnType.INT))
    return table._replace(schema, [*table.columns, acc])


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
        columns = [col.reversed() for col in columns]
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

    # The flattened Cartesian product's row positions on either side.
    li, ri = engine.cross_pairs(n, m)

    (lkey,) = gather_rows(engine, [left.column(left_on)], li)
    (rkey,) = gather_rows(engine, [right.column(right_on)], ri)
    flags = engine.equals(lkey, rkey)

    schema, columns = join_assembly(left, right, right_on, suffix, li, ri)
    return SharedTable(engine, schema, compact(engine, flags, columns))


def mpc_aggregate(
    table: SharedTable,
    group_by: str | None,
    outputs: Sequence[tuple[str, str | None, str]],
    presorted: bool = False,
    leakage=None,
) -> SharedTable:
    """Sort-based oblivious aggregation (Jónsson et al.).

    The relation is obliviously sorted by the group-by key once, every
    output's value column is accumulated into the last row of its key group
    with an oblivious linear scan, and non-final rows are discarded after
    one oblivious shuffle and flag reveal (:func:`accumulate_groups`).
    ``presorted=True`` skips the sort — this is exactly the saving
    Conclave's sort-elimination pass (§5.4) exploits.  The sort order and
    group boundaries the last compute party hands back are recorded in
    ``leakage`` (a :class:`~repro.hybrid.stp.LeakageReport`, when given).

    With ``group_by=None`` the whole relation reduces to one row, which needs
    only local share additions (sums) — the cheap case in Figure 1a.
    """
    engine = table.engine
    n = table.num_rows
    schema = aggregate_schema(table.schema, group_by, outputs)
    funcs, _, _ = zip(*outputs)

    if group_by is None:
        columns = [_scalar_reduce(table, func, over) for func, over, _ in outputs]
        return SharedTable(engine, schema, columns)

    unsupported = sorted(set(funcs) - {"sum", "count", "min", "max"})
    if unsupported:
        raise ValueError(
            f"oblivious grouped aggregation supports sum/count/min/max, got {unsupported[0]!r}"
        )
    if n == 0:
        return SharedTable.empty(engine, schema)

    key_col = table.column(group_by)
    if n <= 1:
        # One row is its own group: each output is its value, a count 1.
        accs = [
            engine.fill(1, n) if func == "count" else table.column(over)
            for func, over, _ in outputs
        ]
        return SharedTable(engine, schema, compact(engine, engine.fill(1, n), [key_col, *accs]))
    values = grouped_values(table, outputs)
    # The key column goes once, to the last compute party: it hands back
    # the sort order and the adjacent-equality flags, and the segment
    # boundaries are functions of those, each still charged the price of
    # the oblivious protocol it stands for.
    order, same = engine.adjacent_groups(key_col, presorted)
    if order is not None:
        key_col, values = oblivious_sort(engine, key_col, values, order)
    engine.charge(steps.adjacent_equality_meter(n, engine.num_parties))
    handed = "group boundaries" if order is None else "sorted order and group boundaries"
    columns = accumulate_groups(
        engine, key_col, values, funcs, same, leakage, f"aggregate({group_by})",
        f"{handed} of {n} rows, from {engine.party_names[-1]}",
    )
    return SharedTable(engine, schema, columns)


def mpc_distinct(table: SharedTable, names: Sequence[str], leakage=None) -> SharedTable:
    """Distinct values of the named columns, via sort + adjacent comparison:
    a grouped count, whose hand-back goes to ``leakage``."""
    projected = mpc_project(table, names)
    if len(names) != 1:
        raise ValueError("oblivious distinct currently supports a single column")
    counted = mpc_aggregate(projected, names[0], [("count", None, "__count")], leakage=leakage)
    return mpc_project(counted, [names[0]])


def _scalar_reduce(table: SharedTable, func: str, over: str | None) -> SharedVector:
    """One output of a whole-relation aggregation: a count or a sum."""
    engine = table.engine
    if func == "count":
        return engine.fill(table.num_rows, 1)
    if func != "sum":
        raise ValueError(f"unsupported scalar aggregation {func!r}")
    engine.charge(steps.local_meter(table.num_rows))
    return table.column(over).total()


# -- building blocks, shared with the hybrid protocols (repro.hybrid) -----------------------


def compact(
    engine: SecretSharingEngine, flags: SharedVector, columns: Sequence[SharedVector]
) -> list[SharedVector]:
    """The size-revealing tail of every selecting operator.

    Obliviously shuffle the relation together with its secret 0/1 ``flags``,
    open the shuffled flags — one bit each — and keep the flagged rows: which
    input rows survive stays hidden, how many becomes public.

    The flags are reshared over all ``n`` shuffled rows, a payload column
    only at the ``m`` rows that survive: ``col[order][keep]`` is
    ``col[order[keep]]``, so resharing the rows about to be dropped buys
    nothing.  The shuffle is still charged for every column of every row.
    An empty relation is neither shuffled nor opened.
    """
    n = len(flags)
    if n == 0:
        return [col.head(0) for col in columns]
    order = engine.permutation(n)
    shuffled_flags = engine.reshared_take(flags, order)
    engine.charge(steps.shuffle_meter(n, 1 + len(columns), engine.num_parties))
    survivors = order[engine.rows_where(engine.open_flags(shuffled_flags))]
    return [engine.reshared_take(col, survivors) for col in columns]


def grouped_values(
    table: SharedTable, outputs: Sequence[tuple[str, str | None, str]]
) -> list[SharedVector]:
    """The columns a grouped aggregation's outputs read, in order: a
    ``count`` reads none, so nothing of it is sorted, shuffled or
    reordered."""
    return [table.column(over) for func, over, _ in outputs if func != "count"]


def accumulate_groups(
    engine: SecretSharingEngine,
    key_col: SharedVector,
    values: Sequence[SharedVector],
    funcs: Sequence[str],
    same: np.ndarray,
    leakage,
    relation: str,
    handed_back: str,
) -> list[SharedVector]:
    """The tail of every grouped aggregation, over the key-sorted relation.

    ``same`` (``n - 1`` flags: whether each row has the key of the next) was
    handed back to every compute party in the clear; ``handed_back`` says
    what came back with it and from whom, and is recorded in ``leakage`` as
    a ``cleartext_transfer`` of ``relation``.  ``values`` are the sorted
    :func:`grouped_values` of the outputs ``funcs``.  Each output is folded
    into the last row of its key group by an oblivious scan — a segmented
    sum for ``sum`` and for ``count`` (of a public column of ones), a
    segmented running extremum for ``min``/``max`` — and one shuffle and
    flag opening keeps the last rows (:func:`compact`).  Returns
    ``[key, acc_1, …, acc_k]``.
    """
    if leakage is not None:
        leakage.record("cleartext_transfer", relation, detail=handed_back)
    n = len(key_col)
    same_as_next = engine.share_from_env(same)
    values = iter(values)
    accs = [engine.fill(1, n) if func == "count" else next(values) for func in funcs]
    # The sums and counts scan side by side, in one segmented prefix sum.
    sums = [i for i, func in enumerate(funcs) if func in ("sum", "count")]
    for i, acc in zip(sums, engine.segmented_sum([accs[i] for i in sums], same)):
        accs[i] = acc
    # Grouped min/max: segmented running-extremum scans, side by side too,
    # executed ideally over the reconstructed columns (one after another in
    # one vector) with a fresh resharing, and charged the oblivious scans'
    # price (one comparison plus two multiplexes per fold).
    extrema = [i for i, func in enumerate(funcs) if func in ("min", "max")]
    if extrema:
        scans = [_EXTREMUM_SCANS[funcs[i]] for i in extrema]
        scanned = engine.env_apply(
            lambda stacked: np.concatenate([
                _segmented_scan(scan, column, same)
                for scan, column in zip(scans, np.split(stacked, len(scans)))
            ]),
            [SharedVector.concat([accs[i] for i in extrema])],
        )
        engine.charge(steps.segmented_extremum_meter(n, engine.num_parties, len(extrema)))
        for j, i in enumerate(extrema):
            accs[i] = scanned.take(np.arange(j * n, (j + 1) * n))
    return compact(engine, last_of_group(engine, same_as_next), [key_col, *accs])


def last_of_group(engine: SecretSharingEngine, same_as_next: SharedVector) -> SharedVector:
    """Secret keep flags of an accumulation scan (local).

    Row ``i`` is the last of its group iff ``key[i] != key[i+1]``, i.e.
    ``1 - same_as_next[i]``; the final row always is.
    """
    not_same = engine.sub(engine.fill(1, len(same_as_next)), same_as_next)
    return SharedVector.concat([not_same, engine.fill(1, 1)])


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
    engine.charge(steps.local_meter(len(idx), len(columns)))
    return [col.take(idx) for col in columns]


#: The running scan of each grouped extremum.
_EXTREMUM_SCANS = {"min": np.minimum.accumulate, "max": np.maximum.accumulate}


def _segmented_scan(scan, values: np.ndarray, same: np.ndarray) -> np.ndarray:
    """``scan`` (a running min or max) restarted at every key group."""
    result = np.empty(len(values), dtype=np.int64)
    bounds = np.flatnonzero(np.r_[True, ~same])
    for b, e in zip(bounds, np.r_[bounds[1:], len(values)]):
        result[b:e] = scan(values[b:e])
    return result
