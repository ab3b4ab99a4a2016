"""Vectorized kernels for the columnar engine.

Each kernel is a pure function over NumPy arrays; the engine
(:mod:`repro.exec.engine`) owns all schema bookkeeping.  The kernels are
written to be **bit-identical** to the row engine's
:class:`~repro.data.table.Table` methods, because the differential corpus
asserts byte equality between the two paths.  The subtle contracts:

* ``stable_order`` is the one place the engine — and the MPC environment
  and the STP — asks for a stable ascending permutation, and the only
  function here that may call a NumPy sort.
* ``hash_join_indices`` must emit matches in the row engine's order:
  left-major, and for each left row the matching right rows in ascending
  right index.  The stable order of the right keys plus ``searchsorted``
  gives exactly that without any Python-level loop.
* ``group_reduce`` groups *dense* integer keys (no more buckets than rows)
  without ordering anything: ``count`` and the ``sum``/``min``/``max`` of
  integer values scatter each row into its key's bucket.  That is exact because those reducers do not depend on the order
  rows arrive in — wrapping int64 addition is associative and commutative,
  an integer ``min``/``max`` picks an element.  Everything else — float
  values (whose sums round per step, whose extremes tell ``-0.0`` from
  ``0.0`` and propagate NaN) and sparse or float keys — takes the sorted
  path below.
* ``segment_reduce`` must reproduce NumPy's reduction results exactly.
  Integer sums may use ``np.add.reduceat``, but float sums and means must
  reduce each group with the same pairwise-summation call the row engine
  uses (``group.sum()`` / ``group.mean()``) over the group's rows in
  original order — ``reduceat``'s (or a scatter's) sequential accumulation
  can differ in the last ulp.
* ``distinct_indices`` must replicate ``Table.distinct`` including its
  quirk of stacking all columns into one 2-D array first (which upcasts
  everything to float64 when int and float columns mix).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

#: Comparison operators shared by filter/compare kernels.
COMPARE_OPS: dict[str, Callable] = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def compare(lcol: np.ndarray, op: str, rval: np.ndarray | float) -> np.ndarray:
    """0/1 int64 flags for ``lcol <op> rval`` (column or public scalar)."""
    if op not in COMPARE_OPS:
        raise ValueError(f"unsupported comparison op {op!r}")
    return COMPARE_OPS[op](lcol, rval).astype(np.int64)


def filter_flags(col: np.ndarray, op: str, value: float) -> np.ndarray:
    """Boolean row flags for a scalar filter predicate."""
    if op not in COMPARE_OPS:
        raise ValueError(f"unsupported filter op {op!r}")
    return COMPARE_OPS[op](col, value)


def combine_bool(op: str, cols: Sequence[np.ndarray]) -> np.ndarray:
    """Combine 0/1 columns with and/or/not; result is int64 0/1."""
    flags = [col != 0 for col in cols]
    if op == "and":
        result = np.logical_and.reduce(flags)
    elif op == "or":
        result = np.logical_or.reduce(flags)
    elif op == "not":
        if len(flags) != 1:
            raise ValueError("'not' takes exactly one operand column")
        result = np.logical_not(flags[0])
    else:
        raise ValueError(f"unsupported boolean op {op!r}")
    return np.asarray(result).astype(np.int64)


def arithmetic(lcol: np.ndarray, op: str, rval: np.ndarray | float) -> np.ndarray:
    """``lcol <op> rval`` with the row engine's zero-guarded division."""
    if op == "+":
        return lcol + rval
    if op == "-":
        return lcol - rval
    if op == "*":
        return lcol * rval
    if op == "/":
        divisor = np.asarray(rval, dtype=np.float64)
        return np.divide(
            lcol.astype(np.float64),
            divisor,
            out=np.zeros(len(lcol), dtype=np.float64),
            where=divisor != 0,
        )
    raise ValueError(f"unsupported arithmetic op {op!r}")


#: Integer keys spanning fewer values than this sort as 16-bit offsets.
RADIX_SPAN = 2**16


def stable_order(key: np.ndarray) -> np.ndarray:
    """The stable ascending permutation of ``key`` (NaN last).

    Integer keys whose span fits in 16 bits sort as their offsets from the
    minimum, which NumPy's stable sort orders with a radix pass.  A stable
    order is unique, so the result is the one the full-width sort returns.
    """
    if key.dtype.kind in "iu" and len(key):
        lo = key.min()
        # Python ints: keys near both ends of int64 must not wrap the span.
        if int(key.max()) - int(lo) < RADIX_SPAN:
            # The difference may wrap in the key's own width; read as
            # unsigned it is the exact offset.
            offset = (key - lo).view(f"u{key.itemsize}")
            return offset.astype(np.uint16).argsort(kind="stable")
    return key.argsort(kind="stable")


def sort_indices(key: np.ndarray, ascending: bool = True) -> np.ndarray:
    """Stable sort order by a single key.

    Descending order reverses the ascending permutation — including the
    reversed tie order — exactly as ``Table.sort_by`` does.
    """
    order = stable_order(key)
    return order if ascending else order[::-1]


def hash_join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inner equi-join match pairs in the row engine's output order.

    Returns ``(left_idx, right_idx)`` with matches left-major and, per
    left row, right matches in ascending right index.  Implementation:
    stably order the right keys, binary-search each left key's run
    (``searchsorted``), then expand the runs with a cumulative-offset
    trick — no Python loop over rows.  Both key arrays have one dtype: the
    query frontend rejects a join whose key columns differ in type.
    """
    order = stable_order(right_keys)
    sorted_keys = right_keys[order]
    lo = np.searchsorted(sorted_keys, left_keys, side="left")
    hi = np.searchsorted(sorted_keys, left_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(len(left_keys), dtype=np.int64), counts)
    if total == 0:
        return left_idx, np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    within = (
        np.arange(total, dtype=np.int64)
        - np.repeat(starts, counts)
        + np.repeat(lo, counts)
    )
    return left_idx, order[within]


def group_slices(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order-based grouping of a single key column.

    Returns ``(order, starts, ends)``: a stable ascending permutation and
    the half-open ``[starts[g], ends[g])`` slice of each group within the
    sorted domain.  Groups come out in ascending key order with members in
    original row order — identical to the row engine's
    ``sorted(dict-of-first-occurrence)`` grouping.
    """
    n = len(key)
    order = stable_order(key)
    sorted_key = key[order]
    starts = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
    ends = np.r_[starts[1:], n]
    return order, starts, ends


def segment_reduce(
    sorted_values: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    func: str,
) -> np.ndarray:
    """Reduce each ``[start, end)`` segment of ``sorted_values`` with ``func``.

    Uses ``reduceat`` where it is exact (int sums, min/max) and falls back
    to per-group NumPy reductions where bit-identity with the row engine
    demands it (float sums, means) — see the module docstring.
    """
    if func == "count":
        return (ends - starts).astype(np.int64)
    if func == "min":
        return np.minimum.reduceat(sorted_values, starts)
    if func == "max":
        return np.maximum.reduceat(sorted_values, starts)
    if func == "sum" and sorted_values.dtype.kind != "f":
        return np.add.reduceat(sorted_values, starts)
    if func == "sum":
        groups = np.split(sorted_values, starts[1:])
        return np.array([group.sum() for group in groups])
    if func == "mean":
        groups = np.split(sorted_values, starts[1:])
        return np.array([float(group.mean()) for group in groups], dtype=np.float64)
    raise ValueError(f"unsupported aggregation {func!r}")


def group_reduce(
    key: np.ndarray, values: np.ndarray | None, func: str
) -> tuple[np.ndarray, np.ndarray]:
    """Group the non-empty ``key`` column and reduce ``values`` per group.

    Returns ``(group_keys, reduced)`` with the distinct keys ascending, as
    the row engine emits them; ``values`` is ignored for ``count``.  Dense
    integer keys under ``count`` or an integer ``sum``/``min``/``max`` (see
    the module docstring) are scattered into one bucket per key value and
    the occupied buckets kept — no permutation, no gathers.  Anything else
    reduces the slices of the stable order.
    """
    order_free = func == "count" or (
        func in ("sum", "min", "max") and values.dtype.kind != "f"
    )
    if order_free and key.dtype.kind == "i":
        lo = key.min()
        # Python ints: keys near both ends of int64 must not wrap the span.
        buckets = int(key.max()) - int(lo) + 1
        if buckets <= len(key):
            slot = (key - lo).astype(np.intp, copy=False)
            counts = np.bincount(slot, minlength=buckets)
            if func == "count":
                reduced = counts
            elif func == "sum":
                reduced = np.zeros(buckets, dtype=values.dtype)
                np.add.at(reduced, slot, values)
            else:
                # Every bucket starts at the reducer's identity; an occupied
                # bucket never shows it.
                limits = np.iinfo(values.dtype)
                scatter, identity = (
                    (np.minimum, limits.max) if func == "min" else (np.maximum, limits.min)
                )
                reduced = np.full(buckets, identity, dtype=values.dtype)
                scatter.at(reduced, slot, values)
            occupied = np.flatnonzero(counts)
            return occupied.astype(key.dtype) + lo, reduced[occupied]
    order, starts, ends = group_slices(key)
    sorted_values = None if func == "count" else values[order]
    return key[order[starts]], segment_reduce(sorted_values, starts, ends, func)


def distinct_indices(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Indices of the first occurrence of each distinct row, in row order.

    Replicates ``Table.distinct``: stack the columns (mixed dtypes upcast
    to float64, deliberately matching the row path), ``np.unique`` over
    rows, keep first occurrences in original order.
    """
    stacked = np.stack(list(columns), axis=1)
    _, idx = np.unique(stacked, axis=0, return_index=True)
    return np.sort(idx)
