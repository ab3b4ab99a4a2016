"""Hybrid aggregation protocol (§5.3).

The standard oblivious aggregation sorts the relation with an
``O(n log^2 n)`` comparison network before its accumulation scan.  When the
group-by column's trust set contains an STP, the sort can be done in the
clear: the parties obliviously shuffle the relation and reveal only the
shuffled group-by column to the STP, which sorts it, computes the
group-boundary (equality) flags, and returns the plaintext row ordering plus
secret-shared flags.  The parties then reorder their shares locally and run
the accumulation scan without any oblivious comparisons — only ``O(n)``
multiplications plus two ``O(n log n)``-cost oblivious shuffles remain,
which is the asymptotic improvement Figure 5b measures.

Leakage: the STP learns the (shuffled) group-by column; every party learns
the number of distinct groups (the output cardinality).
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.hybrid.stp import LeakageReport, SelectivelyTrustedParty
from repro.mpc.oblivious import oblivious_shuffle
from repro.mpc.protocols import SharedTable
from repro.mpc.secretshare import SharedVector
from repro.mpc.sharemind import SharemindBackend


def hybrid_aggregate(
    backend: SharemindBackend,
    stp: SelectivelyTrustedParty,
    table: SharedTable,
    group_col: str,
    agg_col: str | None,
    func: str,
    out_name: str,
    leakage: LeakageReport | None = None,
) -> SharedTable:
    """Execute the hybrid aggregation and return the secret-shared result."""
    func = func.lower()
    if func not in ("sum", "count"):
        raise ValueError(f"hybrid aggregation supports sum/count, got {func!r}")
    engine = backend.engine
    leakage = leakage if leakage is not None else LeakageReport()
    n = table.num_rows

    if func == "count":
        value_col = engine.constant(np.ones(n, dtype=np.int64))
        out_type = ColumnType.INT
    else:
        value_col = table.column(agg_col)
        out_type = table.schema[agg_col].ctype
    key_col = table.column(group_col)
    out_schema = Schema([table.schema[group_col], ColumnDef(out_name, out_type)])

    if n == 0:
        empty = engine.empty_vector()
        return SharedTable(engine, out_schema, [empty, empty])

    # Step 1: oblivious shuffle, then reveal the shuffled group-by column.
    shuffled = oblivious_shuffle(engine, [key_col, value_col])
    key_col, value_col = shuffled[0], shuffled[1]
    # The STP logic is replicated at every agent, so the reveal widens to
    # all engines — the leakage report records the disclosure either way.
    revealed_keys = engine.reveal_replicated(key_col)
    leakage.record(
        "column_reveal", f"hybrid_aggregate({group_col})", [group_col], [stp.name],
        detail=f"{n} shuffled group-by values",
    )

    # Steps 2-5 (at the STP, in the clear): enumerate, sort by key, compute
    # equality flags, return the plaintext ordering and secret-share the flags.
    order = np.argsort(revealed_keys, kind="stable").astype(np.int64)
    sorted_keys = revealed_keys[order]
    equal_prev = np.zeros(n, dtype=np.int64)
    if n > 1:
        equal_prev[1:] = (sorted_keys[1:] == sorted_keys[:-1]).astype(np.int64)
    stp.engine.charge_external_sort(n)

    # The plaintext ordering is public; the flags (known to every
    # replicated-STP engine) are secret-shared back into MPC.
    flags = engine.input_vector(
        equal_prev, contributor=engine.party_names[0], public=True
    )

    # Step 6: parties reorder the shuffled relation by the public ordering.
    key_sorted = SharedVector(engine, [s[order] for s in key_col.shares])
    value_sorted = SharedVector(engine, [s[order] for s in value_col.shares])
    engine.meter.local_ops += 2 * n

    # Step 7: oblivious accumulation scan.  acc[i] += equal_prev[i] * acc[i-1].
    acc = SharedVector(engine, [s.copy() for s in value_sorted.shares])
    for i in range(1, n):
        flag_i = SharedVector(engine, [s[i : i + 1] for s in flags.shares])
        prev = SharedVector(engine, [s[i - 1 : i] for s in acc.shares])
        cur = SharedVector(engine, [s[i : i + 1] for s in acc.shares])
        new_val = engine.add(cur, engine.mul(flag_i, prev))
        for p in range(engine.num_local_shares):
            acc.shares[p][i] = new_val.shares[p][0]

    # A row is the last of its group iff the next row starts a new group.
    keep = np.ones(n, dtype=np.int64)
    keep[: n - 1] = 1 - equal_prev[1:]
    keep_flags = engine.input_vector(keep, contributor=engine.party_names[0], public=True)

    # Step 8: shuffle, reveal the keep flags, and discard non-final rows.
    shuffled_out = oblivious_shuffle(engine, [keep_flags, key_sorted, acc])
    flag_values = engine.open(shuffled_out[0])
    keep_idx = np.nonzero(flag_values)[0]
    leakage.record(
        "cardinality", f"hybrid_aggregate({group_col})", [], [],
        detail=f"output rows = {len(keep_idx)} (visible to all parties)",
    )
    key_out = SharedVector(engine, [s[keep_idx] for s in shuffled_out[1].shares])
    val_out = SharedVector(engine, [s[keep_idx] for s in shuffled_out[2].shares])
    return SharedTable(engine, out_schema, [key_out, val_out])
