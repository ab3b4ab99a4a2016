"""Hybrid aggregation protocol (§5.3).

The standard oblivious aggregation
(:func:`repro.mpc.protocols.mpc_aggregate`) sorts the relation with an
``O(n log^2 n)`` comparison network before its accumulation scan.  When the
group-by column's trust set contains an STP, the sort can be done in the
clear: the parties obliviously shuffle the relation and reveal only the
shuffled group-by column to the STP, which sorts it, computes the
group-boundary (adjacent-equality) flags, and hands the plaintext row
ordering and the flags back to the parties, which share the flags.  The
parties then reorder their shares locally and run *the same* tail as the
oblivious aggregation (:func:`~repro.mpc.protocols.accumulate_groups`:
accumulation scans, keep flags, shuffle-open-compact) without any oblivious
comparisons — only ``O(n)`` multiplications plus two ``O(n log n)``-cost
oblivious shuffles remain, which is the asymptotic
improvement Figure 5b measures.  The scan is one whole-vector segmented
prefix sum, so the number of wire rounds does not depend on ``n``.

Leakage: the STP learns the (shuffled) group-by column; every party learns
the sorted order and group boundaries of the shuffled rows, and the number
of distinct groups (the output cardinality).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.schema import aggregate_schema
from repro.hybrid.stp import LeakageReport, SelectivelyTrustedParty
from repro.model import steps
from repro.mpc.oblivious import oblivious_shuffle
from repro.mpc.protocols import SharedTable, accumulate_groups, gather_rows, grouped_values
from repro.mpc.sharemind import SharemindBackend


def hybrid_aggregate(
    backend: SharemindBackend,
    stp: SelectivelyTrustedParty,
    table: SharedTable,
    group_col: str,
    outputs: Sequence[tuple[str, str | None, str]],
    leakage: LeakageReport | None = None,
) -> SharedTable:
    """Execute the hybrid aggregation of every ``(func, over, out_name)``
    of ``outputs`` and return the secret-shared result."""
    funcs, _, _ = zip(*outputs)
    if not set(funcs) <= {"sum", "count"}:
        raise ValueError(f"hybrid aggregation supports sum/count, got {funcs!r}")
    engine = backend.engine
    leakage = leakage if leakage is not None else LeakageReport()
    n = table.num_rows
    out_schema = aggregate_schema(table.schema, group_col, outputs)

    # Step 1: oblivious shuffle, then reveal the shuffled group-by column to
    # the STP only (or, for an STP outside the MPC, to the environment) —
    # an empty one too, as the hybrid join does.
    key_col, *values = oblivious_shuffle(
        engine, [table.column(group_col), *grouped_values(table, outputs)]
    )
    opened = engine.reveal_to_many([key_col], stp.name)
    leakage.record(
        "column_reveal", f"hybrid_aggregate({group_col})", [group_col], [stp.name],
        detail=f"{n} shuffled group-by values", received=opened is not None,
    )
    if n == 0:
        return SharedTable.empty(engine, out_schema)

    # Steps 2-5 (at the STP, in the clear): enumerate, sort by key, compute
    # the adjacent-equality flags and hand the ordering and the flags back
    # to every party in one round.  Every party then knows the flags, so
    # each draws its slices of their sharing itself, priced as Sharemind's
    # input step.
    grouped = None if opened is None else stp.sort_keys(*opened)
    order, same = engine.hand_back(stp.name, grouped, [(np.int64, n), (bool, n - 1)])
    engine.charge(steps.input_sharing_meter(len(same), engine.num_parties))

    # Step 6: parties reorder the shuffled relation by the public ordering.
    key_col, *values = gather_rows(engine, [key_col, *values], order)

    # Steps 7-8: the oblivious accumulation scans, then shuffle, reveal the
    # keep flags, and discard non-final rows.
    columns = accumulate_groups(
        engine, key_col, values, funcs, same, leakage, f"hybrid_aggregate({group_col})",
        f"sorted order and group boundaries of {n} shuffled rows, from {stp.name}",
    )
    leakage.record(
        "cardinality", f"hybrid_aggregate({group_col})", [], [],
        detail=f"output rows = {len(columns[0])} (visible to all parties)",
    )
    return SharedTable(engine, out_schema, columns)
