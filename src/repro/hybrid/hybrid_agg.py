"""Hybrid aggregation protocol (§5.3).

The standard oblivious aggregation
(:func:`repro.mpc.protocols.mpc_aggregate`) sorts the relation with an
``O(n log^2 n)`` comparison network before its accumulation scan.  When the
group-by column's trust set contains an STP, the sort can be done in the
clear: the parties obliviously shuffle the relation and reveal only the
shuffled group-by column to the STP, which sorts it, computes the
group-boundary (adjacent-equality) flags, and returns the plaintext row
ordering plus secret-shared flags.  The parties then reorder their shares
locally and run *the same* accumulation scan, keep-flag construction and
shuffle-open-compact tail as the oblivious aggregation, without any
oblivious comparisons — only ``O(n)`` multiplications plus two
``O(n log n)``-cost oblivious shuffles remain, which is the asymptotic
improvement Figure 5b measures.  The scan is one whole-vector segmented
prefix sum, so the number of wire rounds does not depend on ``n``.

Leakage: the STP learns the (shuffled) group-by column; every party learns
the number of distinct groups (the output cardinality).
"""

from __future__ import annotations

from repro.hybrid.stp import LeakageReport, SelectivelyTrustedParty
from repro.mpc.oblivious import oblivious_shuffle
from repro.mpc.protocols import (
    SharedTable,
    compact,
    gather_rows,
    grouped_operands,
    last_of_group,
    segmented_sum,
)
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
    value_col, out_schema = grouped_operands(table, group_col, agg_col, func, out_name)
    if n == 0:
        return SharedTable.empty(engine, out_schema)

    # Step 1: oblivious shuffle, then reveal the shuffled group-by column.
    key_col, value_col = oblivious_shuffle(engine, [table.column(group_col), value_col])
    # The STP logic is replicated at every agent, so the reveal widens to
    # all engines — the leakage report records the disclosure either way.
    (revealed_keys,) = engine.reveal_many([key_col])
    leakage.record(
        "column_reveal", f"hybrid_aggregate({group_col})", [group_col], [stp.name],
        detail=f"{n} shuffled group-by values",
    )

    # Steps 2-5 (at the STP, in the clear): enumerate, sort by key, compute
    # the adjacent-equality flags, return the plaintext ordering (public) and
    # secret-share the flags (known to every replicated-STP engine) into MPC.
    order = stp.sort_keys(revealed_keys)
    sorted_keys = revealed_keys[order]
    same = sorted_keys[:-1] == sorted_keys[1:]  # length n-1, row i vs i+1
    same_as_next = engine.input_vector(same, public=True)

    # Step 6: parties reorder the shuffled relation by the public ordering.
    key_col, value_col = gather_rows(engine, [key_col, value_col], order)

    # Step 7: the oblivious accumulation scan; a row is kept iff it is the
    # last of its group.
    acc = segmented_sum(engine, value_col, same)
    keep_flags = last_of_group(engine, same_as_next)

    # Step 8: shuffle, reveal the keep flags, and discard non-final rows.
    columns = compact(engine, keep_flags, [key_col, acc])
    leakage.record(
        "cardinality", f"hybrid_aggregate({group_col})", [], [],
        detail=f"output rows = {len(columns[0])} (visible to all parties)",
    )
    return SharedTable(engine, out_schema, columns)
