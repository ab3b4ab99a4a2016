"""Hybrid join protocol (§5.3, Figure 3).

An MPC join costs ``O(n*m)`` oblivious comparisons; when both key columns
share a selectively-trusted party, the matching can be outsourced: the STP
learns only the obliviously shuffled key columns, joins them in the clear,
and hands back *index relations* that let the parties reconstruct the joined
rows with an oblivious-indexing protocol costing
``O((n+m) log(n+m))`` — the asymptotic improvement Figure 5a measures.

Leakage: the STP learns the two key columns (in shuffled order); every party
learns the join's output cardinality.
"""

from __future__ import annotations

from repro.hybrid.stp import LeakageReport, SelectivelyTrustedParty
from repro.model import steps
from repro.mpc.oblivious import oblivious_shuffle
from repro.mpc.protocols import SharedTable, join_assembly
from repro.mpc.sharemind import SharemindBackend


def hybrid_join(
    backend: SharemindBackend,
    stp: SelectivelyTrustedParty,
    left: SharedTable,
    right: SharedTable,
    left_on: str,
    right_on: str,
    leakage: LeakageReport | None = None,
    suffix: str = "_r",
) -> SharedTable:
    """Execute the hybrid join and return the secret-shared result."""
    engine = backend.engine
    leakage = leakage if leakage is not None else LeakageReport()

    # Step 1: obliviously shuffle both inputs so revealed keys are unlinkable
    # to input positions.
    left = SharedTable(engine, left.schema, oblivious_shuffle(engine, left.columns))
    right = SharedTable(engine, right.schema, oblivious_shuffle(engine, right.columns))

    # Step 2: project the key columns and reveal both to the STP in one round.  The STP's
    # cleartext logic is replicated at every agent, so the reveal widens to
    # all engines — the leakage report records the disclosure either way.
    left_keys, right_keys = engine.reveal_many([left.column(left_on), right.column(right_on)])
    leakage.record(
        "column_reveal", f"hybrid_join({left_on})", [left_on, right_on], [stp.name],
        detail=f"{len(left_keys)}+{len(right_keys)} shuffled key values",
    )

    # Steps 3-5: the STP enumerates the key relations, joins them in the
    # clear, and returns the matching row indices for each side.
    left_indices, right_indices = stp.match_keys(left_keys, right_keys)
    leakage.record(
        "cardinality", f"hybrid_join({left_on})", [], [],
        detail=f"output rows = {len(left_indices)} (visible to all parties)",
    )

    # The STP secret-shares the index relations back into the MPC.  Every
    # (replicated-STP) engine knows the indices, so each draws its slices
    # itself; Sharemind's input step is what the sharing is priced at.
    left_idx_shared = engine.share_from_env(left_indices)
    right_idx_shared = engine.share_from_env(right_indices)
    engine.charge(
        steps.input_sharing_meter(len(left_indices) + len(right_indices), engine.num_parties)
    )

    # Steps 6-7: oblivious indexing (both index vectors opened to the
    # environment together) selects the matching rows on both sides;
    # concatenate them column-wise and reshuffle the result.
    schema, columns = join_assembly(
        left, right, right_on, suffix, left_idx_shared, right_idx_shared
    )
    return SharedTable(engine, schema, oblivious_shuffle(engine, columns))
