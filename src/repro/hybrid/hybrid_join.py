"""Hybrid join protocol (§5.3, Figure 3).

An MPC join costs ``O(n*m)`` oblivious comparisons; when both key columns
share a selectively-trusted party, the matching can be outsourced: the STP
learns only the obliviously shuffled key columns, joins them in the clear,
hands back the number of matches and inputs *index relations* that let the
parties reconstruct the joined rows with an oblivious-indexing protocol
costing ``O((n+m) log(n+m))`` — the asymptotic improvement Figure 5a
measures.

Leakage: the STP learns the two key columns (in shuffled order); every party
learns the join's output cardinality.
"""

from __future__ import annotations

import numpy as np

from repro.hybrid.stp import LeakageReport, SelectivelyTrustedParty
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

    # Step 2: reveal both key columns to the STP only, in one round.  The
    # STP's logic runs where the keys arrive: at its own engine, or at every
    # engine when the STP is outside the MPC and the keys open to the
    # environment.
    opened = engine.reveal_to_many([left.column(left_on), right.column(right_on)], stp.name)
    leakage.record(
        "column_reveal", f"hybrid_join({left_on})", [left_on, right_on], [stp.name],
        detail=f"{left.num_rows}+{right.num_rows} shuffled key values",
        received=opened is not None,
    )

    # Steps 3-5: the STP enumerates the key relations, joins them in the
    # clear, and hands back the number of matches; the matching row indices
    # of each side enter the MPC as the STP's private input, which ships
    # nothing: the peers expand their slices from the keys they share.
    indices = None if opened is None else stp.match_keys(*opened)
    matches = None if indices is None else (np.array([len(indices[0])], dtype=np.int64),)
    (count,) = engine.hand_back(stp.name, matches, [(np.int64, 1)])
    m = int(count[0])
    leakage.record(
        "cardinality", f"hybrid_join({left_on})", [], [],
        detail=f"output rows = {m} (visible to all parties)",
    )
    left_idx_shared, right_idx_shared = engine.input_vectors(indices, stp.name, [m, m])

    # Steps 6-7: oblivious indexing (both index vectors opened to the
    # environment together) selects the matching rows on both sides;
    # concatenate them column-wise and reshuffle the result.
    schema, columns = join_assembly(
        left, right, right_on, suffix, left_idx_shared, right_idx_shared
    )
    return SharedTable(engine, schema, oblivious_shuffle(engine, columns))
