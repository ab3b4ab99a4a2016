"""Public join protocol (§5.3).

When the join key columns on both sides are public, any party may see them.
The paper sends the key columns to a host party, which enumerates and joins
them in the clear and broadcasts the matching row-index pairs.  Here the key
columns are opened to every party in one round and each joins them itself,
so the public indices need no second round; the join is charged to the
host's engine once, as the paper's host pays it.  The parties gather the
matching rows from the secret-shared inputs locally — no oblivious shuffling
or indexing is needed, "avoiding the use of MPC altogether" for the matching
step (the local cleartext join at the host is the bottleneck, as Figure 5a
shows).

Leakage: every party learns the key columns (they are public by
annotation) and the output cardinality.
"""

from __future__ import annotations

from repro.hybrid.stp import LeakageReport, SelectivelyTrustedParty
from repro.mpc.protocols import SharedTable, join_assembly
from repro.mpc.sharemind import SharemindBackend


def public_join(
    backend: SharemindBackend,
    host: SelectivelyTrustedParty,
    left: SharedTable,
    right: SharedTable,
    left_on: str,
    right_on: str,
    leakage: LeakageReport | None = None,
    suffix: str = "_r",
) -> SharedTable:
    """Execute the public join and return the secret-shared result."""
    engine = backend.engine
    leakage = leakage if leakage is not None else LeakageReport()

    # The key columns are public by annotation: open them to every party in
    # one round.
    left_keys, right_keys = engine.open_many([left.column(left_on), right.column(right_on)])
    leakage.record(
        "column_reveal", f"public_join({left_on})", [left_on, right_on], [],
        detail="public key columns", received=True,
    )

    # Each party joins the public keys itself, so no index round follows.
    # The work is charged to the host's engine: at another party's agent, to
    # a replica whose work that agent does not report.
    left_indices, right_indices = host.match_keys(left_keys, right_keys)
    leakage.record(
        "cardinality", f"public_join({left_on})", [], [],
        detail=f"output rows = {len(left_indices)} (visible to all parties)",
    )

    # The indices are public, so each party gathers the matching rows from
    # its shares locally — no oblivious operations needed.
    schema, columns = join_assembly(left, right, right_on, suffix, left_indices, right_indices)
    return SharedTable(engine, schema, columns)
