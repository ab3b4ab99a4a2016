"""Oblivious sub-protocols over secret-shared columns.

These are the building blocks §5.3/§5.4 of the paper talk about: oblivious
shuffles, oblivious (bitonic) sorting networks, Laud-style oblivious
indexing, and oblivious merging of pre-sorted runs.  They operate on lists
of :class:`~repro.mpc.secretshare.SharedVector` columns (one entry per
relation column) so higher layers can treat a secret-shared relation as
"columns + schema".

Like the comparison operators of the engine itself, the sorting network and
the merger are executed as *ideal functionalities*: the last compute party
reconstructs the key column and hands back only its stable order (acting as
the environment; a caller that has the order already hands it in, so an
operator sends a key column at most once), and every engine applies the
permutation to whole share vectors at once, reshare-freshens the result by
adding the permuted slice into the fresh mask of a zero sharing, and
charges the meter the full price of the bitonic network.  Only the shuffle
moves data through real resharing rounds;
:func:`~repro.mpc.protocols.compact` composes its own shuffle from the same
steps — a permutation off the environment stream, the flags reshared over
every row, the payload reshared only at the rows that survive — and charges
the full shuffle's price.  Everything row-dependent — here and in the
accumulation scan the oblivious and the hybrid aggregation share
(:meth:`~repro.mpc.secretshare.SecretSharingEngine.segmented_sum`) — is one
whole-vector operation charged analytically, so the number of *wire*
rounds of every operator, hybrid ones included, is independent of the
relation size.  What each sub-protocol is charged — O(n) reshared elements
for a shuffle, O(n log^2 n) compare-exchanges for a sort, O(n log n) for a
merge, O((n + m) log(n + m)) for an index — is :mod:`repro.model.steps`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.model import steps
from repro.mpc.secretshare import SecretSharingEngine, SharedVector


def oblivious_shuffle(
    engine: SecretSharingEngine,
    columns: Sequence[SharedVector],
    permutation: np.ndarray | None = None,
) -> list[SharedVector]:
    """Obliviously shuffle the rows of a shared relation.

    Every party contributes a random permutation in turn and the relation is
    reshared between applications, so no party learns the composite
    permutation.  Functionally we apply a single joint permutation (the
    composition) and meter the cost of the full resharing protocol.
    """
    if not columns:
        return []
    n = len(columns[0])
    for col in columns:
        if len(col) != n:
            raise ValueError("all columns of a relation must have the same length")
    if permutation is not None:
        permutation = np.asarray(permutation, dtype=np.int64)
        if permutation.shape != (n,) or not (
            ((permutation >= 0) & (permutation < n)).all()
            and np.bincount(permutation, minlength=n).all()
        ):
            raise ValueError("permutation must be a permutation of 0..n-1")
    if n == 0:
        return [SharedVector(engine, [s.copy() for s in col.shares]) for col in columns]
    if permutation is None:
        permutation = engine.permutation(n)

    # Resharing: a fresh zero-sharing makes old and new shares unlinkable.
    shuffled = [engine.reshared_take(col, permutation) for col in columns]

    engine.charge(steps.shuffle_meter(n, len(columns), engine.num_parties))
    return shuffled


def oblivious_sort(
    engine: SecretSharingEngine,
    key: SharedVector,
    payload: Sequence[SharedVector],
    order: np.ndarray | None = None,
) -> tuple[SharedVector, list[SharedVector]]:
    """Sort a shared relation by a shared key column (bitonic network cost).

    Returns the sorted key column and the payload columns reordered in step.
    Executed as an ideal functionality: a stable permutation derived from
    the reconstructed keys is applied to every share vector at once and the
    result is reshare-freshened, while the meter is charged the real
    network's ``O(n log^2 n)`` compare-exchange cost.

    ``order`` is the stable ascending argsort of the keys, from a caller
    that has it already; without it the key column goes to the last compute
    party here, which hands back the order (``order_of``).
    """
    payload = list(payload)
    n = len(key)
    if n <= 1:
        return key, payload
    if order is None:
        order = engine.order_of(key)
    key_sorted, *payload_sorted = [engine.reshared_take(col, order) for col in [key, *payload]]
    engine.charge(steps.sort_network_meter(n, 1 + len(payload), engine.num_parties))
    return key_sorted, payload_sorted


def oblivious_merge(
    engine: SecretSharingEngine,
    sorted_runs: Sequence[tuple[SharedVector, Sequence[SharedVector]]],
    ascending: bool = True,
) -> tuple[SharedVector, list[SharedVector]]:
    """Obliviously merge several relations that are each sorted by key.

    The merge is a bitonic merger over the concatenation of the runs:
    ``O(n log n)`` comparisons rather than the full ``O(n log^2 n)`` of a
    sort, which is what makes the sort push-up through ``concat`` worthwhile
    (§5.4).
    """
    if not sorted_runs:
        raise ValueError("need at least one run to merge")
    width = len(list(sorted_runs[0][1]))
    for _, payload in sorted_runs:
        if len(list(payload)) != width:
            raise ValueError("all runs must have the same payload width")

    merged_key, merged_payload = sorted_runs[0][0], list(sorted_runs[0][1])
    for next_key, next_payload in sorted_runs[1:]:
        merged_key, merged_payload = _bitonic_merge_two(
            engine, merged_key, merged_payload, next_key, list(next_payload), ascending
        )
    return merged_key, merged_payload


def _bitonic_merge_two(
    engine: SecretSharingEngine,
    key_a: SharedVector,
    payload_a: list[SharedVector],
    key_b: SharedVector,
    payload_b: list[SharedVector],
    ascending: bool = True,
) -> tuple[SharedVector, list[SharedVector]]:
    """Merge two same-direction runs at a single bitonic merge pass's cost.

    A real deployment reverses the second run (a free public permutation)
    so the concatenation is bitonic, then runs one ``O(n log n)`` merge
    network.  Here the concatenated key vector is ordered as an ideal
    functionality — the same stable-argsort-then-reverse rule
    ``Table.sort_by`` uses, so ties land exactly where the cleartext
    engine puts them — and the merge network's cost is metered.
    """
    key = SharedVector.concat([key_a, key_b])
    payload = [SharedVector.concat([a, b]) for a, b in zip(payload_a, payload_b)]
    n = len(key)
    if n <= 1:
        return key, payload

    order = engine.order_of(key)
    if not ascending:
        order = order[::-1]
    key_sorted, *payload_sorted = [engine.reshared_take(col, order) for col in [key, *payload]]
    engine.charge(steps.merge_network_meter(n, 1 + len(payload), engine.num_parties))
    return key_sorted, payload_sorted


def oblivious_index(
    engine: SecretSharingEngine,
    columns: Sequence[SharedVector],
    idx_values: np.ndarray,
) -> list[SharedVector]:
    """Select the rows at secret indices from a shared relation.

    This is the oblivious indexing ("select") protocol used in step 6 of the
    hybrid join (§5.3), following Laud's parallel oblivious array access: it
    costs ``O((n + m) log(n + m))`` oblivious operations for ``n`` input rows
    and ``m`` selected indices.  We execute it as an ideal functionality
    (gather on ``idx_values``, the indices as the caller's ``env_open`` round
    reconstructed them) and meter the real protocol's cost.
    """
    if not columns:
        return []
    n = len(columns[0])
    engine.check_index(idx_values, n)
    out = [engine.reshared_take(col, idx_values) for col in columns]
    engine.charge(steps.index_routing_meter(n, len(idx_values), len(columns), engine.num_parties))
    return out

