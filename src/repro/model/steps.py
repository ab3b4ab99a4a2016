"""The one formula of every analytic protocol step of the share engine.

Each function returns the :class:`~repro.model.counters.CostMeter` of one
step on one share vector (or one relation, where whole rows move).  Every
step the engine does not carry itself — the ideal functionalities, and the
local copies and gathers of the protocols — is charged by
``engine.charge(<step>_meter(...))``: the meter here *is* the charge, so
there is no second copy that could drift.  The *carried* steps — openings,
the Beaver opening of a multiplication, local share arithmetic — have no
formula: the traffic is counted where it is carried
(``Network.round``) and the primitive increments its one counter, on data
and on shapes alike.

No module composes them into relational operators: the estimator runs the
plan itself on shape engines (:mod:`repro.mpc.shape`).  ``num_parties`` is
the number of computing parties.
"""

from __future__ import annotations

from repro.model.counters import SHARE_BYTES, CostMeter, NetworkStats


def _log2_ceil(n: int) -> int:
    """``ceil(log2(n))``, at least 1."""
    return max(1, (n - 1).bit_length())


def _sort_stage_count(n: int) -> int:
    k = _log2_ceil(n)
    return k * (k + 1) // 2 if n > 1 else 0


def bitonic_comparator_count(n: int) -> int:
    """Compare-exchanges of a bitonic sort of ``n`` items: the network pads to
    a power of two and each of its ``k*(k+1)/2`` stages has ``size/2``."""
    return _sort_stage_count(n) * (1 << _log2_ceil(n)) // 2


def bitonic_merge_comparator_count(n: int) -> int:
    """Comparators of a single bitonic merge pass over ``n`` items."""
    return _log2_ceil(n) * (1 << _log2_ceil(n)) // 2 if n > 1 else 0


def _analytic(rounds: int, elements: int, num_parties: int) -> NetworkStats:
    """``rounds`` rounds of an ideal functionality, each moving ``elements``
    ring elements as one message per party — priced, never a mesh round trip."""
    return NetworkStats(rounds * num_parties, rounds * elements * SHARE_BYTES, rounds)


# -- what ``engine.charge`` is called with -----------------------------------------------


def local_meter(records: int, columns: int = 1) -> CostMeter:
    """Cheap local share work (copy, gather, sum): one op per element."""
    return CostMeter(local_ops=records * columns)


def input_sharing_meter(records: int, num_parties: int) -> CostMeter:
    """A party's private input of ``records`` ring elements entering the MPC:
    Sharemind's client-side input round, one message of the party's shares
    to every other computing party.  The share engine expands those shares
    from pairwise keys instead, so the round is priced, never carried.  The
    STP's index relations of a hybrid join enter this way too, and the
    hybrid aggregation prices with it the sharing of the group-boundary
    flags the STP handed back in the clear."""
    return CostMeter(
        input_records=records,
        network=NetworkStats(
            num_parties - 1, (num_parties - 1) * records * SHARE_BYTES, rounds=1
        ),
    )


def external_leg_meter(records: int, num_parties: int) -> CostMeter:
    """The leg carrying an environment-opened vector to a party outside the MPC."""
    return CostMeter(output_records=records, network=_analytic(1, records, num_parties))


def comparison_meter(records: int, num_parties: int) -> CostMeter:
    """A secret ``<`` or ``==`` per element: one bit-decomposition comparison
    unit each, batched into one round."""
    return CostMeter(comparisons=records, network=_analytic(1, records, num_parties))


def shuffle_meter(records: int, columns: int, num_parties: int) -> CostMeter:
    """An oblivious shuffle: every party in turn permutes and reshares the
    whole relation.  An empty relation is not shuffled."""
    elements = records * columns
    if elements == 0:
        return CostMeter()
    return CostMeter(
        shuffled_elements=elements, network=_analytic(num_parties, elements, num_parties)
    )


def _comparator_network_meter(
    comparators: int, stages: int, columns: int, num_parties: int
) -> CostMeter:
    """A compare-exchange network over ``columns``-wide rows: per comparator
    one comparison and two multiplexes of every column (a multiplication and
    two local additions each); per stage a compare and two select rounds."""
    return CostMeter(
        comparisons=comparators,
        multiplications=2 * comparators * columns,
        local_ops=4 * comparators * columns,
        network=NetworkStats(
            messages=3 * stages * num_parties,
            bytes_sent=comparators * (1 + 2 * columns) * SHARE_BYTES,
            rounds=3 * stages,
        ),
    )


def sort_network_meter(records: int, columns: int, num_parties: int) -> CostMeter:
    """The bitonic sorting network over key + payload (``columns`` in all)."""
    return _comparator_network_meter(
        bitonic_comparator_count(records), _sort_stage_count(records), columns, num_parties
    )


def merge_network_meter(records: int, columns: int, num_parties: int) -> CostMeter:
    """One bitonic merge pass over two sorted runs totalling ``records`` rows."""
    return _comparator_network_meter(
        bitonic_merge_comparator_count(records), _log2_ceil(records), columns, num_parties
    )


def index_routing_meter(
    input_rows: int, selected_rows: int, columns: int, num_parties: int
) -> CostMeter:
    """Laud's oblivious array access: an ``O((n+m) log(n+m))`` routing network
    over the indices (comparisons) through which every payload column moves
    (multiplications), two rounds per level; a degenerate network (``n + m
    <= 1``) is one comparison and one round."""
    total = input_rows + selected_rows
    levels = _log2_ceil(total)
    ops, rounds = (total * levels, 2 * levels) if total > 1 else (1, 1)
    return CostMeter(
        comparisons=ops,
        multiplications=ops * max(1, columns),
        network=_analytic(rounds, total, num_parties),
    )


def adjacent_equality_meter(records: int, num_parties: int) -> CostMeter:
    """Secret ``key[i] == key[i+1]`` flags of a sorted key column: the two
    shifted copies and one batched equality test."""
    meter = comparison_meter(records - 1, num_parties)
    meter.local_ops = 2 * (records - 1)
    return meter


def segmented_sum_meter(records: int, num_parties: int, columns: int = 1) -> CostMeter:
    """The accumulation scans of a grouped aggregation's ``columns`` sums: a
    logarithmic-depth segmented prefix sum over every column in the same
    rounds, one multiplication per fold."""
    return CostMeter(
        multiplications=columns * (records - 1),
        local_ops=2 * records * columns,
        network=_analytic(_log2_ceil(records), records * columns, num_parties),
    )


def segmented_extremum_meter(records: int, num_parties: int, columns: int = 1) -> CostMeter:
    """The running min/max scans of a grouped aggregation's ``columns``
    extrema, every column in the same rounds: per fold one comparison and
    two multiplexes, three rounds per level."""
    return CostMeter(
        comparisons=columns * (records - 1),
        multiplications=2 * columns * (records - 1),
        local_ops=2 * records * columns,
        network=_analytic(3 * _log2_ceil(records), records * columns, num_parties),
    )


def truncation_meter(records: int, num_parties: int) -> CostMeter:
    """Probabilistic truncation of a fixed-point product: a multiplication
    per element, one round."""
    return CostMeter(multiplications=records, network=_analytic(1, records, num_parties))


def division_meter(records: int, num_parties: int) -> CostMeter:
    """Goldschmidt division: ~5 iterations of 3 multiplications, two rounds each."""
    return CostMeter(multiplications=15 * records, network=_analytic(10, records, num_parties))
