"""Analytic cost formulas for the oblivious operators.

The functional protocols in :mod:`repro.mpc.protocols` meter the work they
actually perform.  For benchmark sweeps that reach millions or billions of
records (Figures 1 and 4–7 of the paper) executing Python share arithmetic
would be pointlessly slow, so the plan-level cost estimator
(:mod:`repro.core.estimator`) uses these closed-form operation counts
instead.  The formulas mirror the implemented protocols one-to-one — the
tests in ``tests/test_estimates.py`` check that a functional execution's
meter matches the analytic count for small inputs — so large-scale numbers
are extrapolations of the very code paths that run at small scale.
"""

from __future__ import annotations

import math

from repro.mpc.network import Network, NetworkStats
from repro.mpc.runtime import CostMeter


def _log2_ceil(n: int) -> int:
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


def bitonic_comparator_count(n: int) -> int:
    """Number of compare-exchange operations of a bitonic sort of ``n`` items.

    The network pads to the next power of two; each of the
    ``k*(k+1)/2`` stages (k = log2 size) has ``size/2`` comparators.
    """
    if n <= 1:
        return 0
    size = 1 << math.ceil(math.log2(n))
    k = int(math.log2(size))
    stages = k * (k + 1) // 2
    return stages * (size // 2)


def bitonic_merge_comparator_count(n: int) -> int:
    """Comparators of a single bitonic merge pass over ``n`` items."""
    if n <= 1:
        return 0
    size = 1 << math.ceil(math.log2(n))
    k = int(math.log2(size))
    return k * (size // 2)


def share_input_meter(records: int, columns: int, num_parties: int = 3) -> CostMeter:
    """Cost of secret-sharing ``records`` x ``columns`` values into the MPC."""
    meter = CostMeter(input_records=records * columns)
    meter.network = NetworkStats(
        messages=num_parties - 1,
        bytes_sent=records * columns * Network.SHARE_BYTES * (num_parties - 1),
        rounds=1,
    )
    return meter


def reveal_meter(records: int, columns: int, num_parties: int = 3) -> CostMeter:
    """Cost of opening ``records`` x ``columns`` values."""
    meter = CostMeter(output_records=records * columns)
    meter.network = NetworkStats(
        messages=num_parties * (num_parties - 1),
        bytes_sent=records * columns * Network.SHARE_BYTES * num_parties,
        rounds=1,
    )
    return meter


def shuffle_meter(records: int, columns: int, num_parties: int = 3) -> CostMeter:
    """Cost of an oblivious shuffle of a ``records`` x ``columns`` relation."""
    meter = CostMeter(shuffled_elements=records * columns)
    meter.network = NetworkStats(
        messages=num_parties * num_parties,
        bytes_sent=num_parties * records * columns * Network.SHARE_BYTES,
        rounds=num_parties,
    )
    return meter


def _comparator_network_meter(
    comparators: int, columns: int, rounds: int, num_parties: int
) -> CostMeter:
    """A comparator network: one comparison per comparator, and every column
    multiplexed twice (select low/high) at 2 multiplications per column."""
    network = NetworkStats(
        messages=rounds * num_parties,
        bytes_sent=comparators * (1 + 2 * columns) * Network.SHARE_BYTES,
        rounds=rounds,
    )
    return CostMeter(
        comparisons=comparators,
        multiplications=comparators * 2 * max(1, columns),
        local_ops=comparators * 4 * max(1, columns),
        network=network,
    )


def sort_meter(records: int, columns: int, num_parties: int = 3) -> CostMeter:
    """Cost of an oblivious bitonic sort (key + payload swap per comparator)."""
    rounds = _stage_count(records) * 3  # compare + two selects per stage
    return _comparator_network_meter(
        bitonic_comparator_count(records), columns, rounds, num_parties
    )


def merge_meter(records: int, columns: int, num_parties: int = 3) -> CostMeter:
    """Cost of an oblivious merge of pre-sorted runs totalling ``records`` rows."""
    rounds = _log2_ceil(records) * 3
    return _comparator_network_meter(
        bitonic_merge_comparator_count(records), columns, rounds, num_parties
    )


def join_meter(
    left_rows: int, right_rows: int, out_columns: int, num_parties: int = 3
) -> CostMeter:
    """Cost of the standard Cartesian-product MPC join (output size revealed)."""
    pairs = left_rows * right_rows
    meter = CostMeter(
        comparisons=pairs,
        local_ops=pairs * out_columns,
    )
    meter.merge(shuffle_meter(pairs, out_columns + 1, num_parties))
    meter.merge(reveal_meter(pairs, 1, num_parties))
    return meter


def aggregate_meter(
    records: int,
    num_parties: int = 3,
    presorted: bool = False,
    scalar: bool = False,
) -> CostMeter:
    """Cost of the sort-based oblivious grouped aggregation (Jónsson et al.).

    ``scalar=True`` models a whole-relation SUM/COUNT, which only needs local
    share additions.
    """
    if scalar:
        return CostMeter(local_ops=records)
    meter = CostMeter()
    if not presorted:
        meter.merge(sort_meter(records, 1, num_parties))
    # Linear accumulation scan: one equality + one multiplication per row.
    meter.comparisons += max(0, records - 1)
    meter.multiplications += max(0, records - 1)
    meter.local_ops += records * 2
    meter.merge(shuffle_meter(records, 3, num_parties))
    meter.merge(reveal_meter(records, 1, num_parties))
    return meter


def filter_meter(records: int, columns: int, num_parties: int = 3) -> CostMeter:
    """Cost of an oblivious filter against a public constant (size revealed)."""
    meter = CostMeter(comparisons=records)
    meter.merge(shuffle_meter(records, columns + 1, num_parties))
    meter.merge(reveal_meter(records, 1, num_parties))
    return meter


def oblivious_index_meter(
    input_rows: int, selected_rows: int, columns: int, num_parties: int = 3
) -> CostMeter:
    """Cost of Laud-style oblivious indexing: O((n+m) log(n+m)).

    One opening round of the ``selected_rows`` index positions, then the
    routing network's rounds.
    """
    total = input_rows + selected_rows
    ops = total * _log2_ceil(total)
    links = num_parties * (num_parties - 1)
    routing_rounds = 2 * _log2_ceil(total)
    network = NetworkStats(
        messages=links + routing_rounds * num_parties,
        bytes_sent=(links * selected_rows + routing_rounds * total) * Network.SHARE_BYTES,
        rounds=1 + routing_rounds,
    )
    return CostMeter(comparisons=ops, multiplications=ops * max(1, columns), network=network)


def hybrid_join_meter(
    left_rows: int,
    right_rows: int,
    output_rows: int,
    left_columns: int,
    right_columns: int,
    num_parties: int = 3,
) -> CostMeter:
    """Cost of the MPC portion of the hybrid join (§5.3, Figure 3).

    Two input shuffles, two key-column reveals to the STP, the two index
    relations shared back (one round each), two oblivious indexing passes
    (the right side without its key column), and a final shuffle of the
    joined result.  The STP's cleartext join is charged by the cleartext
    engine, not here.
    """
    meter = CostMeter()
    meter.merge(shuffle_meter(left_rows, left_columns, num_parties))
    meter.merge(shuffle_meter(right_rows, right_columns, num_parties))
    meter.merge(reveal_meter(left_rows, 1, num_parties))
    meter.merge(reveal_meter(right_rows, 1, num_parties))
    meter.merge(share_input_meter(output_rows, 1, num_parties))
    meter.merge(share_input_meter(output_rows, 1, num_parties))
    meter.merge(oblivious_index_meter(left_rows, output_rows, left_columns, num_parties))
    if right_columns > 1:
        meter.merge(
            oblivious_index_meter(right_rows, output_rows, right_columns - 1, num_parties)
        )
    meter.merge(shuffle_meter(output_rows, left_columns + right_columns - 1, num_parties))
    return meter


def hybrid_aggregate_meter(
    records: int, output_rows: int, num_parties: int = 3
) -> CostMeter:
    """Cost of the MPC portion of the hybrid aggregation (§5.3).

    One input shuffle, a group-by-key reveal to the STP, the STP's ``n-1``
    adjacent-equality flags re-shared into MPC, a cleartext-ordered reorder
    (local), the oblivious accumulation scan, and the shuffle + flag reveal
    of the compaction tail.
    """
    meter = CostMeter()
    meter.merge(shuffle_meter(records, 2, num_parties))
    meter.merge(reveal_meter(records, 1, num_parties))
    meter.merge(share_input_meter(max(0, records - 1), 1, num_parties))
    # Accumulation: one multiplication per row over a logarithmic-depth
    # segmented scan (equality flags already known as secret shares, no
    # comparisons needed — the asymptotic win).
    meter.multiplications += max(0, records - 1)
    # Reorder of two columns, the scan's two passes, the keep flags.
    meter.local_ops += records * 4 + max(0, records - 1)
    scan_rounds = _log2_ceil(records)
    meter.network.merge(
        NetworkStats(
            messages=scan_rounds * num_parties,
            bytes_sent=scan_rounds * records * Network.SHARE_BYTES,
            rounds=scan_rounds,
        )
    )
    meter.merge(shuffle_meter(records, 3, num_parties))
    meter.merge(reveal_meter(records, 1, num_parties))
    return meter


def _stage_count(n: int) -> int:
    if n <= 1:
        return 0
    k = _log2_ceil(n)
    return k * (k + 1) // 2
