"""The one formula of every protocol step of the share engine.

Each function returns the :class:`~repro.model.counters.CostMeter` of one
step on one share vector (or one relation, where whole rows move):

* *carried* steps — input sharing, openings, the Beaver opening of a
  multiplication, local share arithmetic — are performed for real: the
  traffic is counted where it is carried (``Network.round``), the primitive
  increments its one counter, and the meter here is what the estimator
  prices for it;
* *analytic* steps — everything executed as an ideal functionality — are
  charged by ``engine.charge(<step>_meter(...))``: the meter here *is* the
  charge, so there is no second copy that could drift.

:mod:`repro.model.operators` composes both kinds into relational operators
and ``tests/test_estimates.py`` holds each composition to the executed
counters.  ``num_parties`` is the number of computing parties.
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


def _carried(messages: int, elements: int) -> NetworkStats:
    """One real exchange: ``messages`` messages of ``elements`` ring elements."""
    return NetworkStats(messages, messages * elements * SHARE_BYTES, rounds=1, wire_rounds=1)


def _analytic(rounds: int, elements: int, num_parties: int) -> NetworkStats:
    """``rounds`` rounds of an ideal functionality, each moving ``elements``
    ring elements as one message per party — priced, never a mesh round trip."""
    return NetworkStats(rounds * num_parties, rounds * elements * SHARE_BYTES, rounds)


# -- carried steps: performed for real, priced here --------------------------------------
# ``elements`` is rows x columns: a relation's columns cross in one round.


def input_meter(elements: int, num_parties: int) -> CostMeter:
    """Secret-sharing a relation: the contributor sends every other party one
    message with its slice of every column."""
    return CostMeter(input_records=elements, network=_carried(num_parties - 1, elements))


def open_meter(elements: int, num_parties: int) -> CostMeter:
    """Opening a relation to all parties: every party broadcasts its slices."""
    return CostMeter(
        output_records=elements, network=_carried(num_parties * (num_parties - 1), elements)
    )


def open_flags_meter(records: int, num_parties: int) -> CostMeter:
    """Opening a 0/1 vector in Z_2: every party broadcasts the low bit of each
    of its shares, packed eight to the byte."""
    messages = num_parties * (num_parties - 1)
    packed = NetworkStats(messages, messages * ((records + 7) // 8), rounds=1, wire_rounds=1)
    return CostMeter(output_records=records, network=packed)


def open_to_meter(elements: int, num_parties: int) -> CostMeter:
    """Opening a relation to one computing party: the others send it their slices."""
    return CostMeter(output_records=elements, network=_carried(num_parties - 1, elements))


def env_open_meter(elements: int, num_parties: int) -> CostMeter:
    """One batched opening to the protocol environment (no output records:
    nothing is revealed to the parties)."""
    return CostMeter(network=_carried(num_parties * (num_parties - 1), elements))


def beaver_multiply_meter(records: int, num_parties: int) -> CostMeter:
    """A share-by-share product: a triple per element, one round opening ``d``
    and ``e``; an empty product opens nothing."""
    if records == 0:
        return CostMeter()
    return CostMeter(
        multiplications=records, network=_carried(num_parties * (num_parties - 1), 2 * records)
    )


def local_meter(records: int, columns: int = 1) -> CostMeter:
    """Cheap local share work (add, scale, copy, gather): one op per element."""
    return CostMeter(local_ops=records * columns)


# -- analytic steps: what ``engine.charge`` is called with ----------------------------------


def external_reveal_meter(records: int, num_parties: int) -> CostMeter:
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


def segmented_sum_meter(records: int, num_parties: int) -> CostMeter:
    """The accumulation scan of a grouped sum: a logarithmic-depth segmented
    prefix sum, one multiplication per fold."""
    return CostMeter(
        multiplications=records - 1,
        local_ops=2 * records,
        network=_analytic(_log2_ceil(records), records, num_parties),
    )


def segmented_extremum_meter(records: int, num_parties: int) -> CostMeter:
    """The running min/max scan of a grouped extremum: per fold one comparison
    and two multiplexes, three rounds per level."""
    return CostMeter(
        comparisons=records - 1,
        multiplications=2 * (records - 1),
        local_ops=2 * records,
        network=_analytic(3 * _log2_ceil(records), records, num_parties),
    )


def truncation_meter(records: int, num_parties: int) -> CostMeter:
    """Probabilistic truncation of a fixed-point product: a multiplication
    per element, one round."""
    return CostMeter(multiplications=records, network=_analytic(1, records, num_parties))


def division_meter(records: int, num_parties: int) -> CostMeter:
    """Goldschmidt division: ~5 iterations of 3 multiplications, two rounds each."""
    return CostMeter(multiplications=15 * records, network=_analytic(10, records, num_parties))
