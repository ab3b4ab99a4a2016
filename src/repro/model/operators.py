"""Meters of the relational MPC operators, composed from the protocol steps.

Each function lists the steps of :mod:`repro.model.steps` in the order
:mod:`repro.mpc.protocols` / :mod:`repro.hybrid` run them, so an executed
operator and its meter here can disagree about row counts only
(``tests/test_estimates.py`` compares every counter at small sizes).  The
estimator prices plans with these; nothing that executes imports them.
``p`` is the number of computing parties; where a cost depends on the
operator's output size the caller supplies the row count.
"""

from __future__ import annotations

from typing import Sequence

from repro.model import steps
from repro.model.counters import CostMeter


def _total(*meters: CostMeter) -> CostMeter:
    total = CostMeter()
    for meter in meters:
        total.merge(meter)
    return total


# -- crossing the MPC boundary: one round per relation ---------------------------------------


def share_input_meter(records: int, columns: int, p: int = 3) -> CostMeter:
    """Secret-sharing a ``records`` x ``columns`` relation into the MPC."""
    return steps.input_meter(records * columns, p)


def reveal_meter(records: int, columns: int, p: int = 3) -> CostMeter:
    """Opening a relation to all parties."""
    return steps.open_meter(records * columns, p)


def reveal_to_meter(records: int, columns: int, p: int = 3, external: bool = False) -> CostMeter:
    """Opening a relation to one party — a computing one, or (``external``) an
    STP outside the MPC, served by an environment opening plus the leg out."""
    elements = records * columns
    if external:
        return _total(steps.env_open_meter(elements, p), steps.external_reveal_meter(elements, p))
    return steps.open_to_meter(elements, p)


# -- oblivious building blocks -----------------------------------------------------------------


def sort_meter(records: int, columns: int, p: int = 3) -> CostMeter:
    """Oblivious sort of ``columns``-wide rows: the keys are opened to the
    environment, then the bitonic network.  One row needs neither."""
    if records <= 1:
        return CostMeter()
    return _total(steps.env_open_meter(records, p), steps.sort_network_meter(records, columns, p))


def merge_meter(run_rows: Sequence[int], columns: int, p: int = 3) -> CostMeter:
    """Oblivious merge of sorted runs, folded pairwise left to right: each
    fold opens the concatenated keys and runs one bitonic merge pass."""
    meter, merged = CostMeter(), run_rows[0]
    for rows in run_rows[1:]:
        merged += rows
        if merged > 1:
            meter.merge(steps.env_open_meter(merged, p))
            meter.merge(steps.merge_network_meter(merged, columns, p))
    return meter


def index_meter(input_rows: int, selected_rows: int, columns: int, p: int = 3) -> CostMeter:
    """Oblivious indexing over indices the caller opened to the environment:
    the routing network.  No payload columns, no work."""
    if columns == 0:
        return CostMeter()
    return steps.index_routing_meter(input_rows, selected_rows, columns, p)


def compact_meter(records: int, columns: int, p: int = 3) -> CostMeter:
    """The size-revealing tail: shuffle flags + columns, open the flag bits."""
    return _total(steps.shuffle_meter(records, columns + 1, p), steps.open_flags_meter(records, p))


# -- row-wise operators ---------------------------------------------------------------------------

#: Comparisons that cost a local negation on top of the one secret comparison,
#: by kind of right-hand side (``x > v`` is ``not x < v+1``, ``x > y`` is ``y < x``).
_NEGATED = {True: ("!=", "<=", ">="), False: ("!=", ">", ">=")}


def compare_meter(
    records: int, op: str, p: int = 3, shared_rhs: bool = False, rescaled: bool = False
) -> CostMeter:
    """Secret flags ``column <op> rhs``, ``rhs`` a column (``shared_rhs``) or a
    public scalar.  An order between two columns opens both operands, every
    other comparison one vector; ``rescaled`` is the local alignment of an
    integer operand with a fixed-point one."""
    opened = 2 if shared_rhs and op not in ("==", "!=") else 1
    return _total(
        steps.local_meter(records, rescaled + (op in _NEGATED[shared_rhs])),
        steps.env_open_meter(opened * records, p),
        steps.comparison_meter(records, p),
    )


def filter_meter(records: int, columns: int, op: str, p: int = 3) -> CostMeter:
    """Oblivious filter against a public constant (output size revealed)."""
    return _total(compare_meter(records, op, p), compact_meter(records, columns, p))


def bool_op_meter(records: int, op: str, operands: int, p: int = 3) -> CostMeter:
    """and/or folded over ``operands`` flag columns (``a or b = a + b - ab``); not is local."""
    if op == "not":
        return steps.local_meter(records)
    fold = _total(steps.local_meter(records, 2 * (op == "or")), steps.beaver_multiply_meter(records, p))
    return _total(*[fold] * (operands - 1))


def multiply_meter(
    records: int, p: int = 3, shared_rhs: bool = True, fixed_point: bool = False
) -> CostMeter:
    """``left * right``: a scalar scales locally, a column costs a Beaver
    round; two fixed-point operands (FLOAT columns, a fractional scalar) a
    truncation (opening + rescale) on top."""
    meter = steps.beaver_multiply_meter(records, p) if shared_rhs else steps.local_meter(records)
    if fixed_point:
        meter.merge(steps.env_open_meter(records, p))
        meter.merge(steps.truncation_meter(records, p))
    return meter


def divide_meter(records: int, p: int = 3) -> CostMeter:
    """``left / right``: both operands opened in one round, then the division."""
    return _total(steps.env_open_meter(2 * records, p), steps.division_meter(records, p))


def map_meter(records: int, rescaled: bool = False) -> CostMeter:
    """``left +/- right`` is local, as is aligning an integer with a fixed-point operand."""
    return steps.local_meter(records, 1 + rescaled)


# -- joins and aggregations --------------------------------------------------------------------------


def join_meter(left_rows: int, right_rows: int, out_columns: int, p: int = 3) -> CostMeter:
    """The Cartesian-product join: both key columns expanded to all pairs, one
    secret equality per pair, the output columns gathered, then compaction."""
    pairs = left_rows * right_rows
    return _total(
        steps.local_meter(pairs, 2 + out_columns),
        compare_meter(pairs, "==", p, shared_rhs=True),
        compact_meter(pairs, out_columns, p),
    )


def aggregate_meter(
    records: int, func: str, p: int = 3, presorted: bool = False, grouped: bool = True
) -> CostMeter:
    """Sort-based oblivious aggregation (Jónsson et al.).

    Grouped: the key column is opened once, key + value are sorted unless
    ``presorted``, adjacent keys compared, the values folded by the scan of
    ``func`` (min/max open the value column too), the last row of every
    group flagged and the relation compacted.  Ungrouped: a sum is local
    share additions, a count a public constant.
    """
    func = func.lower()
    if not grouped:
        return steps.local_meter(records if func == "sum" else 0)
    if records == 0:
        return CostMeter()
    meter = CostMeter()
    if records > 1:
        meter.merge(steps.env_open_meter(records, p))
        if not presorted:
            meter.merge(steps.sort_network_meter(records, 2, p))
        meter.merge(steps.adjacent_equality_meter(records, p))
        if func in ("sum", "count"):
            meter.merge(steps.segmented_sum_meter(records, p))
        else:
            meter.merge(steps.env_open_meter(records, p))
            meter.merge(steps.segmented_extremum_meter(records, p))
        meter.merge(steps.local_meter(records - 1))
    meter.merge(compact_meter(records, 2, p))
    return meter


def distinct_meter(records: int, output_rows: int, p: int = 3) -> CostMeter:
    """Distinct values of one column: project, grouped count, project."""
    return _total(
        steps.local_meter(records + output_rows), aggregate_meter(records, "count", p)
    )


def public_join_meter(
    left_rows: int, right_rows: int, output_rows: int, out_columns: int, p: int = 3
) -> CostMeter:
    """Public join: both key columns opened in one round, matching rows
    gathered locally."""
    return _total(
        steps.open_meter(left_rows + right_rows, p),
        steps.local_meter(output_rows, out_columns),
    )


def hybrid_join_meter(
    left_rows: int,
    right_rows: int,
    output_rows: int,
    left_columns: int,
    right_columns: int,
    p: int = 3,
) -> CostMeter:
    """The MPC portion of the hybrid join (§5.3, Figure 3): two input
    shuffles, both key columns revealed to the STP in one round, the two
    index relations shared back in one, opened to the environment in one
    (the right one only if that side has a column besides its key), two
    oblivious indexing passes (the right side without its key column) and a
    final shuffle.  The STP's cleartext join is charged by the cleartext
    engine, not here."""
    return _total(
        steps.shuffle_meter(left_rows, left_columns, p),
        steps.shuffle_meter(right_rows, right_columns, p),
        steps.open_meter(left_rows + right_rows, p),
        share_input_meter(output_rows, 2, p),
        steps.env_open_meter((1 + (right_columns > 1)) * output_rows, p),
        index_meter(left_rows, output_rows, left_columns, p),
        index_meter(right_rows, output_rows, right_columns - 1, p),
        steps.shuffle_meter(output_rows, left_columns + right_columns - 1, p),
    )


def hybrid_aggregate_meter(records: int, p: int = 3) -> CostMeter:
    """The MPC portion of the hybrid sum/count aggregation (§5.3): one input
    shuffle, the keys revealed to the STP, its ``n-1`` adjacent-equality flags
    shared back, the reorder by its public ordering, then the scan, keep
    flags and compaction of the oblivious aggregation — no comparisons, which
    is the asymptotic win."""
    if records == 0:
        return CostMeter()
    return _total(
        steps.shuffle_meter(records, 2, p),
        steps.open_meter(records, p),
        steps.input_meter(records - 1, p),
        steps.local_meter(records, 2),
        steps.segmented_sum_meter(records, p),
        steps.local_meter(records - 1),
        compact_meter(records, 2, p),
    )
