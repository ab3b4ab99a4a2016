"""Plan cost estimation for large-scale benchmark sweeps.

Executing the functional protocols on tens of millions of records in pure
Python would take longer than the real systems they simulate, so the
benchmark harness prices compiled plans analytically: every MPC operator's
work is the :mod:`repro.model.operators` meter of its estimated row counts
— the same step formulas the share engine charges when it executes — and
every cleartext operator's a :class:`~repro.model.counters.CleartextWork`,
converted to simulated seconds with the price lists the executing engines'
tallies are converted with.  The garbled-circuit (Obliv-C) target is priced
only here (:meth:`PlanEstimator._garbled_cost`); nothing executes it.
Completion times are the dispatcher's recurrence
(:func:`~repro.model.prices.completion_seconds`), so independent per-party
work overlaps.

The estimator reports out-of-memory failures of the garbled-circuit backend
(via :class:`EstimatedOOM`) instead of a time, reproducing the truncated
Obliv-C curves of Figure 1, and can cap runtimes with ``timeout_seconds`` to
reproduce the "did not finish within an hour" points of Figures 6 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.compiler import CompiledQuery
from repro.core.operators import (
    Aggregate,
    BoolOp,
    Collect,
    Compare,
    Concat,
    Create,
    Distinct,
    Divide,
    Filter,
    HybridAggregate,
    HybridJoin,
    Join,
    Limit,
    Map,
    Merge,
    Multiply,
    OpNode,
    Project,
    PublicJoin,
    SortBy,
)
from repro.data.schema import ColumnType, Schema
from repro.model import operators, steps
from repro.model.counters import CleartextWork, CostMeter
from repro.model.prices import (
    BYTES_PER_JOIN_PAIR,
    BYTES_PER_VALUE,
    GATES_PER_ADDITION,
    GATES_PER_COMPARISON,
    GATES_PER_MULTIPLICATION,
    GATES_PER_MUX,
    VALUE_BITS,
    GarbledCostModel,
    PythonCostModel,
    SharemindCostModel,
    SparkCostModel,
    completion_seconds,
)


class EstimatedOOM(RuntimeError):
    """The garbled-circuit backend would exhaust its memory on this plan."""

    def __init__(self, operator: str, required_bytes: int, limit_bytes: int):
        super().__init__(
            f"estimated garbled-circuit OOM in {operator}: needs "
            f"{required_bytes / 1024**3:.1f} GiB, limit {limit_bytes / 1024**3:.1f} GiB"
        )
        self.operator = operator
        self.required_bytes = required_bytes
        self.limit_bytes = limit_bytes


@dataclass
class EstimatorParams:
    """Workload statistics the analyst supplies for accurate estimates."""

    #: Fraction of rows surviving each filter.
    filter_selectivity: float = 0.5
    #: Distinct group-by keys as a fraction of input rows.
    distinct_fraction: float = 0.1
    #: Join output rows as a fraction of the smaller input.
    join_selectivity: float = 1.0
    #: Explicit row-count overrides keyed by relation name.
    row_overrides: dict[str, int] = field(default_factory=dict)
    #: Number of computing parties in the MPC.
    num_parties: int = 3
    #: Abort the estimate when total simulated time exceeds this bound
    #: (mirrors the experiment timeouts in the paper, e.g. two hours).
    timeout_seconds: float | None = None


@dataclass
class NodeEstimate:
    """Estimated cost of a single operator."""

    node: OpNode
    rows_in: list[int]
    rows_out: int
    seconds: float
    locus: str


@dataclass
class PlanEstimate:
    """Estimated cost of a whole compiled plan."""

    simulated_seconds: float
    mpc_seconds: float
    local_seconds: float
    nodes: list[NodeEstimate]
    timed_out: bool = False

    def breakdown(self) -> str:
        lines = [
            f"{'operator':<20} {'relation':<30} {'rows':>12} {'seconds':>12}  locus"
        ]
        for ne in self.nodes:
            lines.append(
                f"{ne.node.op_name:<20} {ne.node.out_rel.name:<30} "
                f"{ne.rows_out:>12} {ne.seconds:>12.3f}  {ne.locus}"
            )
        lines.append(f"total simulated seconds: {self.simulated_seconds:.1f}")
        return "\n".join(lines)


class PlanEstimator:
    """Prices a compiled plan with the backends' cost models."""

    def __init__(
        self,
        params: EstimatorParams | None = None,
        sharemind_model: SharemindCostModel | None = None,
        garbled_model: GarbledCostModel | None = None,
        spark_model: SparkCostModel | None = None,
        python_model: PythonCostModel | None = None,
    ):
        self.params = params or EstimatorParams()
        self.sharemind_model = sharemind_model or SharemindCostModel()
        self.garbled_model = garbled_model or GarbledCostModel()
        self.cleartext_models = {
            "spark": spark_model or SparkCostModel(),
            "python": python_model or PythonCostModel(),
        }

    # -- public API ------------------------------------------------------------------------

    def estimate(self, compiled: CompiledQuery) -> PlanEstimate:
        """Estimate the end-to-end simulated runtime of a compiled query."""
        rows: dict[str, int] = {}
        durations: dict[int, float] = {}
        node_estimates: list[NodeEstimate] = []
        mpc_seconds = 0.0
        local_seconds = 0.0
        use_garbled = compiled.config.mpc_backend == "obliv-c"
        prices = self.cleartext_models[compiled.config.cleartext_backend]

        for node in compiled.dag.topological():
            rows_in = [rows.get(p.out_rel.name, 0) for p in node.parents]
            rows_out = self._estimate_rows(node, rows_in)
            rows[node.out_rel.name] = rows_out

            if node.is_mpc:
                seconds = self._mpc_seconds(node, rows_in, rows_out, use_garbled, prices)
                mpc_seconds += seconds
                locus = "mpc"
            else:
                seconds = self._local_seconds(node, rows_in, rows_out, prices)
                local_seconds += seconds
                locus = f"local:{node.run_at or node.out_rel.owner or '?'}"
                if not use_garbled and any(p.is_mpc for p in node.parents):
                    # Crossing out of the MPC is MPC work on the consumer's
                    # clock; the session is up, so no second start-up.
                    reveal = self.sharemind_model.work_seconds(self._reveal_meter(node, rows_in))
                    mpc_seconds += reveal
                    seconds += reveal

            durations[node.node_id] = seconds
            node_estimates.append(NodeEstimate(node, rows_in, rows_out, seconds, locus))

        total = completion_seconds(compiled.dag, durations)
        timeout = self.params.timeout_seconds
        return PlanEstimate(
            simulated_seconds=total,
            mpc_seconds=mpc_seconds,
            local_seconds=local_seconds,
            nodes=node_estimates,
            timed_out=timeout is not None and total > timeout,
        )

    # -- row estimation -----------------------------------------------------------------------

    def _estimate_rows(self, node: OpNode, rows_in: list[int]) -> int:
        override = self.params.row_overrides.get(node.out_rel.name)
        if override is not None:
            return int(override)
        if isinstance(node, Create):
            return int(node.out_rel.estimated_rows or 0)
        if isinstance(node, (Concat, Merge)):
            return sum(rows_in)
        if isinstance(node, Filter):
            return int(rows_in[0] * self.params.filter_selectivity)
        if isinstance(node, (HybridAggregate, Aggregate)):
            if node.group_col is None:
                return 1
            if getattr(node, "is_secondary", False):
                # Merging per-party partials: output is the number of
                # distinct keys, roughly the partial count divided by the
                # number of contributing parties.
                return max(1, int(rows_in[0] / max(1, self.params.num_parties)))
            return max(1, int(rows_in[0] * self.params.distinct_fraction))
        if isinstance(node, Distinct):
            return max(1, int(rows_in[0] * self.params.distinct_fraction))
        if isinstance(node, (HybridJoin, PublicJoin, Join)):
            return max(1, int(min(rows_in) * self.params.join_selectivity))
        if isinstance(node, Limit):
            return min(rows_in[0], node.n)
        return rows_in[0] if rows_in else 0

    # -- MPC costs ------------------------------------------------------------------------------

    def _mpc_seconds(
        self, node: OpNode, rows_in: list[int], rows_out: int, use_garbled: bool, prices
    ) -> float:
        if use_garbled:
            gates, input_bits, memory = self._garbled_cost(node, rows_in, rows_out)
            if memory > self.garbled_model.memory_limit_bytes:
                raise EstimatedOOM(node.op_name, memory, self.garbled_model.memory_limit_bytes)
            return self.garbled_model.seconds(gates, input_bits)

        meter = self._sharemind_meter(node, rows_in, rows_out)
        seconds = self.sharemind_model.seconds(meter)
        # Hybrid operators also pay for cleartext work at the STP/host.
        if isinstance(node, (HybridJoin, PublicJoin)):
            seconds += self._cleartext_records_seconds(sum(rows_in) + rows_out, prices, wide=True)
        elif isinstance(node, HybridAggregate):
            seconds += self._cleartext_records_seconds(rows_in[0], prices, wide=True)
        return seconds

    def _sharemind_meter(self, node: OpNode, rows_in: list[int], rows_out: int) -> CostMeter:
        """The node's :mod:`repro.model.operators` meter at the estimated row
        counts, after the sharing of whatever crosses in from cleartext."""
        p = self.params.num_parties
        meter = CostMeter()
        for parent, n_rows in zip(node.parents, rows_in):
            if not parent.is_mpc:
                meter.merge(operators.share_input_meter(n_rows, len(parent.out_rel.schema), p))
        meter.merge(self._operator_meter(node, rows_in, rows_out, p))
        return meter

    @staticmethod
    def _operator_meter(node: OpNode, rows_in: list[int], rows_out: int, p: int) -> CostMeter:
        cols_in = [len(parent.out_rel.schema) for parent in node.parents]
        cols_out = len(node.out_rel.schema)
        schema = node.parents[0].out_rel.schema
        n = rows_in[0]
        if isinstance(node, Merge):
            return operators.merge_meter(rows_in, cols_out, p)
        if isinstance(node, Concat):
            return steps.local_meter(sum(rows_in), cols_out)
        if isinstance(node, Project):
            return steps.local_meter(n, cols_out)
        if isinstance(node, Filter):
            if _constant_comparison(schema, node.column, node.op, node.value):
                return operators.compact_meter(n, cols_out, p)
            return operators.filter_meter(n, cols_out, node.op, p)
        if isinstance(node, HybridJoin):
            return operators.hybrid_join_meter(*rows_in, rows_out, *cols_in, p)
        if isinstance(node, PublicJoin):
            return operators.public_join_meter(*rows_in, rows_out, cols_out, p)
        if isinstance(node, Join):
            return operators.join_meter(*rows_in, cols_out, p)
        if isinstance(node, HybridAggregate):
            return operators.hybrid_aggregate_meter(n, p)
        if isinstance(node, Aggregate):
            return operators.aggregate_meter(
                n, node.func, p, presorted=node.presorted, grouped=node.group_col is not None
            )
        if isinstance(node, Multiply):
            both_fixed = _fixed_point(schema, node.left) and _fixed_point(schema, node.right)
            return operators.multiply_meter(n, p, isinstance(node.right, str), both_fixed)
        if isinstance(node, Divide):
            return operators.divide_meter(n, p)
        if isinstance(node, Compare):
            if _constant_comparison(schema, node.left, node.op, node.right):
                return CostMeter()
            shared = isinstance(node.right, str)
            rescaled = shared and _fixed_point(schema, node.left) != _fixed_point(schema, node.right)
            return operators.compare_meter(n, node.op, p, shared, rescaled)
        if isinstance(node, BoolOp):
            return operators.bool_op_meter(n, node.op, len(node.operands), p)
        if isinstance(node, Map):
            rescaled = _fixed_point(schema, node.left) != _fixed_point(schema, node.right)
            return operators.map_meter(n, rescaled)
        if isinstance(node, SortBy):
            return operators.sort_meter(n, cols_out, p)
        if isinstance(node, Distinct):
            return operators.distinct_meter(n, rows_out, p)
        if isinstance(node, Limit):
            return steps.local_meter(rows_out, cols_out)
        return CostMeter()

    def _garbled_cost(self, node: OpNode, rows_in: list[int], rows_out: int) -> tuple[int, int, int]:
        """(non-XOR gates, OT input bits, peak memory bytes) for Obliv-C plans."""
        cols_in = [len(parent.out_rel.schema) for parent in node.parents]
        cols_out = len(node.out_rel.schema)
        values_in = sum(r * c for r, c in zip(rows_in, cols_in))
        input_bits = 0
        for parent, n_rows, n_cols in zip(node.parents, rows_in, cols_in):
            if not parent.is_mpc:
                input_bits += n_rows * n_cols * VALUE_BITS

        gates = 0
        memory = (values_in + rows_out * cols_out) * BYTES_PER_VALUE
        n = rows_in[0] if rows_in else 0
        if isinstance(node, Filter):
            gates = n * (GATES_PER_COMPARISON + GATES_PER_MUX * cols_out)
        elif isinstance(node, Join):
            pairs = rows_in[0] * rows_in[1]
            gates = pairs * (GATES_PER_COMPARISON + GATES_PER_MUX * cols_out)
            memory = values_in * BYTES_PER_VALUE + pairs * BYTES_PER_JOIN_PAIR
        elif isinstance(node, Aggregate):
            if node.group_col is None:
                gates = max(0, n - 1) * GATES_PER_ADDITION
            else:
                comparators = 0 if node.presorted else steps.bitonic_comparator_count(n)
                gates = comparators * (GATES_PER_COMPARISON + 2 * GATES_PER_MUX)
                gates += max(0, n - 1) * (GATES_PER_COMPARISON + GATES_PER_ADDITION + GATES_PER_MUX)
        elif isinstance(node, Multiply):
            gates = n * GATES_PER_MULTIPLICATION
        elif isinstance(node, Divide):
            gates = n * 2 * GATES_PER_MULTIPLICATION
        elif isinstance(node, Compare):
            gates = n * GATES_PER_COMPARISON
        elif isinstance(node, BoolOp):
            # One non-XOR gate per operand pair per row; NOT is free.
            gates = n * max(0, len(node.operands) - 1)
        elif isinstance(node, Map):
            gates = n * GATES_PER_ADDITION
        elif isinstance(node, SortBy):
            comparators = steps.bitonic_comparator_count(n)
            gates = comparators * (GATES_PER_COMPARISON + 2 * GATES_PER_MUX * cols_out)
        elif isinstance(node, Distinct):
            comparators = steps.bitonic_comparator_count(n)
            gates = comparators * (GATES_PER_COMPARISON + 2 * GATES_PER_MUX) + max(0, n - 1) * GATES_PER_COMPARISON
        return gates, input_bits, memory

    # -- cleartext costs -----------------------------------------------------------------------------

    def _local_seconds(self, node: OpNode, rows_in: list[int], rows_out: int, prices) -> float:
        if isinstance(node, Create):
            return self._cleartext_records_seconds(rows_out, prices, wide=False)
        if isinstance(node, Collect):
            return self._cleartext_records_seconds(rows_in[0] if rows_in else 0, prices, wide=False)
        wide = isinstance(node, (Join, Aggregate, Distinct, SortBy, Merge, HybridAggregate))
        records = sum(rows_in) + (rows_out if wide else 0)
        return self._cleartext_records_seconds(records, prices, wide=wide)

    def _reveal_meter(self, node: OpNode, rows_in: list[int]) -> CostMeter:
        """Revealing each MPC parent of a cleartext node to the party that
        runs it — a ``Collect``'s to every recipient in turn, one round each."""
        recipients = len(node.recipients) if isinstance(node, Collect) else 1
        meter = CostMeter()
        for parent, n_rows in zip(node.parents, rows_in):
            if parent.is_mpc:
                columns = len(parent.out_rel.schema)
                step = operators.reveal_to_meter(n_rows, columns, self.params.num_parties)
                for _ in range(recipients):
                    meter.merge(step)
        return meter

    @staticmethod
    def _cleartext_records_seconds(records: int, prices, wide: bool) -> float:
        """One operator pass over ``records`` rows, priced like an executed one."""
        shuffled = records if wide else 0
        return prices.seconds(
            CleartextWork(stages=1, records_processed=records, records_shuffled=shuffled)
        )


def _fixed_point(schema: Schema, operand: "str | float") -> bool:
    """Whether an operand — a column name or a public scalar — is carried in
    fixed point by the share engine."""
    if isinstance(operand, str):
        return schema[operand].ctype is ColumnType.FLOAT
    return isinstance(operand, float) and not operand.is_integer()


def _constant_comparison(schema: Schema, column: str, op: str, right: "str | float") -> bool:
    """``int column == 2.5`` (or ``!=``) is decided without a secret comparison."""
    return (
        op in ("==", "!=")
        and not isinstance(right, str)
        and not float(right).is_integer()
        and not _fixed_point(schema, column)
    )
