"""Plan cost estimation for large-scale benchmark sweeps.

Executing the functional protocols on tens of millions of records in pure
Python would take longer than the real systems they simulate, so the
benchmark harness prices compiled plans analytically: every operator's work
is computed from the closed-form operation counts in
:mod:`repro.mpc.estimates` (which mirror the functional protocols
one-to-one) and converted to simulated seconds with the price lists the
executing engines' tallies are converted with.  The garbled-circuit
(Obliv-C) target is priced only here (:meth:`PlanEstimator._garbled_cost`);
nothing executes it.  Completion times follow the same recurrence as the
dispatcher, so independent per-party work overlaps.

The estimator reports out-of-memory failures of the garbled-circuit backend
(via :class:`EstimatedOOM`) instead of a time, reproducing the truncated
Obliv-C curves of Figure 1, and can cap runtimes with ``timeout_seconds`` to
reproduce the "did not finish within an hour" points of Figures 6 and 7.
"""

from __future__ import annotations

import math
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
from repro.exec.costs import CleartextWork, PythonCostModel, SparkCostModel
from repro.mpc import estimates
from repro.mpc.runtime import (
    BYTES_PER_JOIN_PAIR,
    BYTES_PER_VALUE,
    GATES_PER_ADDITION,
    GATES_PER_COMPARISON,
    GATES_PER_MULTIPLICATION,
    GATES_PER_MUX,
    VALUE_BITS,
    CostMeter,
    GarbledCostModel,
    SharemindCostModel,
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
        finish: dict[int, float] = {}
        node_estimates: list[NodeEstimate] = []
        mpc_seconds = 0.0
        local_seconds = 0.0
        use_garbled = compiled.config.mpc_backend == "obliv-c"
        prices = self.cleartext_models[compiled.config.cleartext_backend]
        timed_out = False

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

            start = max((finish[p.node_id] for p in node.parents), default=0.0)
            finish[node.node_id] = start + seconds
            node_estimates.append(NodeEstimate(node, rows_in, rows_out, seconds, locus))

            if (
                self.params.timeout_seconds is not None
                and finish[node.node_id] > self.params.timeout_seconds
            ):
                timed_out = True

        total = max(finish.values(), default=0.0)
        return PlanEstimate(
            simulated_seconds=total,
            mpc_seconds=mpc_seconds,
            local_seconds=local_seconds,
            nodes=node_estimates,
            timed_out=timed_out,
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
        p = self.params.num_parties
        cols_in = [len(parent.out_rel.schema) for parent in node.parents]
        cols_out = len(node.out_rel.schema)
        meter = CostMeter()
        # Data that crosses from cleartext into this MPC operator is
        # secret-shared first.
        for parent, n_rows, n_cols in zip(node.parents, rows_in, cols_in):
            if not parent.is_mpc and not isinstance(parent, Create):
                meter.merge(estimates.share_input_meter(n_rows, n_cols, p))
            elif isinstance(parent, Create):
                meter.merge(estimates.share_input_meter(n_rows, n_cols, p))

        if isinstance(node, Merge):
            meter.merge(estimates.merge_meter(sum(rows_in), cols_out, p))
        elif isinstance(node, Concat):
            meter.local_ops += sum(rows_in) * cols_out
        elif isinstance(node, Project):
            meter.local_ops += rows_in[0] * cols_out
        elif isinstance(node, Filter):
            meter.merge(estimates.filter_meter(rows_in[0], cols_out, p))
        elif isinstance(node, HybridJoin):
            meter.merge(estimates.hybrid_join_meter(*rows_in, rows_out, *cols_in, p))
        elif isinstance(node, PublicJoin):
            meter.merge(estimates.reveal_meter(rows_in[0] + rows_in[1], 1, p))
            meter.local_ops += rows_out * cols_out
        elif isinstance(node, Join):
            meter.merge(estimates.join_meter(rows_in[0], rows_in[1], cols_out, p))
        elif isinstance(node, HybridAggregate):
            meter.merge(estimates.hybrid_aggregate_meter(rows_in[0], rows_out, p))
        elif isinstance(node, Aggregate):
            scalar = node.group_col is None
            meter.merge(
                estimates.aggregate_meter(rows_in[0], p, presorted=node.presorted, scalar=scalar)
            )
        elif isinstance(node, (Multiply, Divide)):
            if isinstance(node, Divide) and isinstance(node.right, str):
                meter.multiplications += 15 * rows_in[0]
            elif isinstance(node, Multiply) and isinstance(node.right, str):
                meter.multiplications += rows_in[0]
            else:
                meter.local_ops += rows_in[0]
        elif isinstance(node, Compare):
            # Every operator costs one secret comparison per element
            # (mirrors _comparison_flags; negations are local).
            meter.comparisons += rows_in[0]
        elif isinstance(node, BoolOp):
            if node.op == "not":
                meter.local_ops += rows_in[0]
            else:
                # and/or fold with one secret multiplication per operand pair.
                meter.multiplications += max(1, len(node.operands) - 1) * rows_in[0]
        elif isinstance(node, Map):
            # Additions/subtractions are local on additive shares.
            meter.local_ops += rows_in[0]
        elif isinstance(node, SortBy):
            meter.merge(estimates.sort_meter(rows_in[0], cols_out, p))
        elif isinstance(node, Distinct):
            meter.merge(estimates.aggregate_meter(rows_in[0], p))
        elif isinstance(node, Limit):
            meter.local_ops += rows_out * cols_out
        elif isinstance(node, Collect):
            meter.merge(estimates.reveal_meter(rows_in[0], cols_out, p))
        return meter

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
                comparators = 0 if node.presorted else estimates.bitonic_comparator_count(n)
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
            comparators = estimates.bitonic_comparator_count(n)
            gates = comparators * (GATES_PER_COMPARISON + 2 * GATES_PER_MUX * cols_out)
        elif isinstance(node, Distinct):
            comparators = estimates.bitonic_comparator_count(n)
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

    @staticmethod
    def _cleartext_records_seconds(records: int, prices, wide: bool) -> float:
        """One operator pass over ``records`` rows, priced like an executed one."""
        shuffled = records if wide else 0
        return prices.seconds(
            CleartextWork(stages=1, records_processed=records, records_shuffled=shuffled)
        )
