"""Plan cost estimation for large-scale benchmark sweeps.

Executing the protocols on tens of millions of records in pure Python
would take longer than the real systems they simulate, so a compiled plan
is priced by *one shape run* of it: the executor itself over the engines of
:mod:`repro.mpc.shape`, whose relations carry only a row count.  Every node
runs the code it runs when it executes, every edge crosses in the
executor's rounds, and the seconds are its tally priced by
:func:`~repro.model.prices.price`, as an execution's are.  Estimates enter
in one place, :meth:`PlanEstimator._estimate_rows`:
the size of every relation, wherever the data decides it.  At the executed
row counts the estimate *is* the execution's accounting
(``tests/test_estimates.py``).

Obliv-C has no executor: under a :class:`~repro.model.prices.GarbledCostModel`
the MPC nodes are priced by their circuits
(:meth:`PlanEstimator._garbled_cost`), reporting out-of-memory failures
(:class:`EstimatedOOM`) as Figure 1 truncates its curves; the rest of the
plan comes from the same run.  ``timeout_seconds`` marks the "did not
finish" points of Figures 6 and 7.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

from repro.core.compiler import CompiledQuery
from repro.core.operators import (
    Aggregate,
    BoolOp,
    Compare,
    Concat,
    Create,
    Distinct,
    Filter,
    HybridAggregate,
    HybridJoin,
    Join,
    Limit,
    Map,
    Merge,
    OpNode,
    PublicJoin,
    SortBy,
)
from repro.hybrid.stp import LeakageReport
from repro.model import steps
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
    price,
)
from repro.mpc.shape import ShapeBackend, ShapeColumnarBackend, ShapeSTP, resized, shape_table
from repro.runtime.executor import PlanExecutor


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
    #: Abort the estimate when total simulated time exceeds this bound
    #: (mirrors the experiment timeouts in the paper, e.g. two hours).
    timeout_seconds: float | None = None

    def __post_init__(self) -> None:
        def real(value) -> bool:
            return isinstance(value, numbers.Real) and not isinstance(value, bool)

        domains = {
            "filter_selectivity": real(self.filter_selectivity)
            and 0 <= self.filter_selectivity <= 1,
            "distinct_fraction": real(self.distinct_fraction) and 0 <= self.distinct_fraction <= 1,
            "join_selectivity": real(self.join_selectivity) and self.join_selectivity >= 0,
            "row_overrides": all(
                isinstance(rows, numbers.Integral) and not isinstance(rows, bool) and rows >= 0
                for rows in self.row_overrides.values()
            ),
            "timeout_seconds": self.timeout_seconds is None
            or (real(self.timeout_seconds) and self.timeout_seconds > 0),
        }
        bad = [f"{name}={getattr(self, name)!r}" for name, ok in domains.items() if not ok]
        if bad:
            raise ValueError(f"estimator parameters out of their domains: {', '.join(bad)}")


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
    """Estimated cost of a whole compiled plan: what its shape run reports,
    in the fields an execution reports it in."""

    simulated_seconds: float
    nodes: list[NodeEstimate]
    #: Simulated seconds per engine (``local:<party>``, ``mpc:<backend>``).
    backend_seconds: dict[str, float]
    #: The MPC work and traffic counters (empty for an Obliv-C plan).
    mpc_profile: dict[str, int]
    #: ``(tag, messages, bytes)`` of every round, per network (an Obliv-C
    #: plan's circuits have none: only its crossings are listed).
    schedule: dict[str, list[tuple[str, int, int]]]
    leakage: LeakageReport
    timed_out: bool = False

    @property
    def mpc_seconds(self) -> float:
        return sum(s for name, s in self.backend_seconds.items() if name.startswith("mpc:"))

    @property
    def local_seconds(self) -> float:
        return sum(s for name, s in self.backend_seconds.items() if name.startswith("local:"))

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
    """Prices a compiled plan by running it on row counts, under the price
    lists ``cleartext`` (every party's engine) and ``mpc`` (the joint one;
    a :class:`~repro.model.prices.GarbledCostModel` prices Obliv-C
    circuits)."""

    def __init__(
        self,
        params: EstimatorParams | None = None,
        *,
        cleartext=PythonCostModel(),
        mpc=SharemindCostModel(),
    ):
        self.params = params or EstimatorParams()
        self.cleartext = cleartext
        self.mpc = mpc

    # -- public API ------------------------------------------------------------------------

    def estimate(self, compiled: CompiledQuery) -> PlanEstimate:
        """Estimate the end-to-end simulated runtime of a compiled query."""
        dag = compiled.dag
        order = dag.topological()
        unknown = sorted(set(self.params.row_overrides) - {node.out_rel.name for node in order})
        if unknown:
            raise KeyError(f"row_overrides name relations the plan does not have: {unknown}")
        parties = sorted(dag.parties())
        rows: dict[str, int] = {}
        inputs: dict[str, dict] = {}
        for node in order:
            rel = node.out_rel
            rows_in = [rows[parent.out_rel.name] for parent in node.parents]
            rows[rel.name] = self._estimate_rows(node, rows_in, len(parties))
            if isinstance(node, Create):
                inputs.setdefault(rel.owner, {})[rel.name] = shape_table(rel.schema, rows[rel.name])

        # One shape run stands in for every MPC target: Obliv-C counts circuits.
        garbled = isinstance(self.mpc, GarbledCostModel)
        run = _ShapeRun(parties, inputs, rows, self._circuit if garbled else None)
        outcome = run.execute(compiled)
        priced = price(dag, outcome.tally, self.cleartext, self.mpc)

        total = priced.simulated_seconds
        timeout = self.params.timeout_seconds
        return PlanEstimate(
            simulated_seconds=total,
            nodes=[
                NodeEstimate(
                    node,
                    [rows[parent.out_rel.name] for parent in node.parents],
                    rows[node.out_rel.name],
                    priced.node_seconds[node.node_id],
                    "mpc" if node.is_mpc else f"local:{node.run_at or node.out_rel.owner or '?'}",
                )
                for node in order
            ],
            backend_seconds=priced.backend_seconds,
            mpc_profile={} if garbled else outcome.mpc_profile,
            schedule={
                network: rounds for network, rounds in outcome.schedule.items()
                if not (garbled and network == "mpc")
            },
            leakage=outcome.leakage,
            timed_out=timeout is not None and total > timeout,
        )

    # -- row estimation -----------------------------------------------------------------------

    def _estimate_rows(self, node: OpNode, rows_in: list[int], num_parties: int) -> int:
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
                return max(1, int(rows_in[0] / max(1, num_parties)))
            return max(1, int(rows_in[0] * self.params.distinct_fraction))
        if isinstance(node, Distinct):
            return max(1, int(rows_in[0] * self.params.distinct_fraction))
        if isinstance(node, (HybridJoin, PublicJoin, Join)):
            return max(1, int(min(rows_in) * self.params.join_selectivity))
        if isinstance(node, Limit):
            return min(rows_in[0], node.n)
        return rows_in[0] if rows_in else 0

    # -- Obliv-C ------------------------------------------------------------------------------

    def _circuit(self, node: OpNode, rows_in: list[int], rows_out: int) -> tuple[int, int]:
        """(non-XOR gates, OT input bits) of an MPC node's circuit, which
        must fit in the price list's memory."""
        gates, input_bits, memory = self._garbled_cost(node, rows_in, rows_out)
        if memory > self.mpc.memory_limit_bytes:
            raise EstimatedOOM(node.op_name, memory, self.mpc.memory_limit_bytes)
        return gates, input_bits

    def _garbled_cost(self, node: OpNode, rows_in: list[int], rows_out: int) -> tuple[int, int, int]:
        """(non-XOR gates, OT input bits, peak memory bytes) for Obliv-C plans."""
        cols_in = [len(parent.out_rel.schema) for parent in node.parents]
        cols_out = len(node.out_rel.schema)
        values_in = sum(r * c for r, c in zip(rows_in, cols_in))
        input_bits = VALUE_BITS * sum(
            r * c for parent, r, c in zip(node.parents, rows_in, cols_in) if not parent.is_mpc
        )

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
            # One sort serves every output; each output is one scan.
            k = len(node.outputs)
            if node.group_col is None:
                gates = k * max(0, n - 1) * GATES_PER_ADDITION
            else:
                comparators = 0 if node.presorted else steps.bitonic_comparator_count(n)
                gates = comparators * (GATES_PER_COMPARISON + 2 * GATES_PER_MUX)
                gates += k * max(0, n - 1) * (
                    GATES_PER_COMPARISON + GATES_PER_ADDITION + GATES_PER_MUX
                )
        elif isinstance(node, Compare):
            gates = n * GATES_PER_COMPARISON
        elif isinstance(node, BoolOp):
            # One non-XOR gate per operand pair per row; NOT is free.
            gates = n * max(0, len(node.operands) - 1)
        elif isinstance(node, Map):
            per_row = {"*": GATES_PER_MULTIPLICATION, "/": 2 * GATES_PER_MULTIPLICATION}
            gates = n * per_row.get(node.op, GATES_PER_ADDITION)
        elif isinstance(node, SortBy):
            comparators = steps.bitonic_comparator_count(n)
            gates = comparators * (GATES_PER_COMPARISON + 2 * GATES_PER_MUX * cols_out)
        elif isinstance(node, Distinct):
            comparators = steps.bitonic_comparator_count(n)
            gates = comparators * (GATES_PER_COMPARISON + 2 * GATES_PER_MUX) + max(0, n - 1) * GATES_PER_COMPARISON
        return gates, input_bits, memory


class _ShapeRun(PlanExecutor):
    """The executor over the shape engines: every node's data-dependent
    output is its estimate, ``rows``, and so is every relation it makes."""

    trusted_party = ShapeSTP

    def __init__(self, parties, inputs, rows: dict[str, int], circuit):
        self.rows = rows
        self.rows_out = 0
        #: Obliv-C: an MPC node's ``(gates, input bits)``, and the tally so far.
        self.circuit = circuit
        self.circuits = (0, 0, 0)
        super().__init__(parties, inputs)

    def cleartext_engine(self) -> ShapeColumnarBackend:
        return ShapeColumnarBackend(lambda: self.rows_out)

    def _make_mpc_backend(self) -> ShapeBackend:
        return ShapeBackend(self.parties[: ShapeBackend.MAX_PARTIES], lambda: self.rows_out)

    def _execute_node(self, node, outputs):
        self.rows_out = self.rows[node.out_rel.name]
        entry = super()._execute_node(node, outputs)
        if self.circuit is not None and node.is_mpc:
            rows_in = [self.rows[parent.out_rel.name] for parent in node.parents]
            gates, input_bits = self.circuit(node, rows_in, self.rows_out)
            nodes, total_gates, total_bits = self.circuits
            self.circuits = (nodes + 1, total_gates + gates, total_bits + input_bits)
        if entry.handle is not None:
            entry.handle = resized(entry.handle, self.rows_out)
        return entry

    def _counts(self):
        counts = super()._counts()
        if self.circuit is not None and "mpc" in counts:
            counts["mpc"] = self.circuits
        return counts
