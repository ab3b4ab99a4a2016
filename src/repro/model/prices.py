"""The price lists, and the one function that prices a run.

Shapes of all benchmark curves follow from the counted work of each
protocol (:mod:`repro.model.steps`), not from hard-coded curves; only the
per-operation constants below are calibration inputs, set to the paper's
testbed (4 vCPU / 8 GB Sharemind VMs on a 1 Gb/s LAN, three 2-vCPU Spark
workers per party).  The anchors, which ``tests/test_figures.py`` asserts as
curve shapes (the ``test_fig1a``/``1b``/``1c`` and ``test_fig5a``/``5b``
claims):

* Sharemind takes ~200 s to sort 16,000 elements (§2.3, citing Jónsson et
  al.), and >10 minutes for a projection of 3M records due to sharing and
  storage-layer overhead (Figure 1c).
* A Sharemind aggregation over 30k records takes ~10 minutes and a join over
  the same input over twenty minutes (Figure 5 caption).
* Obliv-C runs out of memory at ~30k records for a join and ~300k records
  for a projection on 4 GB VMs (Figure 1).

A plan holds no prices: runs and estimates report a tally
(:mod:`repro.model.counters`), and :func:`price` prices it under a cleartext
list (Python by default, or Spark) and an MPC one (Sharemind by default, or
garbled circuits, which only the estimator counts), so one run prices under
every list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple

from repro.model.counters import CleartextWork, CostMeter


@dataclass(frozen=True)
class SharemindCostModel:
    """Price list of the secret-sharing (Sharemind-style) backend."""

    name: ClassVar[str] = "sharemind"
    #: Fixed protocol start-up, paid once per MPC job (paper §7): from the
    #: plan's first MPC node on.
    startup_seconds: float = 2.0
    #: Secret-sharing + storage-layer overhead per input record.
    per_input_record_seconds: float = 2.0e-4
    #: Per revealed output record.
    per_output_record_seconds: float = 2.0e-5
    #: Per Beaver-triple multiplication (batched).
    per_multiplication_seconds: float = 2.0e-6
    #: Per oblivious comparison or equality test (includes its internal
    #: multiplications and bit-decomposition work).
    per_comparison_seconds: float = 5.0e-5
    #: Per element passed through an oblivious shuffle / reshare.
    per_shuffle_element_seconds: float = 1.0e-5
    #: Per cheap local share operation.
    per_local_op_seconds: float = 5.0e-8
    #: One network round-trip (LAN).
    round_latency_seconds: float = 1.0e-3
    #: Effective LAN bandwidth.
    bytes_per_second: float = 125.0e6

    def work_seconds(self, meter: CostMeter) -> float:
        """The metered work alone, in simulated seconds (the start-up is
        charged separately, once per job)."""
        return (
            meter.input_records * self.per_input_record_seconds
            + meter.output_records * self.per_output_record_seconds
            + meter.multiplications * self.per_multiplication_seconds
            + meter.comparisons * self.per_comparison_seconds
            + meter.shuffled_elements * self.per_shuffle_element_seconds
            + meter.local_ops * self.per_local_op_seconds
            + meter.network.rounds * self.round_latency_seconds
            + meter.network.bytes_sent / self.bytes_per_second
        )

    def tally_seconds(self, rows) -> list[float]:
        """The cumulative seconds of an ``mpc`` tally's rows (the started
        flag, then ``CostMeter.counts()``): the metered work, plus the job's
        start-up once it has started."""
        return [
            (self.startup_seconds if row[0] else 0.0)
            + self.work_seconds(CostMeter.from_counts(row[1:]))
            for row in rows
        ]


#: Bits per value in the garbled circuits the estimator prices.
VALUE_BITS = 64
#: Non-XOR gates of a 64-bit comparison / equality test.
GATES_PER_COMPARISON = VALUE_BITS
#: Non-XOR gates of a 64-bit addition.
GATES_PER_ADDITION = VALUE_BITS
#: Non-XOR gates of a 64-bit (schoolbook) multiplication.
GATES_PER_MULTIPLICATION = VALUE_BITS * VALUE_BITS
#: Non-XOR gates of a 64-bit 2:1 multiplexer (oblivious select).
GATES_PER_MUX = VALUE_BITS
#: Resident bytes of circuit state per secret 64-bit value (wire labels plus
#: the framework's buffering; calibrated so projections exhaust a 4 GB VM at
#: roughly 300-500k records, as in Figure 1c).
BYTES_PER_VALUE = 8192
#: Resident bytes per Cartesian-product pair during a join (the match flag
#: wires and bookkeeping; calibrated so joins exhaust 4 GB at ~30k records,
#: as in Figure 1b).
BYTES_PER_JOIN_PAIR = 16


@dataclass(frozen=True)
class GarbledCostModel:
    """Price list of the garbled-circuit (Obliv-C / ObliVM-style) backend.

    Garbled-circuit executions are dominated by the number of non-XOR gates
    (each requiring garbled-table generation, transfer, and evaluation) and
    by the circuit state held in memory (wire labels).  ``memory_limit_bytes``
    reproduces the out-of-memory failures the paper reports for Obliv-C.
    """

    name: ClassVar[str] = "obliv-c"
    #: Fixed start-up (OT base phase, process launch).
    startup_seconds: float = 1.0
    #: Per non-XOR gate: garbling + evaluation + transfer (amortised).
    per_gate_seconds: float = 1.0e-6
    #: Garbled-table bytes shipped per non-XOR gate.
    bytes_per_gate: int = 32
    #: Bytes of circuit state (wire labels, buffered tables) retained per
    #: live wire.
    bytes_per_live_wire: int = 16
    #: Oblivious-transfer cost per input bit.
    per_input_bit_seconds: float = 2.0e-6
    #: Effective LAN bandwidth.
    bytes_per_second: float = 125.0e6
    #: Memory available to the MPC process (the paper's VMs have 4 GB).
    memory_limit_bytes: int = 4 * 1024**3

    def seconds(self, gates: int, input_bits: int) -> float:
        """Simulated execution time for a circuit with ``gates`` non-XOR gates."""
        transfer = gates * self.bytes_per_gate / self.bytes_per_second
        return (
            self.startup_seconds
            + gates * self.per_gate_seconds
            + input_bits * self.per_input_bit_seconds
            + transfer
        )

    def memory_bytes(self, live_wires: int, buffered_gates: int) -> int:
        """Resident memory for a circuit with the given live state."""
        return live_wires * self.bytes_per_live_wire + buffered_gates * self.bytes_per_gate

    def tally_seconds(self, rows) -> list[float]:
        """The cumulative seconds of a circuit tally's rows (MPC nodes,
        non-XOR gates and OT input bits so far): every MPC node is its own
        circuit, start-up included."""
        total, column = 0.0, []
        for (nodes, gates, bits), (nodes_0, gates_0, bits_0) in zip(rows, [(0, 0, 0), *rows]):
            if nodes > nodes_0:
                total += self.seconds(gates - gates_0, bits - bits_0)
            column.append(total)
        return column


@dataclass(frozen=True)
class ObliVMCostModel(GarbledCostModel):
    """Price list of SMCQL's ObliVM backend.

    ObliVM is a Java garbled-circuit framework; the paper observes it to be
    considerably slower than both Obliv-C and Sharemind on relational
    workloads (§7.4).  We model that with a higher per-gate cost and a
    larger fixed start-up (JVM + circuit compilation), while keeping the
    same asymptotics.
    """

    name: ClassVar[str] = "oblivm"
    startup_seconds: float = 5.0
    per_gate_seconds: float = 8.0e-6
    per_input_bit_seconds: float = 8.0e-6
    #: SMCQL experiments in the paper use 32 GB VMs.
    memory_limit_bytes: int = 32 * 1024**3


@dataclass(frozen=True)
class PythonCostModel:
    """Price list for single-core sequential cleartext processing."""

    #: Fixed interpreter/start-up overhead, paid once by any non-empty tally.
    startup_seconds: float = 0.1
    #: Seconds per record per operator pass on one core.
    per_record_seconds: float = 1.0e-6

    def seconds(self, work: CleartextWork) -> float:
        startup = self.startup_seconds if work.jobs or work.stages else 0.0
        return startup + work.records_processed * self.per_record_seconds


@dataclass(frozen=True)
class SparkCostModel:
    """Price list for the data-parallel cluster (three 2-vCPU workers per
    party in the paper's testbed)."""

    #: Total executor cores available to one job.
    total_cores: int = 6
    #: Fixed driver/job-submission overhead per job.
    job_overhead_seconds: float = 4.0
    #: Scheduling overhead per stage.
    stage_overhead_seconds: float = 1.0
    #: Task launch overhead; a stage runs one wave of one task per core.
    task_overhead_seconds: float = 0.05
    #: CPU seconds per record per operator pass (one core).
    per_record_seconds: float = 1.5e-6
    #: Extra seconds per record moved through a shuffle (serialise, network,
    #: deserialise).
    per_shuffle_record_seconds: float = 5.0e-6

    def seconds(self, work: CleartextWork) -> float:
        compute = work.records_processed * self.per_record_seconds
        shuffle = work.records_shuffled * self.per_shuffle_record_seconds
        return (
            (compute + shuffle) / max(1, self.total_cores)
            + work.jobs * self.job_overhead_seconds
            + work.stages * (self.stage_overhead_seconds + self.task_overhead_seconds)
        )


class Priced(NamedTuple):
    """Seconds per node, the plan's completion time, seconds per engine."""

    node_seconds: dict[int, float]
    simulated_seconds: float
    backend_seconds: dict[str, float]


def price(dag, tally, cleartext=PythonCostModel(), mpc=SharemindCostModel()) -> Priced:
    """Price a run of ``dag`` from its ``tally``: ``cleartext`` prices every
    ``local:<party>`` engine and ``mpc`` the ``mpc`` one.  A node's seconds
    are how much the engines' summed seconds grew while it ran, so work at
    different parties overlaps in :func:`completion_seconds`."""
    order = dag.topological()
    columns: dict[str, list[float]] = {}
    for engine, counts in tally.items():
        rows = counts.tolist()
        if engine == "mpc":
            columns[f"mpc:{mpc.name}"] = mpc.tally_seconds(rows)
        else:
            columns[engine] = [cleartext.seconds(CleartextWork(*row)) for row in rows]
    node_seconds: dict[int, float] = {}
    before = 0.0
    for i, node in enumerate(order):
        after = sum(column[i] for column in columns.values())
        node_seconds[node.node_id] = after - before
        before = after
    backend_seconds = {engine: column[-1] for engine, column in columns.items()}
    return Priced(node_seconds, completion_seconds(order, node_seconds), backend_seconds)


def completion_seconds(nodes, durations: dict[int, float]) -> float:
    """Completion-time recurrence of a plan's ``nodes`` in topological order
    (a ``Dag`` iterates so), executed or estimated: independent work at
    different parties overlaps, so a node starts when its slowest parent
    finished.  The MPC is one computation that runs its nodes one after
    another, so an MPC node also waits for the previous one."""
    finish: dict[int, float] = {}
    mpc_free = 0.0
    for node in nodes:
        start = max((finish[p.node_id] for p in node.parents), default=0.0)
        if node.is_mpc:
            start = max(start, mpc_free)
        finish[node.node_id] = start + durations.get(node.node_id, 0.0)
        if node.is_mpc:
            mpc_free = finish[node.node_id]
    return max(finish.values(), default=0.0)
