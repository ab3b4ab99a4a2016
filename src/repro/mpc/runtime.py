"""Cost accounting and cost models for the MPC substrates.

The reproduction cannot run the original testbed (Sharemind appliances,
Obliv-C processes and Spark clusters on separate VMs), so the share engine
counts the work it performs — secret multiplications, oblivious comparisons,
shuffled elements, network rounds and bytes, records moved in and out of
MPC — in a :class:`CostMeter`.  A cost model then converts those counts into
*simulated seconds* using per-operation constants calibrated against the
behaviour reported in the paper (Figure 1 and the textual data points in
§2.3 and §7).  Shapes of all benchmark curves therefore follow from the
actual counted work of each protocol, not from hard-coded curves; only the
constants below are calibration inputs.

Calibration anchors (see EXPERIMENTS.md):

* Sharemind takes ~200 s to sort 16,000 elements (§2.3, citing Jónsson et
  al.), and >10 minutes for a projection of 3M records due to sharing and
  storage-layer overhead (Figure 1c).
* A Sharemind aggregation over 30k records takes ~10 minutes and a join over
  the same input over twenty minutes (Figure 5 caption).
* Obliv-C runs out of memory at ~30k records for a join and ~300k records
  for a projection on 4 GB VMs (Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.mpc.network import NetworkStats


@dataclass
class CostMeter:
    """Counts of the work performed by one (simulated) MPC execution."""

    #: Cheap local operations on shares (additions, copies), per element.
    local_ops: int = 0
    #: Records secret-shared into the MPC (drives input/storage overhead).
    input_records: int = 0
    #: Records opened / revealed out of the MPC.
    output_records: int = 0
    #: Secret-shared multiplications (Beaver-triple uses).
    multiplications: int = 0
    #: Oblivious comparisons / equality tests (each is many multiplications,
    #: counted separately because they dominate sort- and join-heavy plans).
    comparisons: int = 0
    #: Elements moved by oblivious shuffles / reshares.
    shuffled_elements: int = 0
    #: Network traffic counters.
    network: NetworkStats = field(default_factory=NetworkStats)

    def merge(self, other: "CostMeter") -> None:
        """Accumulate another meter's counts into this one."""
        for name in _OPERATION_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.network.merge(other.network)

    def copy(self) -> "CostMeter":
        return replace(self, network=self.network.copy())

    def reset(self) -> None:
        for name in _OPERATION_COUNTERS:
            setattr(self, name, 0)
        self.network.reset()


_OPERATION_COUNTERS = tuple(f.name for f in fields(CostMeter) if f.name != "network")


@dataclass(frozen=True)
class SharemindCostModel:
    """Cost model for the secret-sharing (Sharemind-style) backend.

    All constants are per-operation simulated seconds on the paper's
    testbed-class hardware (4 vCPU / 8 GB Sharemind VM, 1 Gb/s LAN).
    """

    #: Fixed protocol/session start-up time.
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

    def seconds(self, meter: CostMeter) -> float:
        """Convert a cost meter into simulated seconds."""
        return (
            self.startup_seconds
            + meter.input_records * self.per_input_record_seconds
            + meter.output_records * self.per_output_record_seconds
            + meter.multiplications * self.per_multiplication_seconds
            + meter.comparisons * self.per_comparison_seconds
            + meter.shuffled_elements * self.per_shuffle_element_seconds
            + meter.local_ops * self.per_local_op_seconds
            + meter.network.rounds * self.round_latency_seconds
            + meter.network.bytes_sent / self.bytes_per_second
        )


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
    """Cost model for the garbled-circuit (Obliv-C / ObliVM-style) backend.

    Garbled-circuit executions are dominated by the number of non-XOR gates
    (each requiring garbled-table generation, transfer, and evaluation) and
    by the circuit state held in memory (wire labels).  ``memory_limit_bytes``
    reproduces the out-of-memory failures the paper reports for Obliv-C.
    """

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


@dataclass(frozen=True)
class ObliVMCostModel(GarbledCostModel):
    """Cost model for SMCQL's ObliVM backend.

    ObliVM is a Java garbled-circuit framework; the paper observes it to be
    considerably slower than both Obliv-C and Sharemind on relational
    workloads (§7.4).  We model that with a higher per-gate cost and a
    larger fixed start-up (JVM + circuit compilation), while keeping the
    same asymptotics.
    """

    startup_seconds: float = 5.0
    per_gate_seconds: float = 8.0e-6
    per_input_bit_seconds: float = 8.0e-6
    #: SMCQL experiments in the paper use 32 GB VMs.
    memory_limit_bytes: int = 32 * 1024**3
