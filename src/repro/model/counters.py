"""What is counted: the tallies an execution fills in and an estimate predicts."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

#: Wire size of one 64-bit ring element (a share), in bytes.
SHARE_BYTES = 8


@dataclass
class NetworkStats:
    """Aggregate traffic counters for one protocol execution.

    ``rounds`` counts every round the cost model charges for, including the
    analytic rounds of the ideal-functionality protocol steps;
    ``wire_rounds`` counts only *real* message exchanges
    (:meth:`~repro.mpc.network.Network.round` calls that carried traffic) —
    the number of synchronous mesh round trips a distributed execution
    performs.  The batched share-vector protocols keep ``wire_rounds``
    independent of row count.
    """

    messages: int = 0
    bytes_sent: int = 0
    rounds: int = 0
    wire_rounds: int = 0

    def merge(self, other: "NetworkStats") -> None:
        self.messages += other.messages
        self.bytes_sent += other.bytes_sent
        self.rounds += other.rounds
        self.wire_rounds += other.wire_rounds

    def copy(self) -> "NetworkStats":
        return NetworkStats(self.messages, self.bytes_sent, self.rounds, self.wire_rounds)

    def reset(self) -> None:
        self.messages = 0
        self.bytes_sent = 0
        self.rounds = 0
        self.wire_rounds = 0


@dataclass
class CostMeter:
    """Counts of the work of one MPC execution, protocol step or estimate."""

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

    def reset(self) -> None:
        for name in _OPERATION_COUNTERS:
            setattr(self, name, 0)
        self.network.reset()

    def counts(self) -> dict[str, int]:
        """Every counter by name, the network's among them."""
        return {name: getattr(self, name) for name in _OPERATION_COUNTERS} | vars(self.network)


_OPERATION_COUNTERS = tuple(f.name for f in fields(CostMeter) if f.name != "network")


@dataclass
class CleartextWork:
    """Counts of the cleartext work one party's engine performed."""

    #: Relations loaded into the engine (one job submission each).
    jobs: int = 0
    #: Operator passes (one stage each).
    stages: int = 0
    #: Records touched, summed over operator passes.
    records_processed: int = 0
    #: Records repartitioned by key for the wide operators (join, grouped
    #: aggregation, distinct, sort, merge).
    records_shuffled: int = 0
