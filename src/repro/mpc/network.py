"""Party-to-party network with pluggable transports.

MPC protocols are communication-bound: secret-sharing multiplications need a
message exchange, oblivious shuffles reshare whole relations, and garbled
circuits ship megabytes of truth tables.  The real Conclave prototype pays
these costs on actual datacentre links; here every transfer goes through a
:class:`Network` object that records messages, bytes, and *rounds* (batches
of messages that travel in parallel), so the price lists in
:mod:`repro.model.prices` can reconstruct realistic wall-clock times.

The network has one communication primitive, :meth:`Network.round`: it
validates the round's messages, accounts for them, and hands them to a
:class:`~repro.runtime.transport.Transport` to carry:

* the default :class:`~repro.runtime.transport.SimulatedTransport` delivers
  every payload inside the one process that models all parties;
* a :class:`~repro.runtime.transport.SocketTransport` endpoint, used by the
  distributed runtime, moves every message between two distinct parties
  over a real TCP connection between per-party OS processes.

Accounting always happens here, before the transport sees the round, so the
recorded traffic is identical whichever transport carries it.
"""

from __future__ import annotations

from repro.model.counters import NetworkStats
from repro.runtime.transport import Delivered, Sends, SimulatedTransport, Transport

__all__ = ["Network"]


class Network:
    """Message fabric connecting the computing parties.

    Parties address each other by name.  :meth:`round` carries one batch of
    messages: they are assumed to travel in parallel, so a round contributes
    a single round-trip latency to the cost model regardless of how many
    parties exchanged data.
    """

    def __init__(self, party_names: list[str], transport: Transport | None = None):
        if len(set(party_names)) != len(party_names):
            raise ValueError("party names must be unique")
        self.party_names = list(party_names)
        if transport is None:
            transport = SimulatedTransport(self.party_names)
        elif list(transport.party_names) != self.party_names:
            raise ValueError(
                f"transport parties {transport.party_names} do not match the "
                f"network parties {self.party_names}"
            )
        self.transport = transport
        self.stats = NetworkStats()

    @property
    def reference_party(self) -> str:
        """The party whose view of received payloads this endpoint exposes.

        For the in-process transport every party's view is available and the
        first party is used by convention; a socket endpoint embodies one
        specific party, whose inbound payloads arrive off the wire.
        """
        return self.transport.reference_party

    def round(self, tag: str, sends: Sends, size_bytes: int) -> Delivered:
        """Carry one communication round: every ``(sender, receiver, payload)``
        of ``sends`` travels in parallel, each metered at ``size_bytes``.

        Returns ``{(sender, receiver): payload}`` as *delivered* — for the
        local party of a socket transport these are the bytes that crossed
        the process boundary, not the local copies.  ``tag`` names the
        protocol step, so a socket endpoint can tell a peer that has fallen
        out of lockstep.  Only a round that carries traffic is counted; it
        is the one place ``wire_rounds`` advances — the analytic rounds of
        the ideal-functionality steps (``engine.charge``) raise the cost
        model's ``rounds`` without implying a synchronous mesh round trip.
        """
        for sender, receiver, _payload in sends:
            self._check_party(sender)
            self._check_party(receiver)
            if sender == receiver:
                raise ValueError("a party cannot send a network message to itself")
        if not sends:
            return {}
        size_bytes = int(size_bytes)
        self.stats.messages += len(sends)
        self.stats.bytes_sent += len(sends) * size_bytes
        self.stats.rounds += 1
        self.stats.wire_rounds += 1
        return self.transport.exchange(tag, sends, size_bytes)

    def _check_party(self, name: str) -> None:
        if name not in self.party_names:
            raise KeyError(f"unknown party {name!r}; known parties: {self.party_names}")
