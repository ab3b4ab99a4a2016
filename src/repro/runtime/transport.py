"""Pluggable transports for the party-to-party network.

The secret-sharing engine communicates in *rounds*: a list of
``(sender, receiver, payload)`` messages that travel in parallel and are all
consumed before the next round starts.  :class:`~repro.mpc.network.Network`
validates and accounts for each round and hands it to a :class:`Transport`,
whose one operation is :meth:`Transport.exchange` — carry the round, return
``{(sender, receiver): payload}`` as delivered:

* :class:`SimulatedTransport` — one Python process models every party, so
  every payload is delivered as given.
* :class:`SocketTransport` — each party runs as its own OS process and the
  party processes execute the joint MPC protocol in lockstep from a shared
  seed, so an endpoint knows which party it embodies (``local_party``).  It
  first writes every message of the round that party sends to the agent
  mesh, then reads every message addressed to it; what it returns for
  those is the payload read off the socket, never the locally computed
  copy.  Messages between two remote parties are returned as given (a
  ``None`` placeholder when the local engine does not hold the payload) —
  no local computation consumes them.

The schedule of rounds is the same on every transport, which is what makes
:class:`~repro.model.counters.NetworkStats` identical whichever transport
carries the traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.mesh import MeshChannel

#: One round's messages: ``(sender, receiver, payload)`` triples.
Sends = list[tuple[str, str, Any]]
#: What a round delivered: ``{(sender, receiver): payload}``.
Delivered = dict[tuple[str, str], Any]


class TransportError(RuntimeError):
    """A transport-level failure (peer gone, frame mismatch, timeout)."""


class Transport:
    """Carries one communication round at a time between named parties."""

    #: The party this endpoint embodies, or ``None`` for the in-process
    #: fabric that models every party at once.
    local_party: str | None = None

    def __init__(self, party_names: list[str]):
        self.party_names = list(party_names)

    def exchange(self, tag: str, sends: Sends, size_bytes: int) -> Delivered:
        """Carry one round; returns ``{(sender, receiver): payload}`` as delivered."""
        raise NotImplementedError

    @property
    def reference_party(self) -> str:
        """The party whose view of received payloads this endpoint holds."""
        return self.local_party or self.party_names[0]

    def close(self) -> None:
        """Release any transport resources (nothing to release in-process)."""


class SimulatedTransport(Transport):
    """The in-process fabric: every payload arrives as it was sent."""

    def exchange(self, tag: str, sends: Sends, size_bytes: int) -> Delivered:
        return {(sender, receiver): payload for sender, receiver, payload in sends}


class SocketTransport(Transport):
    """Per-party endpoint carrying cross-party messages over the TCP mesh.

    ``party_names`` are the *computing* parties of the MPC engine — a subset
    of the agents in the mesh.  The SPMD invariant is that every agent
    performs the same ``exchange`` calls in the same order; this endpoint
    turns the messages it sends into socket writes and the messages it
    receives into blocking socket reads, and verifies that what arrives
    matches the replicated computation's expectation.  All writes of a
    round happen before its first read, so no agent's send waits on another
    agent's frame.
    """

    def __init__(self, party_names: list[str], mesh: "MeshChannel"):
        super().__init__(party_names)
        self.mesh = mesh
        self.local_party = mesh.party

    def exchange(self, tag: str, sends: Sends, size_bytes: int) -> Delivered:
        me, peers = self.local_party, self.mesh.peers
        for sender, receiver, payload in sends:
            if sender == me and receiver in peers:
                self.mesh.send_message(receiver, tag, payload)
        delivered = {}
        for sender, receiver, payload in sends:
            if receiver == me and sender in peers:
                # The bytes that genuinely crossed the process boundary
                # replace the local replica.
                payload = self._receive(tag, sender)
            delivered[(sender, receiver)] = payload
        return delivered

    def _receive(self, tag: str, sender: str) -> Any:
        """Read ``sender``'s frame of this round and check it belongs to the
        round the replicated computation expects.  The link names the
        sender and this endpoint is the receiver, so the tag is all a frame
        carries to check."""
        got_tag, payload = self.mesh.receive_message(sender)
        if got_tag != tag:
            raise TransportError(
                f"protocol desynchronisation: expected a {tag!r} message from "
                f"{sender!r} to {self.local_party!r} but received {got_tag!r}"
            )
        return payload

    def close(self) -> None:
        # Releases the channel's per-query queues; the shared sockets stay open.
        self.mesh.close()
