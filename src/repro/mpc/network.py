"""Party-to-party network: the one primitive every MPC round goes through.

MPC protocols are communication-bound: secret-sharing multiplications need a
message exchange, oblivious shuffles reshare whole relations, and garbled
circuits ship megabytes of truth tables.  The real Conclave prototype pays
these costs on actual datacentre links; here every transfer goes through a
:class:`Network` object that records messages, bytes, and *rounds* (batches
of messages that travel in parallel), so the price lists in
:mod:`repro.model.prices` can reconstruct realistic wall-clock times.

The network has one communication primitive, :meth:`Network.round`: it
validates the round's messages, accounts for them, and carries them:

* with no channel, one process models every party and every payload is
  delivered as given;
* with a channel — the query's :class:`~repro.runtime.mesh.MeshChannel` in
  the distributed runtime, where each party runs as its own OS process and
  the processes execute the joint protocol in lockstep from a shared seed —
  the round first writes every message the channel's party sends, then reads
  every message addressed to it off the wire.  No write waits on another
  party's frame, and what the round returns for an inbound message is the
  payload read off the socket, never the locally computed copy.  Messages
  between two other parties are returned as given (a ``None`` placeholder
  when the local engine does not hold the payload); no local computation
  consumes them.

Accounting always happens before the round is carried, so the recorded
traffic — the counters and the :attr:`Network.schedule` of rounds — is
identical whichever way it travels.
"""

from __future__ import annotations

from typing import Any

from repro.model.counters import NetworkStats

__all__ = ["Network", "TransportError"]

#: One round's messages: ``(sender, receiver, payload)`` triples.
Sends = list[tuple[str, str, Any]]
#: What a round delivered: ``{(sender, receiver): payload}``.
Delivered = dict[tuple[str, str], Any]


class TransportError(RuntimeError):
    """A failure carrying a round or a frame (peer gone, frame mismatch, timeout)."""


class Network:
    """Message fabric connecting the computing parties.

    Parties address each other by name.  :meth:`round` carries one batch of
    messages: they are assumed to travel in parallel, so a round contributes
    a single round-trip latency to the cost model regardless of how many
    parties exchanged data.  ``channel`` is anything with a ``party``, a set
    of ``peers``, ``send_message(peer, tag, payload)`` and
    ``receive_message(peer) -> (tag, payload)``.
    """

    def __init__(self, party_names: list[str], channel=None):
        if len(set(party_names)) != len(party_names):
            raise ValueError("party names must be unique")
        self.party_names = list(party_names)
        self.channel = channel
        self.stats = NetworkStats()
        #: ``(tag, messages, bytes)`` of every round carried, in order.
        self.schedule: list[tuple[str, int, int]] = []

    @property
    def reference_party(self) -> str:
        """The party whose view of received payloads this endpoint exposes:
        the channel's party, whose inbound payloads arrive off the wire, or
        by convention the first party when every party's view is local."""
        return self.party_names[0] if self.channel is None else self.channel.party

    def round(self, tag: str, sends: Sends, size_bytes: int) -> Delivered:
        """Carry one communication round: every ``(sender, receiver, payload)``
        of ``sends`` travels in parallel, each metered at ``size_bytes``.

        Returns ``{(sender, receiver): payload}`` as *delivered* — for the
        channel's party these are the bytes that crossed the process
        boundary, not the local copies.  ``tag`` names the protocol step, so
        a receiver can tell a peer that has fallen out of lockstep.  Only a
        round that carries traffic is counted; it is the one place
        ``wire_rounds`` advances — the analytic rounds of the
        ideal-functionality steps (``engine.charge``) raise the cost model's
        ``rounds`` without implying a synchronous mesh round trip.
        """
        for sender, receiver, _payload in sends:
            self._check_party(sender)
            self._check_party(receiver)
            if sender == receiver:
                raise ValueError("a party cannot send a network message to itself")
        if not sends:
            return {}
        messages, size = len(sends), len(sends) * int(size_bytes)
        self.stats.messages += messages
        self.stats.bytes_sent += size
        self.stats.rounds += 1
        self.stats.wire_rounds += 1
        self.schedule.append((tag, messages, size))
        if self.channel is None:
            return {(sender, receiver): payload for sender, receiver, payload in sends}
        channel = self.channel
        me, peers = channel.party, channel.peers
        for sender, receiver, payload in sends:
            if sender == me and receiver in peers:
                channel.send_message(receiver, tag, payload)
        delivered = {}
        for sender, receiver, payload in sends:
            if receiver == me and sender in peers:
                # The link names the sender and the channel's party is the
                # receiver, so the tag is all a frame carries to check.
                got_tag, payload = channel.receive_message(sender)
                if got_tag != tag:
                    raise TransportError(
                        f"protocol desynchronisation: expected a {tag!r} message from "
                        f"{sender!r} to {me!r} but received {got_tag!r}"
                    )
            delivered[(sender, receiver)] = payload
        return delivered

    def _check_party(self, name: str) -> None:
        if name not in self.party_names:
            raise KeyError(f"unknown party {name!r}; known parties: {self.party_names}")
