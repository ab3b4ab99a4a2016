"""Executors joined by in-memory queues instead of sockets.

A :class:`QueueChannel` has only what an executor uses of a mesh channel —
``party``, ``peers``, ``send_message`` and ``receive_message`` for its
rounds, ``query_id`` and ``link_key`` for its private inputs — and carries
mesh-layout frames over one :class:`queue.Queue` per directed link, so a
query runs with one :class:`~repro.runtime.executor.PlanExecutor` per party,
each holding only its own inputs and slices, in one process.  Every
channel counts the frames and bytes it sent and received per round tag.
"""

from __future__ import annotations

import queue
import secrets
from concurrent.futures import ThreadPoolExecutor

from repro.runtime.executor import PlanExecutor
from repro.runtime.wire import KIND_MSG, decode_mesh_payload, encode_mesh_frame

__all__ = ["QueueChannel", "queue_channels", "queue_executors", "run_on_queue_channels"]


class QueueChannel:
    """``party``'s end of the queues ``links`` (``{(sender, receiver):
    Queue}``), with the link keys ``keys`` (``{frozenset(link): key}``)."""

    query_id = 1

    def __init__(self, party, links, keys):
        self.party = party
        self.peers = {receiver for sender, receiver in links if sender == party}
        self._links = links
        self._keys = keys
        #: ``{tag: [frames, bytes]}`` of every frame sent and received,
        #: headers included.
        self.sent: dict[str, list[int]] = {}
        self.received: dict[str, list[int]] = {}

    def link_key(self, peer):
        return self._keys[frozenset((self.party, peer))]

    def send_message(self, peer, tag, payload):
        frame = encode_mesh_frame(1, KIND_MSG, 1, (tag, payload))
        _count(self.sent, tag, frame)
        self._links[(self.party, peer)].put(frame)

    def receive_message(self, peer):
        frame = self._links[(peer, self.party)].get(timeout=30)
        tag, payload = decode_mesh_payload(frame[4:])[3]
        _count(self.received, tag, frame)
        return tag, payload


def _count(ledger: dict[str, list[int]], tag: str, frame: bytes) -> None:
    counts = ledger.setdefault(tag, [0, 0])
    counts[0] += 1
    counts[1] += len(frame)


def queue_channels(parties) -> dict[str, QueueChannel]:
    """One channel per party, every pair of parties linked both ways under a
    fresh key."""
    links = {(s, r): queue.Queue() for s in parties for r in parties if s != r}
    keys = {frozenset(link): secrets.token_bytes(32) for link in links}
    return {party: QueueChannel(party, links, keys) for party in parties}


def queue_executors(parties, inputs, seed) -> dict[str, PlanExecutor]:
    """One executor per party, each holding only its own inputs, joined by
    :class:`QueueChannel`\\ s (its ``mesh``)."""
    return {
        party: PlanExecutor(
            parties, {party: inputs.get(party, {})}, seed=seed,
            local_parties={party}, mesh=channel,
        )
        for party, channel in queue_channels(parties).items()
    }


def run_on_queue_channels(parties, inputs, compiled, seed, executors=None):
    """Run ``compiled`` on :func:`queue_executors`, one thread each; returns
    ``{party: ExecutionOutcome}``.  The executors go into ``executors`` when
    it is a dict."""
    made = queue_executors(parties, inputs, seed)
    if executors is not None:
        executors.update(made)
    with ThreadPoolExecutor(len(parties)) as pool:
        return dict(zip(parties, pool.map(lambda ex: ex.execute(compiled), made.values())))
