"""The full TCP mesh connecting the per-party agent processes.

Every agent binds a listener on an ephemeral port (``bind(bind_host, 0)``
— the OS picks a free port, so concurrent test runs never collide; the host
defaults to loopback and comes from the session's ``bind_host`` knob),
advertises its real ``(host, port)`` endpoint to the coordinator, and is
told back whom to dial and whom to accept.  :func:`join_mesh` is the one
handshake of every link, control links included: every dial introduces the
dialler with the one hello, ``("join", party, epoch, nonce)``, and every
accept waits for a set of expected ``{peer: epoch}`` hellos.  At session
start the epoch is 0; every agent dials the coordinator, dials every agent
*j < i* (in the shared party order) and accepts every *j > i*; a
replacement dials the coordinator and every survivor at its restart epoch,
and the coordinator and each survivor accept that one link.

The mesh is **multiplexed by query id** so one set of TCP connections can
carry many queries — including concurrent ones — for a long-lived agent.
After the hello, every frame on a link is ``(seq, kind, query_id, payload)``
in the closed mesh layout of :mod:`repro.runtime.wire` (any other frame —
a codec or pickle frame included — kills the link), and each connection has
one reader thread appending frames, in arrival order, to one inbox per
``(query id, peer)``:

* ``msg``   — one round's message, ``(tag, arrays)``, written and read by
  :meth:`~repro.mpc.network.Network.round` — the MPC's rounds and the
  rounds that move a relation between parties (its row count, or its
  columns) alike;
* ``abort`` — a peer's execution of that query failed; the inbox ends in a
  poison mark so its reader fails as soon as it has read what came first.

Every executor runs the same lockstep schedule, so the messages peer P
sends for query Q are exactly the messages this agent reads from P for Q,
in the same order: a message whose tag is not the one the round expects
means the party processes have diverged — a :class:`TransportError` at
once, not a timeout.

Executors never touch the mesh directly: :meth:`PeerMesh.channel` returns a
:class:`MeshChannel` — a view bound to one query id, and the only
send/receive surface there is — so concurrent queries interleave safely on
the shared sockets.

All blocking reads carry a timeout, so a crashed peer surfaces as a
:class:`MeshTimeout` instead of a wedged process; a peer whose connection
*dies* poisons every existing and future inbox of that peer, so in-flight
and not-yet-started reads fail loudly.

Supervision support (the fault-tolerant service runtime):

* every outgoing frame carries a per-link **sequence number**; the receiver
  discards non-increasing sequences, so a duplicated frame (fault injection,
  or an application-level retransmit) can never desynchronise the lockstep
  MPC protocol;
* :meth:`PeerMesh.replace_peer` swaps in a fresh connection for a peer whose
  process was restarted — the old socket is closed, its poison mark
  cleared, and a new reader thread takes over (stale readers of the replaced
  socket are generation-guarded so they cannot re-poison the healthy peer);
* the accept side of :func:`join_mesh` drains anything that is not an
  expected hello — a stale epoch left by a failed restart attempt, a
  malformed frame, a failed TLS handshake — and fails closed on a hello that
  names an expected peer at its epoch but carries the wrong session nonce or
  a certificate of another party, or as soon as an expected agent process
  has exited;
* an optional :class:`~repro.runtime.faults.FaultInjector` hooks every send,
  so drop/dup/delay/torn faults happen at the real choke point.
"""

from __future__ import annotations

import queue
import random
import socket
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any

from repro.mpc.network import TransportError
from repro.runtime.wire import (
    KIND_ABORT,
    KIND_MSG,
    LinkStats,
    WireError,
    close_quietly,
    encode_mesh_frame,
    peer_common_name,
    recv_frame,
    recv_mesh_frame,
    secure_client_socket,
    secure_server_socket,
    send_frame,
    send_mesh_frame,
    send_torn_frame,
)

#: How long an agent keeps retrying to dial a peer that has announced its
#: port but may not have reached ``accept`` yet.
_DIAL_RETRY_SECONDS = 10.0


class MeshTimeout(TransportError):
    """A peer did not produce an expected frame within the timeout."""


@dataclass
class _Poison:
    """The last item of an inbox whose peer died or aborted its query:
    every read of the inbox from then on raises this error."""

    message: str
    cause: Exception | None = None


class PeerMesh:
    """Bidirectional frame channels from one agent to every other agent."""

    def __init__(
        self,
        party: str,
        connections: dict[str, socket.socket],
        timeout: float = 60.0,
        *,
        injector=None,
        released_watermark: int = 0,
    ):
        self.party = party
        self.timeout = timeout
        self._socks = dict(connections)
        self._send_locks = {p: threading.Lock() for p in self._socks}
        # Per-link outgoing sequence numbers (reset to 0 when a peer link is
        # replaced, so the replacement's reader starts fresh).
        self._send_seq = {p: 0 for p in self._socks}
        self._injector = injector
        #: Per-peer wire accounting: every mesh frame (data and abort alike)
        #: is counted by full wire size on both ends, so the metrics layer
        #: can report bytes-on-wire per party pair without ever seeing a
        #: payload.  Counting starts after the handshake hellos (both ends
        #: symmetrically), so sent/received totals mirror across peers.
        self.link_stats: dict[str, LinkStats] = {p: LinkStats() for p in self._socks}
        # (query_id, peer) -> FIFO of (tag, payload) messages, created under _lock
        # by whichever end gets there first.
        self._lock = threading.Lock()
        self._inboxes: dict[tuple[int, str], queue.SimpleQueue] = {}
        self._peer_errors: dict[str, Exception] = {}
        # Query ids whose channels were released: late frames (a peer racing
        # an abort, say) are dropped instead of re-creating inboxes that
        # nothing would ever drain — a long-lived mesh must not accumulate
        # garbage per finished query.  Coordinators allocate ids
        # contiguously from 1, so the set compacts against a low-watermark
        # (every id <= watermark is released) and stays bounded by the
        # number of concurrently in-flight queries.  A replacement agent
        # joining mid-session starts from the coordinator's watermark.
        self._released: set[int] = set()
        self._released_watermark = released_watermark
        self._closed = False
        self._readers = []
        for peer, sock in self._socks.items():
            self._start_reader(peer, sock)

    def _start_reader(self, peer: str, sock: socket.socket) -> None:
        thread = threading.Thread(
            target=self._read_loop, args=(peer, sock), daemon=True,
            name=f"mesh-reader-{self.party}-{peer}",
        )
        thread.start()
        self._readers.append(thread)

    @property
    def peers(self) -> set[str]:
        return set(self._socks)

    def channel(self, query_id: int) -> "MeshChannel":
        """A view of the mesh carrying exactly one query's frames."""
        return MeshChannel(self, query_id)

    # -- frame plumbing ----------------------------------------------------------------

    def _inbox(self, query_id: int, peer: str) -> queue.SimpleQueue | None:
        """The ``(query_id, peer)`` inbox, created by the reader or the
        consumer, whichever comes first; ``None`` once the query is
        released.  The released check and the creation share one lock
        acquisition, so a frame racing :meth:`release_query` can never
        resurrect an inbox nothing will drain.  An inbox born after its
        peer died starts poisoned."""
        with self._lock:
            if 0 < query_id <= self._released_watermark or query_id in self._released:
                return None
            inbox = self._inboxes.get((query_id, peer))
            if inbox is None:
                inbox = self._inboxes[(query_id, peer)] = queue.SimpleQueue()
                if peer in self._peer_errors:
                    inbox.put(self._closed_poison(peer, self._peer_errors[peer]))
            return inbox

    def _closed_poison(self, peer: str, exc: Exception) -> _Poison:
        return _Poison(f"mesh link {self.party!r} <- {peer!r} closed: {exc}", exc)

    def _read_loop(self, peer: str, sock: socket.socket) -> None:
        # Catch *everything*: a frame outside the mesh layout must poison
        # the consumers, not silently kill the reader thread and degrade
        # every later read into a root-cause-free MeshTimeout.
        last_seq = 0  # highest sequence number seen on *this* connection
        try:
            while True:
                try:
                    # A long-lived mesh is idle between queries; a timeout
                    # with no frame started is not an error.  (Timeouts on
                    # blocked *consumers* are enforced by the inbox get.)
                    seq, kind, query_id, payload = recv_mesh_frame(
                        sock, allow_idle_timeout=True, stats=self.link_stats[peer]
                    )
                except TimeoutError:
                    continue
                if seq <= last_seq:
                    continue  # duplicated frame: already delivered, discard
                last_seq = seq
                inbox = self._inbox(query_id, peer)
                if inbox is None:
                    continue  # query released: drop the late frame or abort
                if kind == KIND_ABORT:
                    inbox.put(_Poison(f"peer {peer!r} aborted query {query_id}: {payload}"))
                else:
                    inbox.put(payload)
        except Exception as exc:  # noqa: BLE001 - reader thread must never die silently
            self._mark_peer_closed(peer, exc, sock)

    def _mark_peer_closed(self, peer: str, exc: Exception, sock: socket.socket | None = None) -> None:
        with self._lock:
            # Generation guard: a reader of a socket that has since been
            # *replaced* (the peer restarted) must not poison the healthy
            # replacement link.  Only the reader of the current socket may
            # declare the peer dead.
            if sock is not None and self._socks.get(peer) is not sock:
                return
            self._peer_errors[peer] = exc
            existing = [inbox for (_qid, p), inbox in self._inboxes.items() if p == peer]
        for inbox in existing:
            # Drain frames that arrived before the link died: a consumer
            # must see the failure on its *next* receive, not read stale
            # data off a dead conversation first.  (Inboxes created later
            # start poisoned via the _peer_errors mark.)
            while True:
                try:
                    inbox.get_nowait()
                except queue.Empty:
                    break
            inbox.put(self._closed_poison(peer, exc))

    def replace_peer(self, peer: str, sock: socket.socket) -> None:
        """Swap in a fresh connection for a restarted ``peer`` (add-or-replace).

        Clears the peer's poison mark so new inboxes work again, resets the
        outgoing sequence counter (the replacement's reader starts from 0),
        keeps the cumulative :class:`LinkStats` (wire totals span restarts),
        and starts a reader for the new socket.  Inboxes poisoned *before*
        the swap keep their poison — in-flight consumers of the dead link
        must still fail so the query layer can retry on the fresh one.
        """
        with self._lock:
            old = self._socks.get(peer)
            self._socks[peer] = sock
            self._send_locks.setdefault(peer, threading.Lock())
            self._send_seq[peer] = 0
            self.link_stats.setdefault(peer, LinkStats())
            self._peer_errors.pop(peer, None)
        if old is not sock:
            close_quietly(old, shutdown=True)
        self._start_reader(peer, sock)

    def _send(self, peer: str, kind: str, query_id: int, payload: Any) -> None:
        try:
            sock = self._socks[peer]
        except KeyError:
            raise TransportError(f"agent {self.party!r} has no mesh link to {peer!r}") from None
        with self._send_locks[peer]:
            # The sequence number is consumed even for dropped frames — a
            # drop simulates loss *after* the sender committed the send, so
            # the receiver sees a gap, never a reused number.
            seq = self._send_seq.get(peer, 0) + 1
            self._send_seq[peer] = seq
            frame = (seq, kind, query_id, payload)
            fault = None if self._injector is None else self._injector.on_mesh_send(peer, query_id)
            if fault is None:
                send_mesh_frame(sock, *frame, stats=self.link_stats[peer])
            elif fault.action == "drop":
                pass  # silently lost: the peer's consumer starves into MeshTimeout
            elif fault.action == "delay":
                self._injector.apply_delay(fault)
                send_mesh_frame(sock, *frame, stats=self.link_stats[peer])
            elif fault.action == "dup":
                data = encode_mesh_frame(*frame)
                try:
                    sock.sendall(data)
                    sock.sendall(data)
                except OSError as exc:
                    raise WireError(f"failed to send {len(data)}-byte frame: {exc}") from exc
                self.link_stats[peer].add_sent(len(data))
                self.link_stats[peer].add_sent(len(data))
            elif fault.action == "torn":
                try:
                    send_torn_frame(sock, encode_mesh_frame(*frame))
                except WireError:
                    pass  # the peer may already be gone; die regardless
                self._injector.die()
            else:  # pragma: no cover - validate() rejects unknown actions
                send_mesh_frame(sock, *frame, stats=self.link_stats[peer])

    def _receive(self, peer: str, query_id: int) -> tuple:
        """The next ``(tag, payload)`` message ``peer`` sent for ``query_id``."""
        if peer not in self._socks:
            raise TransportError(f"agent {self.party!r} has no mesh link to {peer!r}")
        inbox = self._inbox(query_id, peer)
        if inbox is None:
            raise TransportError(f"agent {self.party!r} already released query {query_id}")
        try:
            item = inbox.get(timeout=self.timeout)
        except queue.Empty:
            raise MeshTimeout(
                f"agent {self.party!r} timed out after {self.timeout:.0f}s waiting for a "
                f"message from {peer!r} (query {query_id})"
            ) from None
        if isinstance(item, _Poison):
            inbox.put(item)  # keep poisoning later reads of the same inbox
            raise TransportError(item.message) from item.cause
        return item

    def traffic(self) -> dict[str, dict]:
        """Immutable per-peer wire totals: ``{peer: {bytes_sent, ...}}``."""
        return {peer: stats.snapshot() for peer, stats in self.link_stats.items()}

    def send_abort(self, query_id: int, reason: str) -> None:
        """Tell every peer this agent's execution of ``query_id`` failed."""
        for peer in sorted(self._socks):
            try:
                self._send(peer, KIND_ABORT, query_id, reason)
            except (TransportError, WireError):
                pass  # the peer is gone; its death already poisons our inboxes

    def release_query(self, query_id: int) -> None:
        """Drop the query's inboxes once it finished; late frames and aborts
        for the id are discarded from then on."""
        with self._lock:
            self._released.add(query_id)
            # Compact: ids are contiguous, so advance the watermark over any
            # now-contiguous prefix and drop those ids from the set.
            while self._released_watermark + 1 in self._released:
                self._released_watermark += 1
                self._released.discard(self._released_watermark)
            for key in [k for k in self._inboxes if k[0] == query_id]:
                del self._inboxes[key]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for sock in self._socks.values():
            close_quietly(sock, shutdown=True)


class MeshChannel:
    """One query's view of a :class:`PeerMesh`.

    The send/receive surface executors and their :class:`~repro.mpc.network
    .Network` use.  Closing a channel releases its inboxes but leaves the
    shared sockets open for other queries.
    """

    def __init__(self, mesh: PeerMesh, query_id: int):
        self._mesh = mesh
        self.query_id = query_id

    @property
    def party(self) -> str:
        return self._mesh.party

    @property
    def peers(self) -> set[str]:
        return self._mesh.peers

    @property
    def timeout(self) -> float:
        return self._mesh.timeout

    def send_message(self, peer: str, tag: str, payload) -> None:
        """Send one round's message: ``payload`` is ``None``, an array or a
        tuple of arrays (the mesh layout's dtype allowlist)."""
        self._mesh._send(peer, KIND_MSG, self.query_id, (tag, payload))

    def receive_message(self, peer: str) -> tuple:
        """The next ``(tag, payload)`` message from ``peer``."""
        return self._mesh._receive(peer, self.query_id)

    def abort(self, reason: str) -> None:
        """Broadcast that this agent's execution of the query failed."""
        self._mesh.send_abort(self.query_id, reason)

    def close(self) -> None:
        """Release the query's inboxes; the mesh sockets stay open."""
        self._mesh.release_query(self.query_id)


def bind_listener(timeout: float, host: str = "127.0.0.1") -> socket.socket:
    """Bind a listener on ``host`` and an ephemeral port (deterministic: the
    OS hands out a free port, which is then exchanged via handshake).  The
    loopback default keeps single-machine runs self-contained; a routable
    ``host`` lets agents on different machines reach each other."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, 0))
    listener.listen(16)
    listener.settimeout(timeout)
    return listener


def _endpoint(value) -> tuple[str, int]:
    """An advertised peer address as ``(host, port)``.

    The map of endpoints arrives over the control link, so it is checked
    like any other bytes from outside: anything but a host/port pair is a
    :class:`WireError`, never a guess at which machine to dial.
    """
    if isinstance(value, (tuple, list)) and len(value) == 2:
        try:
            return str(value[0]), int(value[1])
        except (TypeError, ValueError):
            pass
    raise WireError(f"advertised peer address {value!r} is not a (host, port) endpoint")


def _verify_peer_identity(sock: socket.socket, claimed: str, party: str) -> None:
    """Check the TLS-authenticated CN matches the party id a link claims.

    On plaintext links there is no certificate and nothing to check; on TLS
    links (mutual authentication, so a verified peer certificate is always
    present) a mismatch means impersonation and fails the handshake.
    """
    cn = peer_common_name(sock)
    if cn is not None and cn != claimed:
        raise TransportError(
            f"{party!r} refused a link claiming to be {claimed!r}: the "
            f"peer's TLS certificate authenticates {cn!r}"
        )


def join_mesh(
    party: str,
    dial: dict[str, tuple[str, int]],
    accept: dict[str, int],
    listener: socket.socket | None,
    epoch: int,
    *,
    nonce: str,
    timeout: float,
    security=None,
    processes: dict | None = None,
) -> dict[str, socket.socket]:
    """Join ``party`` to the mesh; returns ``{peer: socket}``, one per link.

    Dials every peer of ``dial`` (party -> advertised ``(host, port)``),
    introducing this party with ``("join", party, epoch, nonce)``, then
    accepts one link from every peer of ``accept`` (party -> the epoch its
    hello must carry).  An agent dials the coordinator, then (at epoch 0)
    the lower ranks, accepting the higher ones; a replacement dials the
    coordinator and every survivor at its restart epoch; a survivor accepts
    the replacement's one link; the coordinator accepts its agents, and
    stops as soon as one of their ``processes`` (party -> process) exits.
    With ``security`` every link is mutually-authenticated TLS and every
    link's party must be the one its certificate names.  ``nonce`` is the
    session secret the coordinator handed every agent it spawned.
    """
    links: dict[str, socket.socket] = {}
    try:
        for peer, endpoint in dial.items():
            links[peer] = _dial(
                party, peer, _endpoint(endpoint), timeout,
                hello=("join", party, epoch, nonce), security=security,
            )
        if accept:
            _accept(listener, party, accept, links, timeout, nonce=nonce,
                    security=security, processes=processes or {})
    except BaseException:
        for sock in links.values():
            close_quietly(sock)
        raise
    return links


def _accept(
    listener: socket.socket,
    party: str,
    expected: dict[str, int],
    links: dict[str, socket.socket],
    timeout: float,
    *,
    nonce: str,
    security=None,
    processes: dict,
) -> None:
    """Accept one link from every peer of ``expected`` (peer -> epoch) into
    ``links``.

    A link counts when its hello is ``("join", peer, expected[peer], nonce)``
    from a peer not yet accepted.  Anything else that cannot be one of those
    links — a dead connection, a failed TLS handshake, a malformed hello, a
    hello of another epoch (a failed restart attempt's straggler) — is
    closed and accepting continues.  A hello that names an expected peer at
    its epoch but fails authentication (wrong nonce, or a TLS certificate
    naming another party) is an impersonation attempt and raises
    :class:`TransportError` at once, as does the exit of a process of
    ``processes`` whose peer has not joined; :class:`MeshTimeout` when the
    deadline passes first.  Both name the last connection drained, and why.
    """
    server_context = None if security is None else security.server_context(party)
    pending = dict(expected)
    deadline = time.monotonic() + timeout
    drained = ""
    while pending:
        exits = {processes[p].sentinel: p for p in pending if p in processes}
        ready = wait([listener, *exits], max(0.0, deadline - time.monotonic()))
        if not ready:
            raise MeshTimeout(f"{party!r} timed out waiting for {sorted(pending)} to join{drained}")
        if listener not in ready:  # an agent died before it joined
            proc = processes[exits[ready[0]]]
            proc.join(1.0)
            raise TransportError(
                f"{party!r} stopped waiting for {sorted(pending)} to join: the process of "
                f"{exits[ready[0]]!r} exited with code {proc.exitcode}{drained}"
            )
        sock, addr = listener.accept()
        # A client that connects and stalls cannot outlast the deadline.
        sock.settimeout(max(deadline - time.monotonic(), 0.01))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            if server_context is not None:
                sock = secure_server_socket(sock, server_context)
            hello = recv_frame(sock)
        except (WireError, OSError) as exc:  # stray client / failed handshake: drain
            close_quietly(sock)
            drained = f"; the last connection drained, from {addr}, failed: {exc}"
            continue
        if not (
            isinstance(hello, tuple)
            and len(hello) == 4
            and hello[0] == "join"
            and isinstance(hello[1], str)
            and isinstance(hello[2], int)
            and isinstance(hello[3], str)
            and pending.get(hello[1]) == hello[2]
        ):
            close_quietly(sock)  # malformed, stale or unexpected (never echoed: nonce)
            drained = (f"; the last connection drained, from {addr}, sent no "
                       f"join hello of an expected party at its epoch")
            continue
        peer = hello[1]
        try:
            if hello[3] != nonce:
                raise TransportError(
                    f"{party!r} rejected a join hello claiming {peer!r} "
                    f"(epoch {hello[2]}): wrong session nonce"
                )
            _verify_peer_identity(sock, peer, party)
        except TransportError:
            close_quietly(sock)
            raise
        sock.settimeout(timeout)
        links[peer] = sock
        del pending[peer]


def _dial(
    party: str,
    peer: str,
    endpoint: tuple[str, int],
    timeout: float,
    *,
    hello: tuple,
    security=None,
) -> socket.socket:
    """Dial ``peer`` at its advertised ``(host, port)`` endpoint and
    introduce this party with ``hello``, retrying with jittered exponential
    backoff until the retry window closes.  The jitter is deterministic per (party, peer, endpoint) — restarts replay
    identically — while still decorrelating the parties of one mesh, so N
    agents dialling a slow starter don't retry in lockstep.

    With ``security`` the connection is wrapped in mutually-authenticated
    TLS before the hello is sent, and the peer certificate's CN must match
    ``peer`` — a TLS handshake or identity failure is deterministic and
    fails immediately instead of burning the retry window.
    """
    host, port = endpoint
    client_context = None if security is None else security.client_context(party)
    deadline = time.monotonic() + min(_DIAL_RETRY_SECONDS, timeout)
    rng = random.Random(f"{party}->{peer}:{host}:{port}")
    delay = 0.02
    last_error: Exception | None = None
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            last_error = exc
            sock = None
        if sock is not None:
            sock.settimeout(timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if client_context is not None:
                # A certificate problem will not heal on retry: fail closed
                # now with the structured WireError from the wrap helper.
                sock = secure_client_socket(sock, client_context)
                _verify_peer_identity(sock, peer, party)
            try:
                send_frame(sock, hello)
            except WireError as exc:
                # The peer accepted but the link died under the hello (e.g.
                # it was still draining stale connections): transient, retry.
                last_error = exc
                close_quietly(sock)
            else:
                return sock
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        time.sleep(min(remaining, delay * (0.5 + rng.random())))
        delay = min(delay * 2, 0.5)
    raise TransportError(
        f"agent {party!r} could not reach peer {peer!r} at {host}:{port}: {last_error}"
    )
