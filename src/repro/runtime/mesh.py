"""The full TCP mesh connecting the per-party agent processes.

Every agent binds a listener on an ephemeral port (``bind(bind_host, 0)``
— the OS picks a free port, so concurrent test runs never collide; the host
defaults to loopback and comes from the session's ``bind_host`` knob),
advertises its real ``(host, port)`` endpoint to the coordinator, and
receives the full party→endpoint map back.  The mesh is then established
deterministically: agent *i* dials every agent *j < i* (in the shared party
order) and introduces itself with a hello frame, so both ends agree on
which party each connection belongs to.

The mesh is **multiplexed by query id** so one set of TCP connections can
carry many queries — including concurrent ones — for a long-lived agent.
Every frame is ``(kind, query_id, payload)`` and each connection has one
reader thread demultiplexing frames into per-``(kind, query id, peer)`` FIFO
queues:

* ``msg``   — engine-level protocol messages (share exchanges) consumed by
  :class:`~repro.runtime.transport.SocketTransport`;
* ``table`` — whole relations shipped between sub-plans (a party's input
  entering MPC, or an authorised cleartext transfer);
* ``abort`` — a peer's execution of that query failed; all queues of the
  ``(peer, query id)`` pair are poisoned so blocked readers fail
  immediately instead of running out their timeout.

Executors and transports never touch the mesh directly:
:meth:`PeerMesh.channel` returns a :class:`MeshChannel` — a view bound to one
query id, and the only send/receive surface there is — so concurrent queries
interleave safely on the shared sockets.

All blocking reads carry a timeout, so a crashed peer surfaces as a
:class:`MeshTimeout` instead of a wedged process; a peer whose connection
*dies* poisons every existing and future queue for that peer, so in-flight
and not-yet-started reads fail loudly.

Supervision support (the fault-tolerant service runtime):

* every outgoing frame carries a per-link **sequence number**; the receiver
  discards non-increasing sequences, so a duplicated frame (fault injection,
  or an application-level retransmit) can never desynchronise the lockstep
  MPC protocol;
* :meth:`PeerMesh.replace_peer` swaps in a fresh connection for a peer whose
  process was restarted — the old socket is closed, its poison marks
  cleared, and a new reader thread takes over (stale readers of the replaced
  socket are generation-guarded so they cannot re-poison the healthy peer);
* :func:`rejoin_mesh` / :func:`accept_rejoin` are the two ends of the
  restart handshake: the replacement agent dials every *live* peer with an
  epoch-tagged hello, survivors accept exactly one matching connection
  (draining stale-epoch strays left by failed restart attempts);
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
from typing import Any

from repro.runtime.transport import TransportError
from repro.runtime.wire import (
    LinkStats,
    WireError,
    close_quietly,
    encode_frame,
    peer_common_name,
    recv_frame,
    secure_client_socket,
    secure_server_socket,
    send_frame,
    send_torn_frame,
)

KIND_MSG = "msg"
KIND_TABLE = "table"
KIND_ABORT = "abort"
_DATA_KINDS = (KIND_MSG, KIND_TABLE)

#: How long an agent keeps retrying to dial a peer that has announced its
#: port but may not have reached ``accept`` yet.
_DIAL_RETRY_SECONDS = 10.0


class MeshTimeout(TransportError):
    """A peer did not produce an expected frame within the timeout."""


@dataclass
class _PeerClosed:
    """Sentinel queued when a peer connection dies (poisons every query)."""

    error: Exception


@dataclass
class _QueryAborted:
    """Sentinel queued when a peer aborts one query (other queries live on)."""

    peer: str
    query_id: int
    reason: str


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
        # (kind, query_id, peer) -> FIFO queue, created lazily under _lock.
        self._lock = threading.Lock()
        self._queues: dict[tuple[str, int, str], queue.Queue] = {}
        self._peer_errors: dict[str, Exception] = {}
        self._aborted: dict[tuple[str, int], str] = {}
        # Query ids whose channels were released: late frames (a peer racing
        # an abort, say) are dropped instead of re-creating queues that
        # nothing would ever drain — a long-lived mesh must not accumulate
        # garbage per finished query.  Coordinators allocate ids
        # contiguously from 1, so the set compacts against a low-watermark
        # (every id <= watermark is released) and stays bounded by the
        # number of concurrently in-flight queries.
        self._released: set[int] = set()
        # A replacement agent joining mid-session inherits the coordinator's
        # released-id watermark, so late frames for long-finished queries are
        # dropped instead of accumulating in queues nothing drains.
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

    def _queue_for(self, kind: str, query_id: int, peer: str) -> queue.Queue:
        key = (kind, query_id, peer)
        with self._lock:
            q = self._queues.get(key)
            if q is None:
                q = self._queues[key] = queue.Queue()
                # A queue born after the peer died (or after it aborted this
                # query) must fail its readers too, not wait out the timeout.
                if peer in self._peer_errors:
                    q.put(_PeerClosed(self._peer_errors[peer]))
                elif (peer, query_id) in self._aborted:
                    q.put(_QueryAborted(peer, query_id, self._aborted[(peer, query_id)]))
            return q

    def _is_released(self, query_id: int) -> bool:
        """Caller must hold ``_lock``."""
        return 0 < query_id <= self._released_watermark or query_id in self._released

    def _queue_for_frame(self, kind: str, query_id: int, peer: str) -> queue.Queue | None:
        """The reader-side twin of :meth:`_queue_for`: ``None`` for released
        queries.  The released check and the queue creation share one lock
        acquisition, so a frame racing :meth:`release_query` can never
        resurrect a queue nothing will drain."""
        with self._lock:
            if self._is_released(query_id):
                return None
            key = (kind, query_id, peer)
            q = self._queues.get(key)
            if q is None:
                q = self._queues[key] = queue.Queue()
            return q

    def _read_loop(self, peer: str, sock: socket.socket) -> None:
        # Catch *everything*: a malformed frame (wrong tuple shape, unknown
        # kind) must surface as _PeerClosed at the consumers, not silently
        # kill the reader thread and degrade every later read into a
        # root-cause-free MeshTimeout.
        last_seq = 0  # highest sequence number seen on *this* connection
        try:
            while True:
                try:
                    # A long-lived mesh is idle between queries; a timeout
                    # with no frame started is not an error.  (Timeouts on
                    # blocked *consumers* are enforced by queue.get.)
                    frame = recv_frame(
                        sock, allow_idle_timeout=True, stats=self.link_stats[peer]
                    )
                except TimeoutError:
                    continue
                try:
                    seq, kind, query_id, payload = frame
                    if kind not in _DATA_KINDS and kind != KIND_ABORT:
                        raise ValueError(kind)
                except (TypeError, ValueError):
                    raise WireError(
                        f"malformed mesh frame from {peer!r}: {type(frame).__name__}"
                    ) from None
                if seq <= last_seq:
                    continue  # duplicated frame: already delivered, discard
                last_seq = seq
                if kind == KIND_ABORT:
                    self._mark_aborted(peer, query_id, payload)
                    continue
                q = self._queue_for_frame(kind, query_id, peer)
                if q is not None:  # None: query released; drop the late frame
                    q.put(payload)
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
            existing = [q for (k, _qid, p), q in self._queues.items()
                        if p == peer and k in _DATA_KINDS]
        for q in existing:
            # Drain frames that were demultiplexed before the link died: a
            # consumer must see the failure on its *next* receive, not read
            # stale data off a dead conversation first.  (New receives on
            # fresh queues fail via the _peer_errors mark.)
            while True:
                try:
                    q.get_nowait()
                except queue.Empty:
                    break
            q.put(_PeerClosed(exc))

    def replace_peer(self, peer: str, sock: socket.socket) -> None:
        """Swap in a fresh connection for a restarted ``peer`` (add-or-replace).

        Clears the peer's poison mark so new queues work again, resets the
        outgoing sequence counter (the replacement's reader starts from 0),
        keeps the cumulative :class:`LinkStats` (wire totals span restarts),
        and starts a reader for the new socket.  Queues poisoned *before*
        the swap keep their sentinels — in-flight consumers of the dead link
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

    def _mark_aborted(self, peer: str, query_id: int, reason: str) -> None:
        with self._lock:
            if self._is_released(query_id):
                return  # late abort for a finished query: nothing to poison
            self._aborted[(peer, query_id)] = reason
            existing = [q for (k, qid, p), q in self._queues.items()
                        if p == peer and qid == query_id and k in _DATA_KINDS]
        for q in existing:
            q.put(_QueryAborted(peer, query_id, reason))

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
                send_frame(sock, frame, stats=self.link_stats[peer])
            elif fault.action == "drop":
                pass  # silently lost: the peer's consumer starves into MeshTimeout
            elif fault.action == "delay":
                self._injector.apply_delay(fault)
                send_frame(sock, frame, stats=self.link_stats[peer])
            elif fault.action == "dup":
                data = encode_frame(frame)
                try:
                    sock.sendall(data)
                    sock.sendall(data)
                except OSError as exc:
                    raise WireError(f"failed to send {len(data)}-byte frame: {exc}") from exc
                self.link_stats[peer].add_sent(len(data))
                self.link_stats[peer].add_sent(len(data))
            elif fault.action == "torn":
                try:
                    send_torn_frame(sock, frame)
                except WireError:
                    pass  # the peer may already be gone; die regardless
                self._injector.die()
            else:  # pragma: no cover - validate() rejects unknown actions
                send_frame(sock, frame, stats=self.link_stats[peer])

    def _receive(self, peer: str, kind: str, query_id: int) -> Any:
        if peer not in self._socks:
            raise TransportError(f"agent {self.party!r} has no mesh link to {peer!r}")
        q = self._queue_for(kind, query_id, peer)
        try:
            item = q.get(timeout=self.timeout)
        except queue.Empty:
            raise MeshTimeout(
                f"agent {self.party!r} timed out after {self.timeout:.0f}s waiting for a "
                f"{kind!r} frame from {peer!r} (query {query_id})"
            ) from None
        if isinstance(item, _PeerClosed):
            q.put(item)  # keep poisoning later readers of the same queue
            raise TransportError(
                f"mesh link {self.party!r} <- {peer!r} closed: {item.error}"
            ) from item.error
        if isinstance(item, _QueryAborted):
            q.put(item)
            raise TransportError(
                f"peer {peer!r} aborted query {query_id}: {item.reason}"
            )
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
                pass  # the peer is gone; its death already poisons our queues

    def release_query(self, query_id: int) -> None:
        """Drop the per-query queues and abort marks once a query finished;
        late frames for the id are discarded from then on."""
        with self._lock:
            self._released.add(query_id)
            # Compact: ids are contiguous, so advance the watermark over any
            # now-contiguous prefix and drop those ids from the set.
            while self._released_watermark + 1 in self._released:
                self._released_watermark += 1
                self._released.discard(self._released_watermark)
            for key in [k for k in self._queues if k[1] == query_id]:
                del self._queues[key]
            for key in [k for k in self._aborted if k[1] == query_id]:
                del self._aborted[key]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for sock in self._socks.values():
            close_quietly(sock, shutdown=True)


class MeshChannel:
    """One query's view of a :class:`PeerMesh`.

    The send/receive surface executors and transports use.  Closing a
    channel releases its per-query queues but leaves the shared sockets open
    for other queries.
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

    def send_message(self, peer: str, message: tuple) -> None:
        self._mesh._send(peer, KIND_MSG, self.query_id, message)

    def receive_message(self, peer: str) -> tuple:
        return self._mesh._receive(peer, KIND_MSG, self.query_id)

    def send_table(self, peer: str, relation: str, table) -> None:
        self._mesh._send(peer, KIND_TABLE, self.query_id, (relation, table))

    def broadcast_table(self, relation: str, table) -> None:
        for peer in sorted(self.peers):
            self.send_table(peer, relation, table)

    def receive_table(self, peer: str, relation: str):
        got_relation, table = self._mesh._receive(peer, KIND_TABLE, self.query_id)
        if got_relation != relation:
            raise TransportError(
                f"agent {self.party!r} expected relation {relation!r} from {peer!r} "
                f"but received {got_relation!r}; the party processes have diverged"
            )
        return table

    def abort(self, reason: str) -> None:
        """Broadcast that this agent's execution of the query failed."""
        self._mesh.send_abort(self.query_id, reason)

    def close(self) -> None:
        """Release the per-query queues; the mesh sockets stay open."""
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
    """Check the TLS-authenticated CN matches the party id a hello claims.

    On plaintext links there is no certificate and nothing to check; on TLS
    links (mutual authentication, so a verified peer certificate is always
    present) a mismatch means impersonation and fails the handshake.
    """
    cn = peer_common_name(sock)
    if cn is not None and cn != claimed:
        raise TransportError(
            f"agent {party!r} rejected a hello claiming party {claimed!r}: the "
            f"peer's TLS certificate authenticates {cn!r}"
        )


def _check_mesh_hello(frame, party: str, order: list[str], nonce: str) -> str:
    """Validate an inbound mesh hello; returns the authenticated party id.

    Hellos carry ``("hello", party, nonce)`` with the session nonce; any
    other shape is malformed, and a wrong nonce is an impersonation attempt
    (or a stray client).  Both fail the handshake.
    """
    if (
        not isinstance(frame, tuple)
        or len(frame) != 3
        or frame[0] != "hello"
        or frame[1] not in order
    ):
        raise TransportError(f"agent {party!r} received a malformed mesh hello: {frame!r}")
    if frame[2] != nonce:
        raise TransportError(
            f"agent {party!r} rejected a mesh hello from {frame[1]!r}: wrong session nonce"
        )
    return frame[1]


def connect_mesh(
    party: str,
    parties: list[str],
    ports: dict[str, tuple[str, int]],
    listener: socket.socket,
    timeout: float = 60.0,
    *,
    nonce: str,
    injector=None,
    security=None,
) -> PeerMesh:
    """Establish the full mesh for ``party`` given every agent's endpoint.

    ``parties`` is the shared, ordered party list; agent *i* dials every
    agent *j < i* and accepts one connection from every agent *j > i*.
    ``ports`` maps party -> advertised ``(host, port)`` endpoint.  With
    ``security`` every link is wrapped
    in mutually-authenticated TLS and each hello's claimed party id is
    verified against the peer certificate's CN; ``nonce`` (the session
    secret the coordinator handed every agent) must match on every hello.
    """
    order = list(parties)
    index = order.index(party)
    connections: dict[str, socket.socket] = {}
    server_context = None if security is None else security.server_context(party)

    for peer in order[:index]:
        connections[peer] = _dial(
            party, peer, _endpoint(ports[peer]), timeout,
            hello=("hello", party, nonce), security=security,
        )

    for _ in order[index + 1:]:
        try:
            sock, _addr = listener.accept()
        except (socket.timeout, OSError) as exc:
            raise MeshTimeout(
                f"agent {party!r} timed out waiting for inbound mesh connections"
            ) from exc
        sock.settimeout(timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if server_context is not None:
            sock = secure_server_socket(sock, server_context)
        frame = recv_frame(sock)
        peer = _check_mesh_hello(frame, party, order, nonce)
        _verify_peer_identity(sock, peer, party)
        connections[peer] = sock

    return PeerMesh(party, connections, timeout=timeout, injector=injector)


def rejoin_mesh(
    party: str,
    parties: list[str],
    ports: dict[str, tuple[str, int]],
    timeout: float = 60.0,
    *,
    epoch: int,
    nonce: str,
    injector=None,
    released_watermark: int = 0,
    security=None,
) -> PeerMesh:
    """Build the mesh for a *restarted* ``party`` joining a live session.

    Unlike :func:`connect_mesh`'s rank-ordered dial/accept split, a rejoining
    agent always **dials** every surviving peer (survivors are parked in
    ``accept`` by the supervisor's rejoin broadcast) and introduces itself
    with a hello carrying the restart epoch and the session ``nonce``, so
    survivors can tell this restart's connection apart from a
    stale one left over by an earlier failed attempt — and, under TLS, from
    an impersonator that knows the party id but holds the wrong certificate.
    ``ports`` holds only the *live* peers — a peer that is itself down is
    absent and will dial us once its own restart reaches this point.
    """
    connections: dict[str, socket.socket] = {}
    try:
        for peer in sorted(p for p in parties if p != party and p in ports):
            connections[peer] = _dial(
                party, peer, _endpoint(ports[peer]), timeout,
                hello=("rejoin-hello", party, epoch, nonce), security=security,
            )
    except Exception:
        for sock in connections.values():
            close_quietly(sock)
        raise
    return PeerMesh(
        party, connections, timeout=timeout,
        injector=injector, released_watermark=released_watermark,
    )


def accept_rejoin(
    listener: socket.socket,
    party: str,
    peer: str,
    epoch: int,
    timeout: float,
    *,
    nonce: str,
    security=None,
) -> socket.socket:
    """Survivor side of the restart handshake: accept ``peer``'s rejoin dial.

    Accepts connections off ``listener`` until one presents the rejoin hello
    ``("rejoin-hello", peer, epoch, nonce)``; anything stale — a hello from an earlier restart attempt of the
    same peer, a malformed frame, a dead connection, a failed TLS handshake
    — is closed and draining continues.  A connection that *claims* to be
    ``peer`` at the right epoch but fails authentication (wrong nonce, or a
    TLS certificate naming another party) is an impersonation attempt and
    raises :class:`TransportError` immediately.  Raises :class:`MeshTimeout`
    when the deadline passes first.
    """
    server_context = None if security is None else security.server_context(party)
    expected = ("rejoin-hello", peer, epoch, nonce)
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise MeshTimeout(
                f"agent {party!r} timed out waiting for {peer!r} (epoch {epoch}) to rejoin"
            )
        listener.settimeout(remaining)
        try:
            sock, _addr = listener.accept()
        except (socket.timeout, OSError) as exc:
            raise MeshTimeout(
                f"agent {party!r} timed out waiting for {peer!r} (epoch {epoch}) to rejoin"
            ) from exc
        sock.settimeout(timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if server_context is not None:
            try:
                sock = secure_server_socket(sock, server_context)
            except WireError:
                continue  # stray client / failed handshake: drain and keep waiting
        try:
            frame = recv_frame(sock)
        except (WireError, OSError):
            sock.close()
            continue
        if frame == expected:
            _verify_peer_identity(sock, peer, party)
            return sock
        if (
            isinstance(frame, tuple)
            and len(frame) == 4
            and frame[0] == "rejoin-hello"
            and frame[1] == peer
            and frame[2] == epoch
        ):
            # Right peer and epoch but wrong session nonce: that is not a
            # stale restart attempt, it is an impersonation attempt.
            sock.close()
            raise TransportError(
                f"agent {party!r} rejected a rejoin hello claiming {peer!r} "
                f"(epoch {epoch}): wrong session nonce"
            )
        sock.close()  # stale epoch / unexpected party: drain and keep waiting


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
