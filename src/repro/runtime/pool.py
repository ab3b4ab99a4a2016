"""The agent pool: one long-lived agent OS process per party.

The process/socket substrate under :class:`~repro.runtime.service
.QuerySession`, and the only code that spawns agents.  :class:`AgentPool`
spawns one :func:`~repro.runtime.agent.agent_main` process per party, admits
each control link (:func:`admit_agent`), brokers the mesh handshake **once**,
then routes result/error frames (tagged by query id) from per-party receiver
threads into per-query futures.  A control link that dies fails every
in-flight query loudly and breaks the pool — or, under an
:class:`~repro.runtime.supervisor.AgentSupervisor`, hands the party over for
a restart through the same spawn/admit/bundle code the start uses.

Process hygiene: agent processes are daemonic, tracked in a module-level
registry (so test fixtures can kill leaks), and reaped when their pool
closes; every blocking socket operation carries a timeout so a wedged or
crashed agent surfaces as an error instead of hanging the driver.
"""

from __future__ import annotations

import logging
import multiprocessing
import secrets
import socket
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.core.config import RestartPolicy, TransportSecurity
from repro.runtime.agent import AGENT_MAX_WORKERS, agent_main
from repro.runtime.mesh import bind_listener
from repro.runtime.metrics import GatewayMetrics
from repro.runtime.supervisor import AgentSupervisor
from repro.runtime.transport import TransportError
from repro.runtime.wire import (
    WireError,
    close_quietly,
    encode_frame,
    peer_common_name,
    recv_frame,
    secure_server_socket,
    send_frame,
)

logger = logging.getLogger("repro.runtime.pool")

#: Live agent processes, for leak-hunting test fixtures.
_ACTIVE_PROCESSES: "set[multiprocessing.process.BaseProcess]" = set()

#: Errors swallowed on best-effort teardown paths.  Teardown must never raise
#: (there is nobody left to handle it), but silently dropping the exception
#: hides real bugs — so every swallowed error is logged at debug level and
#: counted here, where tests and operators can see it.
_TEARDOWN_ERRORS = 0
_TEARDOWN_LOCK = threading.Lock()


def _count_teardown_error(site: str, exc: BaseException) -> None:
    """Record one swallowed teardown error (debug log + metric)."""
    global _TEARDOWN_ERRORS
    with _TEARDOWN_LOCK:
        _TEARDOWN_ERRORS += 1
    logger.debug("teardown error at %s: %r", site, exc, exc_info=exc)


def teardown_errors() -> int:
    """How many errors best-effort teardown paths have swallowed so far."""
    with _TEARDOWN_LOCK:
        return _TEARDOWN_ERRORS


def active_agent_processes() -> list:
    """Agent processes started by any pool that are still alive."""
    return [p for p in list(_ACTIVE_PROCESSES) if p.is_alive()]


def _reap(proc, grace: float = 0.0) -> None:
    """Make sure ``proc`` is gone: wait ``grace`` seconds for a clean exit,
    then terminate, then kill; drop it from the registry either way."""
    if grace:
        proc.join(timeout=grace)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=5)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=5)
    _ACTIVE_PROCESSES.discard(proc)


class AgentFailure(RuntimeError):
    """An agent process failed without a reconstructable exception.

    Permanent failures raised by the supervision layer (an exhausted restart
    budget, exhausted query retries) carry an ``attempts`` attribute: a list
    of per-attempt records (``party``/``attempt``/``outcome``/``cause`` for
    restarts, ``attempt``/``error`` for query retries) so the caller can see
    the whole failure history, not just the last straw.
    """

    #: Structured per-attempt history; empty for ordinary failures.
    attempts: list = ()


class AgentCrashed(AgentFailure):
    """An agent died mid-query under supervision: the query is *retryable*.

    Queries are pure functions of (plan, inputs, seed), so once the
    supervisor has restarted the crashed agent and re-joined the mesh, a
    replayed query produces byte-identical results.  The session's
    :class:`~repro.core.config.RetryPolicy` layer catches this marker and
    replays automatically; callers without a retry policy may do the same by
    resubmitting after :meth:`AgentPool.wait_recovered`.
    """


class SessionClosed(RuntimeError):
    """The session can no longer accept queries (closed, idle, or broken)."""


def _caused_by(error: BaseException, cause: BaseException) -> BaseException:
    """``error`` chained to ``cause`` (only real exceptions make a cause)."""
    error.__cause__ = cause if isinstance(cause, Exception) else None
    return error


def _agent_error(party: str, exc, tb: str) -> BaseException:
    if isinstance(exc, BaseException):
        exc.__cause__ = AgentFailure(f"raised in agent {party!r}:\n{tb}")
        return exc
    return AgentFailure(f"agent {party!r} failed:\n{tb}")


def admit_agent(
    listener: socket.socket, expected, *, timeout: float, server_context=None
) -> tuple[str, socket.socket]:
    """Admit one agent's control link; returns ``(party, socket)``.

    Accept, bound every later read by ``timeout``, wrap the socket in TLS
    (with ``server_context``) and require the hello to be exactly
    ``("hello", party)`` for a party in ``expected`` that the peer's TLS
    certificate (if any) authenticates.  Anything else — a stray client
    included — is an :class:`AgentFailure`, and the accepted socket is closed
    before the error propagates.
    """
    expected = sorted(expected)
    try:
        sock, _addr = listener.accept()
    except (socket.timeout, OSError) as exc:
        raise AgentFailure(
            f"timed out waiting for the control connection of one of {expected}"
        ) from exc
    try:
        sock.settimeout(timeout)
        if server_context is not None:
            try:
                sock = secure_server_socket(sock, server_context)
            except WireError as exc:
                raise AgentFailure(f"agent control handshake failed: {exc}") from exc
        hello = recv_frame(sock)
        if not (
            isinstance(hello, tuple)
            and len(hello) == 2
            and all(isinstance(part, str) for part in hello)
            and hello[0] == "hello"
            and hello[1] in expected
        ):
            raise AgentFailure(
                f"malformed agent hello {hello!r}; expected ('hello', <one of {expected}>)"
            )
        party = hello[1]
        cn = peer_common_name(sock)
        if cn is not None and cn != party:
            raise AgentFailure(
                f"agent hello claims party {party!r} but its TLS certificate "
                f"authenticates {cn!r}"
            )
        return party, sock
    except BaseException:
        close_quietly(sock)
        raise


@dataclass
class _PendingQuery:
    """Coordinator-side state of one in-flight query."""

    remaining: set[str]
    payloads: dict[str, dict] = field(default_factory=dict)
    errors: list[BaseException] = field(default_factory=list)
    future: Future = field(default_factory=Future)

    def finish(self) -> None:
        if self.future.done():
            return
        if self.errors:
            # Prefer the root cause: an agent that hit a real error over one
            # that merely saw the failed peer's abort or timed out on it.
            primary = next(
                (e for e in self.errors if not isinstance(e, (TransportError, AgentFailure))),
                self.errors[0],
            )
            self.future.set_exception(primary)
        else:
            self.future.set_result(self.payloads)


def _fail_pending(entries: dict[int, _PendingQuery], exc: BaseException) -> None:
    """Fail every query of a ``_pending`` table its pool swapped out (under
    the pool lock): an unresolved future is a deadlocked caller."""
    for entry in entries.values():
        if not entry.future.done():
            entry.future.set_exception(exc)


class AgentPool:
    """One long-lived agent process per party, serving many queries.

    The pool owns the processes, control sockets and receiver threads; the
    per-query bookkeeping hands each submission a :class:`Future` resolving
    to the per-party payload dict (or the query's primary error).
    """

    def __init__(
        self,
        parties: list[str],
        *,
        inputs: dict | None = None,
        timeout: float = 60.0,
        idle_timeout: float | None = None,
        start_method: str | None = None,
        max_workers: int = AGENT_MAX_WORKERS,
        on_retire=None,
        restart: RestartPolicy | None = None,
        faults=None,
        metrics: GatewayMetrics | None = None,
        on_restart=None,
        bind_host: str = "127.0.0.1",
        security: TransportSecurity | None = None,
    ):
        self.parties = list(parties)
        self.timeout = timeout
        #: Host the control listener binds and the agents advertise their
        #: mesh endpoints on (loopback unless the session asks otherwise).
        self.bind_host = bind_host
        #: Mutual-TLS material for every control and mesh link (``None``
        #: keeps the plaintext loopback behaviour).
        self.security = security
        if security is not None:
            security.validate(list(parties) + [security.coordinator_name])
        #: Per-session secret every hello (mesh and rejoin alike) must echo;
        #: generated fresh per pool, shipped to agents inside the session
        #: bundle over the (authenticated) control link.
        self._nonce = secrets.token_hex(16)
        self.idle_timeout = idle_timeout
        self.max_workers = max_workers
        self._on_retire = on_retire
        self._on_restart = on_restart
        self._retired = False
        self._lock = threading.Lock()
        self._pending: dict[int, _PendingQuery] = {}
        self._send_locks: dict[str, threading.Lock] = {}
        self._closed = False
        self._broken: BaseException | None = None
        self._closing_reason: str | None = None
        self._processes: dict[str, multiprocessing.process.BaseProcess] = {}
        self._connections: dict[str, socket.socket] = {}
        self._receivers: list[threading.Thread] = []
        #: Latest per-party wire-traffic snapshot (reported by each agent on
        #: every query completion), for the session's bytes-on-wire metrics.
        self._wire_traffic: dict[str, dict] = {}
        #: Standing state the supervisor re-ships to a replacement agent.
        self._inputs = dict(inputs or {})
        self._faults = faults
        #: Each agent's advertised mesh endpoint ``(host, port)``, kept
        #: current across restarts so a replacement can be told where the
        #: survivors listen.  Opaque to the pool: it only relays them.
        self._ports: dict[str, tuple[str, int]] = {}
        #: Parties currently dead-and-being-restarted.  While non-empty the
        #: pool refuses submissions with the retryable :class:`AgentCrashed`.
        self._recovering: set[str] = set()
        #: Why the supervisor killed a party, kept until the party's control
        #: link reports EOF so the restart record names the real cause.
        self._kill_reasons: dict[str, str] = {}
        self._healthy = threading.Event()
        self._healthy.set()
        #: Highest query id ever framed out, used as the released-id
        #: watermark a replacement agent starts its mesh from.
        self._last_query_id = 0
        self._supervisor: AgentSupervisor | None = None

        self._ctx = multiprocessing.get_context(start_method)
        listener = bind_listener(timeout, bind_host)
        port = listener.getsockname()[1]
        try:
            # Spawn every agent before admitting any: their start-ups overlap.
            for party in self.parties:
                self._processes[party] = self._spawn_agent(party, port)
            server_context = self._control_context()
            while len(self._connections) < len(self.parties):
                # A party that is already connected is no longer expected, so
                # a duplicate hello is refused like any other stray client.
                party, sock = admit_agent(
                    listener, set(self.parties) - set(self._connections),
                    timeout=timeout + 10, server_context=server_context,
                )
                self._connections[party] = sock
                self._send_locks[party] = threading.Lock()

            for party, sock in self._connections.items():
                send_frame(sock, self._session_bundle(party))
            for party, sock in self._connections.items():
                self._ports[party] = self._expect(party, sock, "ports")
            for sock in self._connections.values():
                send_frame(sock, ("peers", dict(self._ports)))
            # Wait for the mesh to be fully established at every agent, so
            # an open pool is a *working* pool (handshake bugs fail here,
            # not inside the first submit).
            for party, sock in self._connections.items():
                self._expect(party, sock, "ready")
        except BaseException:
            self._teardown()
            raise
        finally:
            close_quietly(listener)

        for party, sock in self._connections.items():
            self._start_receiver(party, sock)
        # The supervisor comes up last: its heartbeat/restart machinery must
        # only ever observe a fully established pool.
        if restart is not None:
            self._supervisor = AgentSupervisor(self, restart, metrics=metrics)

    # -- bring-up (shared by session start and party restart) --------------------------

    def _spawn_agent(self, party: str, port: int):
        proc = self._ctx.Process(
            target=agent_main,
            args=(party, self.bind_host, port, self.timeout, self.bind_host,
                  self.security),
            daemon=True,
            name=f"conclave-agent-{party}",
        )
        proc.start()
        _ACTIVE_PROCESSES.add(proc)
        return proc

    def _control_context(self):
        """The TLS context control links are admitted under (``None``: plaintext)."""
        if self.security is None:
            return None
        return self.security.server_context(self.security.coordinator_name)

    def _session_bundle(self, party: str, **rejoin) -> tuple:
        """The ``session`` frame that arms ``party``'s agent; ``rejoin``
        carries the extra keys a replacement agent needs."""
        return ("session", {
            "parties": self.parties,
            "timeout": self.timeout,
            "idle_timeout": self.idle_timeout,
            "max_workers": self.max_workers,
            "inputs": self._inputs.get(party, {}),
            "faults": self._faults.for_party(party) if self._faults else None,
            "nonce": self._nonce,
            **rejoin,
        })

    def _expect(self, party: str, sock: socket.socket, expected_tag: str):
        frame = recv_frame(sock)
        tag, *rest = frame
        if tag == "fatal":
            raise _agent_error(party, rest[0], rest[1])
        if tag != expected_tag:
            raise AgentFailure(f"agent {party!r} sent {tag!r}, expected {expected_tag!r}")
        return rest[0]

    def _start_receiver(self, party: str, sock: socket.socket) -> None:
        thread = threading.Thread(
            target=self._receive_loop, args=(party, sock), daemon=True,
            name=f"pool-recv-{party}",
        )
        thread.start()
        self._receivers.append(thread)

    # -- the query path ----------------------------------------------------------------

    def submit(
        self,
        query_id: int,
        fingerprint: str,
        compiled_to_ship,
        config,
        seed: int,
        inputs: dict | None,
    ) -> Future:
        """Frame one query out to every agent; returns the payload future.

        ``compiled_to_ship`` is the compiled plan on the first submission of
        a fingerprint and ``None`` afterwards (the agents serve it from
        their plan cache).
        """
        with self._lock:
            if self._closed or self._broken is not None:
                raise SessionClosed(self._closed_message())
            if self._recovering:
                raise AgentCrashed(
                    f"agents {sorted(self._recovering)} are being restarted; "
                    "the query was not dispatched — retry once the pool recovers"
                )
            entry = _PendingQuery(remaining=set(self.parties))
            self._pending[query_id] = entry
            self._last_query_id = max(self._last_query_id, query_id)
        # Encode every party's frame *before* sending any: a serialization
        # failure (unencodable inputs, frame over the cap) then fails only
        # this query — cleanly, with nothing half-shipped — and the session
        # keeps serving.  After successful encoding only socket errors
        # remain, and those mean the party is gone.
        try:
            frames = {
                party: encode_frame(("query", {
                    "query_id": query_id,
                    "fingerprint": fingerprint,
                    "compiled": compiled_to_ship,
                    "config": config,
                    "seed": seed,
                    # Per-party override: parties not named keep their
                    # standing session inputs (None -> agent falls back).
                    "inputs": None if inputs is None else inputs.get(party),
                }))
                for party in self.parties
            }
        except Exception:
            with self._lock:
                self._pending.pop(query_id, None)
            raise
        for party, data in frames.items():
            try:
                sock = self._connections[party]
                with self._send_locks[party]:
                    sock.sendall(data)
            except OSError as exc:
                # The receiver loop may race us to the diagnosis; either way
                # the entry's future is failed before we return.
                self._party_died(party, exc, sock)
                break
        return entry.future

    def _receive_loop(self, party: str, sock: socket.socket) -> None:
        try:
            while True:
                try:
                    frame = recv_frame(sock, allow_idle_timeout=True)
                except TimeoutError:
                    continue  # idle stream; in-flight timeouts live in the mesh
                tag = frame[0]
                if tag == "result":
                    self._resolve(party, frame[1], payload=frame[2])
                elif tag == "error":
                    self._resolve(party, frame[1], error=_agent_error(party, frame[2], frame[3]))
                elif tag == "fatal":
                    raise _agent_error(party, frame[1], frame[2])
                elif tag == "closing":
                    self._mark_closing(party, frame[1])
                    return
                elif tag == "pong":
                    if self._supervisor is not None:
                        self._supervisor.note_pong(party, frame[1])
                elif tag == "rejoined":
                    if self._supervisor is not None:
                        self._supervisor.note_rejoined(party, frame[1])
                else:
                    raise AgentFailure(f"agent {party!r} sent unknown frame {tag!r}")
        except BaseException as exc:  # noqa: BLE001 - control link is gone
            self._party_died(party, exc, sock)

    def _resolve(self, party: str, query_id: int, payload=None, error=None) -> None:
        with self._lock:
            if payload is not None and "wire_traffic" in payload:
                self._wire_traffic[party] = payload["wire_traffic"]
            entry = self._pending.get(query_id)
            if entry is None:
                return  # query already failed wholesale (e.g. a peer died)
            if error is not None:
                entry.errors.append(error)
            else:
                entry.payloads[party] = payload
            entry.remaining.discard(party)
            done = not entry.remaining
            if done:
                del self._pending[query_id]
        if done:
            entry.finish()

    def _party_died(
        self, party: str, exc: BaseException, sock: socket.socket | None = None
    ) -> None:
        supervisor = self._supervisor
        with self._lock:
            # Generation guard: a stale reader (or sender) of a control link
            # that has since been *replaced* must not re-kill the healthy
            # replacement.
            if sock is not None and self._connections.get(party) is not sock:
                return
            reason = self._kill_reasons.pop(party, None)
            if reason:
                # The EOF is only the symptom of the supervisor's own kill.
                exc = _caused_by(AgentFailure(
                    f"agent {party!r} was killed by its supervisor ({reason}); "
                    f"its control link then reported: {exc}"
                ), exc)
            supervised = (
                supervisor is not None
                and not self._closed
                and self._broken is None
                and self._closing_reason is None
                and not self._retired
            )
            if supervised:
                first_report = party not in self._recovering
                self._recovering.add(party)
                self._healthy.clear()
            elif self._broken is None and not self._closed:
                self._broken = exc
            # Whatever the pool state, leftover in-flight queries must fail
            # loudly.
            entries, self._pending = self._pending, {}
        if supervised:
            # The crash is recoverable: fail in-flight queries with the
            # *retryable* marker and hand the party to the supervisor — the
            # pool stays open and the mesh survivors stay up.
            _fail_pending(entries, _caused_by(AgentCrashed(
                f"agent {party!r} crashed mid-query; a restart is under way "
                f"and the query is safe to replay: {exc}"
            ), exc))
            if first_report:
                supervisor.notify_death(party, exc)
            return
        _fail_pending(entries, _caused_by(AgentFailure(
            f"agent {party!r} died mid-session; all in-flight queries failed: {exc}"
        ), exc))
        # Retire even when nothing was in flight: a pool broken while idle
        # must still release its surviving processes, sockets and registry
        # entries without waiting for an explicit close().
        self._retire()

    def _mark_closing(self, party: str, reason: str) -> None:
        with self._lock:
            self._closing_reason = reason
            if reason == "shutdown" or self._closed:
                return
            # Idle timeout: the agents retired themselves; the pool can no
            # longer serve queries.  Nothing should be in flight (agents only
            # idle out with an empty in-flight set).
            self._broken = SessionClosed(f"agents closed the session: {reason}")
            entries, self._pending = self._pending, {}
        _fail_pending(entries, AgentFailure(
            f"agent {party!r} closed ({reason}) with queries in flight"
        ))
        # The agents are exiting on their own and the user may never call
        # close() on the abandoned session — release the coordinator-side
        # sockets/processes/registry entries now.
        self._retire()

    def _closed_message(self) -> str:
        if self._broken is not None:
            return f"session is no longer usable: {self._broken}"
        return "session is closed"

    # -- supervision hooks (called by AgentSupervisor) ---------------------------------

    def restart_party(self, party: str, epoch: int, supervisor) -> None:
        """Run the full recovery protocol for a dead ``party``.

        Called from the supervisor's restart worker (strictly serialized).
        Raises on any failure — the supervisor treats that as a burned
        restart-budget slot and re-queues the party.
        """
        with self._lock:
            if self._closed or self._broken is not None or self._retired:
                raise SessionClosed(self._closed_message())
            survivors = [
                p for p in self.parties if p != party and p not in self._recovering
            ]
        listener = bind_listener(self.timeout, self.bind_host)
        proc = None
        sock = None
        try:
            proc = self._spawn_agent(party, listener.getsockname()[1])
            _party, sock = admit_agent(
                listener, [party],
                timeout=self.timeout + 10, server_context=self._control_context(),
            )
            send_frame(sock, self._session_bundle(
                party, rejoin=True, epoch=epoch,
                # Ids at or below this are finished (or failed-and-retried
                # under a *new* id): the replacement's mesh drops their late
                # frames instead of queueing them forever.
                released_watermark=self._last_query_id,
            ))
            mesh_port = self._expect(party, sock, "ports")
            # Park every survivor in its rejoin accept *before* handing the
            # replacement the peer ports — the dial can then never race the
            # accept.
            for peer in survivors:
                with self._send_locks[peer]:
                    send_frame(self._connections[peer], ("rejoin", {
                        "party": party, "epoch": epoch, "timeout": self.timeout,
                    }))
            send_frame(sock, ("peers", {p: self._ports[p] for p in survivors}))
            self._expect(party, sock, "ready")
            supervisor.await_rejoined(survivors, epoch, self.timeout)
        except BaseException:
            close_quietly(sock)
            if proc is not None:
                _reap(proc)
            raise
        finally:
            close_quietly(listener)
        self._install_replacement(party, proc, sock, mesh_port)

    def _install_replacement(
        self, party: str, proc, sock: socket.socket, mesh_port: tuple[str, int]
    ) -> None:
        with self._lock:
            old_proc = self._processes.get(party)
            old_sock = self._connections.get(party)
            self._processes[party] = proc
            self._connections[party] = sock
            self._send_locks[party] = threading.Lock()
            self._ports[party] = mesh_port
            self._recovering.discard(party)
            # A kill whose EOF was reported before it landed left its reason
            # behind; it must not relabel the replacement's next death.
            self._kill_reasons.pop(party, None)
            recovered = not self._recovering
        if old_proc is not None and old_proc is not proc:
            _ACTIVE_PROCESSES.discard(old_proc)
        if old_sock is not sock:
            close_quietly(old_sock)
        self._start_receiver(party, sock)
        if self._on_restart is not None:
            self._on_restart(party)
        if recovered:
            self._healthy.set()

    def fail_permanently(self, party: str, history: list, cause: BaseException) -> None:
        """Escalation target for an exhausted restart budget: break the pool
        with a structured, history-carrying :class:`AgentFailure`."""
        restarts = len([r for r in history if r.get("party") == party])
        failure = _caused_by(AgentFailure(
            f"agent {party!r} exhausted its restart budget after {restarts} "
            f"attempt(s); the session is permanently broken: {cause}"
        ), cause)
        failure.attempts = [dict(r) for r in history]
        with self._lock:
            if self._broken is None and not self._closed:
                self._broken = failure
            entries, self._pending = self._pending, {}
            self._recovering.discard(party)
        _fail_pending(entries, failure)
        self._healthy.set()  # wake retry waiters; they observe broken and give up
        self._retire()

    def wait_recovered(self, timeout: float) -> bool:
        """Block until no party is mid-restart; False on timeout/broken pool."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                if self._closed or self._broken is not None:
                    return False
                if not self._recovering:
                    return True
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            self._healthy.wait(timeout=min(remaining, 0.25))

    def live_parties(self) -> list[str]:
        """Parties with a (believed-)healthy control link right now."""
        with self._lock:
            if self._closed or self._broken is not None or self._retired:
                return []
            return [p for p in self.parties if p not in self._recovering]

    def send_ping(self, party: str, seq: int) -> bool:
        """Heartbeat one agent; False when the link is unusable (the
        receiver-side EOF path owns the actual death diagnosis)."""
        with self._lock:
            if self._closed or self._broken is not None or party in self._recovering:
                return False
            sock = self._connections.get(party)
            lock = self._send_locks.get(party)
        if sock is None or lock is None:
            return False
        try:
            with lock:
                send_frame(sock, ("ping", seq))
            return True
        except (WireError, OSError):
            return False

    def kill_party(self, party: str, reason: str = "") -> None:
        """Hard-kill one agent process (heartbeat escalation); the control
        link EOF then drives the ordinary crash/restart path, which reports
        ``reason`` as the cause of death."""
        with self._lock:
            proc = self._processes.get(party)
            if proc is None or not proc.is_alive():
                return
            if reason:
                self._kill_reasons[party] = reason
        proc.kill()

    # -- lifecycle ----------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def broken(self) -> BaseException | None:
        return self._broken

    def in_flight(self) -> int:
        with self._lock:
            return len(self._pending)

    def wire_traffic(self) -> dict[str, dict]:
        """Latest per-party mesh traffic: ``{party: {peer: {bytes_sent, ...}}}``.

        Each party's entry is the cumulative snapshot its agent reported
        with its most recent query result (deep-copied: safe to hand out).
        """
        with self._lock:
            return {
                party: {peer: dict(stats) for peer, stats in traffic.items()}
                for party, traffic in self._wire_traffic.items()
            }

    def _retire(self) -> None:
        """Release OS resources of a pool that can no longer serve queries.

        Runs once, from whichever thread first diagnoses the pool as broken
        (crash) or retired (idle timeout): closes the control sockets (which
        also unblocks sibling receiver threads and makes surviving agents
        exit on control-link EOF), reaps the processes, and notifies the
        owning session so registries do not pin an abandoned session.
        """
        with self._lock:
            if self._retired:
                return
            self._retired = True
        if self._supervisor is not None:
            self._supervisor.stop()
        self._teardown(grace=2.0)
        if self._on_retire is not None:
            self._on_retire()

    def close(self, *, drain: bool = True) -> None:
        """Shut the pool down; with ``drain``, in-flight queries finish first."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = [e.future for e in self._pending.values()]
            broken = self._broken is not None
        if self._supervisor is not None:
            # No restarts during shutdown; also unblocks retry waiters.
            self._supervisor.stop()
            self._healthy.set()
        if drain and not broken:
            for future in pending:
                try:
                    future.exception(timeout=self.timeout)
                except Exception as exc:  # noqa: BLE001 - drain best-effort; teardown follows
                    _count_teardown_error("AgentPool.close drain", exc)
        if not broken:
            for party, sock in self._connections.items():
                try:
                    with self._send_locks[party]:
                        send_frame(sock, ("shutdown", None))
                except (WireError, OSError):
                    pass
            # Receivers exit when their agent confirms ("closing", "shutdown").
            for thread in self._receivers:
                thread.join(timeout=self.timeout)
        # Unblock any receiver still parked in recv (e.g. the surviving
        # parties of a broken pool) before waiting for it.
        self._close_links()
        for thread in self._receivers:
            thread.join(timeout=5)
        # Agents that confirmed shutdown exit on their own; survivors of a
        # broken pool never will, so skip the grace period and terminate.
        self._teardown(grace=0.0 if broken else 5.0)

    def _close_links(self) -> None:
        for sock in self._connections.values():
            close_quietly(sock, shutdown=True)

    def _teardown(self, grace: float = 0.0) -> None:
        self._close_links()
        for proc in self._processes.values():
            _reap(proc, grace)
