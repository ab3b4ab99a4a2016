"""The persistent query service: long-lived agent pools and query sessions.

The paper's deployment model is *standing* data-owning parties answering a
stream of analyst queries.  The first socket runtime spawned a fresh agent
mesh per query, so spawn + handshake dominated latency; this module keeps
the :class:`~repro.runtime.agent.PartyAgent` processes alive across queries:

* :class:`AgentPool` — the process/socket substrate: spawns one agent OS
  process per party, brokers the mesh handshake **once**, then keeps the
  control links open, routing result/error frames (tagged by query id) from
  per-party receiver threads into per-query futures.  A control link that
  dies marks the pool broken and fails every in-flight query loudly.
* :class:`QuerySession` — the analyst-facing handle: ``submit(plan)`` many
  times (thread-safe, concurrently), per-session compiled-plan caching
  keyed by plan fingerprint (each distinct plan is encoded and shipped once),
  and a graceful lifecycle (context manager, drain-on-close, optional idle
  timeout after which the agents retire themselves).

Single-query execution (``runtime="sockets"``) is the degenerate case: the
coordinator opens a session, submits once, and closes — so both paths share
one protocol and one set of tests.  ``runtime="service"`` reuses a shared
session per party set via :func:`shared_session`.
"""

from __future__ import annotations

import atexit
import hashlib
import logging
import multiprocessing
import secrets
import socket
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.core.config import (
    CompilationConfig,
    GatewayConfig,
    RestartPolicy,
    RetryPolicy,
    TransportSecurity,
)
from repro.runtime.agent import AGENT_MAX_WORKERS, agent_main
from repro.runtime.gateway import DEFAULT_ANALYST, QueryGateway, QueryRejected  # noqa: F401
from repro.runtime.mesh import bind_listener
from repro.runtime.metrics import GatewayMetrics, MetricsServer
from repro.runtime.supervisor import AgentSupervisor
from repro.runtime.transport import TransportError
from repro.runtime.wire import (
    WireError,
    encode_frame,
    encode_payload,
    peer_common_name,
    recv_frame,
    secure_server_socket,
    send_frame,
)

logger = logging.getLogger("repro.runtime.service")

#: Live agent processes, for leak-hunting test fixtures.
_ACTIVE_PROCESSES: "set[multiprocessing.process.BaseProcess]" = set()

#: Open sessions, for leak-hunting test fixtures and atexit cleanup.
_ACTIVE_SESSIONS: "set[QuerySession]" = set()

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
    """Agent processes started by any pool/coordinator that are still alive."""
    return [p for p in list(_ACTIVE_PROCESSES) if p.is_alive()]


def active_sessions() -> list:
    """Sessions opened anywhere in the process that are still open."""
    return [s for s in list(_ACTIVE_SESSIONS) if not s.closed]


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


def plan_fingerprint(compiled) -> str:
    """SHA-256 of a compiled plan's wire-codec bytes, for per-session caching.

    The bytes are a function of the plan's structure alone
    (:func:`~repro.core.compiler.compile_query` numbers nodes and names
    rewritten relations per compile), so equal plans fingerprint equal — the
    same object resubmitted, or the same query recompiled under the same
    config, ships once — and plans that differ in DAG or config never
    collide.

    Memoized on the compiled object so the warm path ("submit many") never
    re-encodes the plan just to hash it.
    """
    cached = getattr(compiled, "_plan_fingerprint", None)
    if cached is not None:
        return cached
    fingerprint = hashlib.sha256(encode_payload(compiled)).hexdigest()
    try:
        compiled._plan_fingerprint = fingerprint
    except AttributeError:
        pass  # slotted/frozen plan object: hash again next time
    return fingerprint


def merge_payloads(compiled, parties: list[str], payloads: dict[str, dict]):
    """Merge per-agent result payloads into one QueryResult.

    Used by every socket-runtime path: per-node durations max-merge (local
    nodes are reported by their executing agent, joint nodes identically by
    every agent), each output comes from the first recipient that
    materialised it, per-party leakage concatenates while joint (replicated)
    events are taken once from the lead agent.
    """
    from repro.core.dispatch import QueryResult
    from repro.hybrid.stp import LeakageReport
    from repro.runtime.executor import completion_seconds

    lead = parties[0]

    durations: dict[int, float] = {}
    for payload in payloads.values():
        for node_id, seconds in payload["node_durations"].items():
            durations[node_id] = max(durations.get(node_id, 0.0), seconds)

    outputs: dict[str, object] = {}
    for node in compiled.dag.outputs():
        name = node.out_rel.name
        for party in [*node.recipients, *parties]:
            payload = payloads.get(party)
            if payload is not None and name in payload["outputs"]:
                outputs[name] = payload["outputs"][name]
                break

    leakage = LeakageReport()
    for party in parties:
        leakage.events.extend(payloads[party]["leakage"].events)
    leakage.events.extend(payloads[lead]["joint_leakage"].events)

    backend_seconds: dict[str, float] = {}
    for party in parties:
        mine = payloads[party]["backend_seconds"]
        key = f"local:{party}"
        if key in mine:
            backend_seconds[key] = mine[key]
    for key, value in payloads[lead]["backend_seconds"].items():
        if key.startswith("mpc:") or key not in backend_seconds:
            backend_seconds.setdefault(key, value)

    return QueryResult(
        outputs=outputs,
        simulated_seconds=completion_seconds(compiled.dag, durations),
        wall_seconds=0.0,  # stamped by the caller
        leakage=leakage,
        backend_seconds=backend_seconds,
        mpc_profile=payloads[lead]["mpc_profile"],
        runtime="sockets",
        isolation={
            party: payloads[party].get("isolation", {}) for party in parties
        },
    )


def _query_completion_counters(payloads: dict[str, dict]) -> dict[str, int]:
    """Per-query counter increments derived from the agents' payloads.

    ``rows_processed`` counts the rows of every distinct output relation
    (each output is counted once even when several parties received it);
    ``mpc_rounds`` is the joint protocol's *wire* round count — the number
    of real mesh exchanges (``Network.round`` calls), which the batched
    share-vector protocols keep independent of relation size.  Shapes and counts only,
    never values: the counters stay on the right side of the privacy
    boundary.
    """
    rows: dict[str, int] = {}
    mpc_rounds = 0
    for payload in payloads.values():
        for name, table in payload.get("outputs", {}).items():
            rows.setdefault(name, table.num_rows)
        profile = payload.get("mpc_profile") or {}
        mpc_rounds = max(
            mpc_rounds, int(profile.get("wire_rounds", profile.get("rounds", 0)))
        )
    return {"rows_processed": sum(rows.values()), "mpc_rounds": mpc_rounds}


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
            for party in self.parties:
                self._processes[party] = self._spawn_agent(party, port)

            self._connections = self._accept_agents(listener)
            self._send_locks = {p: threading.Lock() for p in self._connections}
            for party, sock in self._connections.items():
                send_frame(sock, ("session", {
                    "parties": self.parties,
                    "timeout": timeout,
                    "idle_timeout": idle_timeout,
                    "max_workers": max_workers,
                    "inputs": self._inputs.get(party, {}),
                    "faults": faults.for_party(party) if faults else None,
                    "nonce": self._nonce,
                }))

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
            try:
                listener.close()
            except OSError:
                pass

        for party, sock in self._connections.items():
            thread = threading.Thread(
                target=self._receive_loop, args=(party, sock), daemon=True,
                name=f"pool-recv-{party}",
            )
            thread.start()
            self._receivers.append(thread)
        # The supervisor comes up last: its heartbeat/restart machinery must
        # only ever observe a fully established pool.
        if restart is not None:
            self._supervisor = AgentSupervisor(self, restart, metrics=metrics)

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

    # -- handshake ---------------------------------------------------------------------

    def _accept_agents(self, listener: socket.socket) -> dict[str, socket.socket]:
        server_context = (
            None if self.security is None
            else self.security.server_context(self.security.coordinator_name)
        )
        connections: dict[str, socket.socket] = {}
        for _ in self.parties:
            try:
                sock, _addr = listener.accept()
            except (socket.timeout, OSError) as exc:
                raise AgentFailure(
                    f"timed out waiting for agents to connect; got {sorted(connections)} "
                    f"of {self.parties}"
                ) from exc
            sock.settimeout(self.timeout + 10)
            if server_context is not None:
                try:
                    sock = secure_server_socket(sock, server_context)
                except WireError as exc:
                    raise AgentFailure(f"agent control handshake failed: {exc}") from exc
            tag, party = recv_frame(sock)
            if tag != "hello" or party not in self.parties or party in connections:
                raise AgentFailure(f"malformed agent hello: {(tag, party)!r}")
            cn = peer_common_name(sock)
            if cn is not None and cn != party:
                raise AgentFailure(
                    f"agent hello claims party {party!r} but its TLS certificate "
                    f"authenticates {cn!r}"
                )
            connections[party] = sock
        return connections

    def _expect(self, party: str, sock: socket.socket, expected_tag: str):
        frame = recv_frame(sock)
        tag, *rest = frame
        if tag == "fatal":
            raise _agent_error(party, rest[0], rest[1])
        if tag != expected_tag:
            raise AgentFailure(f"agent {party!r} sent {tag!r}, expected {expected_tag!r}")
        return rest[0]

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
            # loudly — an unresolved future is a deadlocked caller.
            entries = list(self._pending.values())
            self._pending.clear()
        if supervised:
            # The crash is recoverable: fail in-flight queries with the
            # *retryable* marker and hand the party to the supervisor — the
            # pool stays open and the mesh survivors stay up.
            if entries:
                crash = AgentCrashed(
                    f"agent {party!r} crashed mid-query; a restart is under way "
                    f"and the query is safe to replay: {exc}"
                )
                crash.__cause__ = exc if isinstance(exc, Exception) else None
                for entry in entries:
                    if not entry.future.done():
                        entry.future.set_exception(crash)
            if first_report:
                supervisor.notify_death(party, exc)
            return
        if entries:
            failure = AgentFailure(
                f"agent {party!r} died mid-session; all in-flight queries failed: {exc}"
            )
            failure.__cause__ = exc if isinstance(exc, Exception) else None
            for entry in entries:
                if not entry.future.done():
                    entry.future.set_exception(failure)
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
            # longer serve queries.  Nothing was in flight (agents only
            # idle out with an empty in-flight set).
            entries = list(self._pending.values())
            self._pending.clear()
            self._broken = SessionClosed(f"agents closed the session: {reason}")
        for entry in entries:
            if not entry.future.done():
                entry.future.set_exception(AgentFailure(
                    f"agent {party!r} closed ({reason}) with queries in flight"
                ))
        if reason != "shutdown":
            # Idle retirement: the agents are exiting on their own and the
            # user may never call close() on the abandoned session — release
            # the coordinator-side sockets/processes/registry entries now.
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
            try:
                sock, _addr = listener.accept()
            except (socket.timeout, OSError) as exc:
                raise AgentFailure(
                    f"replacement agent {party!r} never connected back"
                ) from exc
            sock.settimeout(self.timeout + 10)
            if self.security is not None:
                sock = secure_server_socket(
                    sock, self.security.server_context(self.security.coordinator_name)
                )
            tag, hello_party = recv_frame(sock)
            if tag != "hello" or hello_party != party:
                raise AgentFailure(
                    f"malformed replacement hello: {(tag, hello_party)!r}"
                )
            cn = peer_common_name(sock)
            if cn is not None and cn != party:
                raise AgentFailure(
                    f"replacement hello claims party {party!r} but its TLS "
                    f"certificate authenticates {cn!r}"
                )
            send_frame(sock, ("session", {
                "parties": self.parties,
                "timeout": self.timeout,
                "idle_timeout": self.idle_timeout,
                "max_workers": self.max_workers,
                "inputs": self._inputs.get(party, {}),
                "faults": self._faults.for_party(party) if self._faults else None,
                "rejoin": True,
                "epoch": epoch,
                "nonce": self._nonce,
                # Ids at or below this are finished (or failed-and-retried
                # under a *new* id): the replacement's mesh drops their late
                # frames instead of queueing them forever.
                "released_watermark": self._last_query_id,
            }))
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
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
            if proc is not None:
                proc.terminate()
                proc.join(timeout=5)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=5)
                _ACTIVE_PROCESSES.discard(proc)
            raise
        finally:
            try:
                listener.close()
            except OSError:
                pass
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
            recovered = not self._recovering
        if old_proc is not None and old_proc is not proc:
            _ACTIVE_PROCESSES.discard(old_proc)
        if old_sock is not None and old_sock is not sock:
            try:
                old_sock.close()
            except OSError:
                pass
        thread = threading.Thread(
            target=self._receive_loop, args=(party, sock), daemon=True,
            name=f"pool-recv-{party}",
        )
        thread.start()
        self._receivers.append(thread)
        if self._on_restart is not None:
            self._on_restart(party)
        if recovered:
            self._healthy.set()

    def fail_permanently(self, party: str, history: list, cause: BaseException) -> None:
        """Escalation target for an exhausted restart budget: break the pool
        with a structured, history-carrying :class:`AgentFailure`."""
        restarts = len([r for r in history if r.get("party") == party])
        failure = AgentFailure(
            f"agent {party!r} exhausted its restart budget after {restarts} "
            f"attempt(s); the session is permanently broken: {cause}"
        )
        failure.attempts = [dict(r) for r in history]
        failure.__cause__ = cause if isinstance(cause, Exception) else None
        with self._lock:
            if self._broken is None and not self._closed:
                self._broken = failure
            entries = list(self._pending.values())
            self._pending.clear()
            self._recovering.discard(party)
        for entry in entries:
            if not entry.future.done():
                entry.future.set_exception(failure)
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
        link EOF then drives the ordinary crash/restart path."""
        proc = self._processes.get(party)
        if proc is not None and proc.is_alive():
            proc.kill()

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
        for sock in self._connections.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._teardown(grace=2.0)
        if self._on_retire is not None:
            self._on_retire()

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
        # parties of a broken pool): shutdown() interrupts a blocked read
        # (plain close() would not), then the socket can be closed.
        for sock in self._connections.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        for thread in self._receivers:
            thread.join(timeout=5)
        # Agents that confirmed shutdown exit on their own; survivors of a
        # broken pool never will, so skip the grace period and terminate.
        self._teardown(grace=0.0 if broken else 5.0)

    def _teardown(self, grace: float = 0.0) -> None:
        for sock in self._connections.values():
            try:
                sock.close()
            except OSError:
                pass
        for proc in self._processes.values():
            if grace:
                proc.join(timeout=grace)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5)
            _ACTIVE_PROCESSES.discard(proc)


class PendingResult:
    """Handle for one submitted query; ``result()`` blocks and merges."""

    def __init__(self, session: "QuerySession", compiled, future: Future, started: float):
        self._session = session
        self._compiled = compiled
        self._future = future
        self._started = started

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: float | None = None):
        """The merged :class:`~repro.core.dispatch.QueryResult` (blocking).

        A ``timeout`` bounds the wait: expiry raises :class:`AgentFailure`
        (the query may still be running; the session stays usable).
        """
        try:
            payloads = self._future.result(timeout)
        except TimeoutError:
            raise AgentFailure(
                f"no result within {timeout:.0f}s; the agents may be wedged "
                "(mesh-level timeouts surface blocked exchanges, but purely "
                "local agent work is unbounded)"
            ) from None
        merged = merge_payloads(self._compiled, self._session.parties, payloads)
        merged.wall_seconds = time.perf_counter() - self._started
        merged.runtime = self._session.runtime_label
        return merged


class QuerySession:
    """A standing mesh of party agents serving a stream of queries.

    Open once (agents spawn, mesh connects), ``submit`` many times — from
    any thread, concurrently — and close explicitly or via ``with``.  Plans
    are cached per session by DAG fingerprint, so resubmitting the same
    compiled plan ships only its fingerprint.
    """

    def __init__(
        self,
        parties: list[str],
        inputs: dict | None = None,
        config: CompilationConfig | None = None,
        seed: int = 0,
        *,
        timeout: float = 60.0,
        idle_timeout: float | None = None,
        start_method: str | None = None,
        runtime_label: str = "service",
        max_workers: int = AGENT_MAX_WORKERS,
        gateway: GatewayConfig | None = None,
        restart: RestartPolicy | None = None,
        retry: RetryPolicy | None = None,
        faults=None,
        security: TransportSecurity | None = None,
    ):
        if not isinstance(max_workers, int) or isinstance(max_workers, bool) or max_workers < 1:
            raise ValueError(f"max_workers must be an int >= 1, got {max_workers!r}")
        self.parties = list(parties)
        self.config = config or CompilationConfig()
        self.seed = seed
        self.runtime_label = runtime_label
        self._retry = retry.validate() if retry is not None else None
        if faults is not None:
            faults.validate()
        self._submit_lock = threading.Lock()
        # Next query id, advanced only on successful dispatch (under the
        # submit lock) so a failed submission leaves no id gap — the mesh's
        # released-id watermark relies on ids being contiguous.
        self._next_qid = 1
        self._shipped_fingerprints: set[str] = set()
        self._metrics = GatewayMetrics()
        self._metrics_server: MetricsServer | None = None
        # The gateway fronts the pool: it must exist before the pool so the
        # retire callback (which may fire from a receiver thread the moment
        # the pool is up) can always close it.
        self._gateway = QueryGateway(
            gateway,
            max_in_flight_default=max_workers,
            metrics=self._metrics,
            closed_error=SessionClosed,
            completion_counters=_query_completion_counters,
        )
        self._pool = AgentPool(
            self.parties,
            inputs=inputs,
            timeout=timeout,
            idle_timeout=idle_timeout,
            start_method=start_method,
            max_workers=max_workers,
            on_retire=self._pool_retired,
            restart=restart,
            faults=faults,
            metrics=self._metrics,
            on_restart=self._party_restarted,
            bind_host=self.config.bind_host,
            security=security,
        )
        self._metrics.set_wire_provider(self._pool.wire_traffic)
        _ACTIVE_SESSIONS.add(self)
        if self._pool._retired:  # lost the race against an immediate retire
            _ACTIVE_SESSIONS.discard(self)

    def _pool_retired(self) -> None:
        """Pool retired (broken or idle): fail queued queries, drop registries."""
        _ACTIVE_SESSIONS.discard(self)
        pool = getattr(self, "_pool", None)
        broken = pool.broken if pool is not None else None
        self._gateway.close(broken if isinstance(broken, Exception) else None)

    def _party_restarted(self, party: str) -> None:
        """A replacement agent joined: its plan cache is empty, so every plan
        must ship again on next use (re-shipping to survivors is harmless —
        their caches are simply overwritten with identical plans)."""
        with self._submit_lock:
            self._shipped_fingerprints.clear()

    # -- submission --------------------------------------------------------------------

    def submit_async(
        self,
        query,
        inputs: dict | None = None,
        seed: int | None = None,
        config: CompilationConfig | None = None,
        *,
        analyst: str = DEFAULT_ANALYST,
    ) -> PendingResult:
        """Admit one query through the gateway; returns immediately.

        ``query`` is a compiled plan (preferred — compile once, submit many)
        or anything :func:`repro.core.compiler.compile_query` accepts.
        ``inputs`` optionally overrides the session's standing inputs for
        this query only (per party; parties not named keep their standing
        inputs).  ``seed``/``config`` default to the session's.  ``analyst``
        names the submitting principal for admission control and fair
        scheduling; queries of unnamed analysts share one default principal.

        Raises :class:`~repro.runtime.gateway.QueryRejected` when the
        session's :class:`~repro.core.config.GatewayConfig` queue limits are
        exceeded — the query was shed before reaching the agents and the
        session stays fully usable.
        """
        from repro.core.compiler import CompiledQuery, compile_query

        config = config or self.config
        compiled = query if isinstance(query, CompiledQuery) else compile_query(query, config)
        fingerprint = plan_fingerprint(compiled)
        started = time.perf_counter()
        query_seed = self.seed if seed is None else seed
        future = self._gateway.submit(
            analyst,
            lambda: self._dispatch_query(compiled, fingerprint, config, query_seed, inputs),
        )
        return PendingResult(self, compiled, future, started)

    def _dispatch_query(
        self, compiled, fingerprint: str, config, seed: int, inputs: dict | None
    ) -> Future:
        """Frame one admitted query out to the agents (gateway dispatch hook).

        Without a :class:`~repro.core.config.RetryPolicy` this is one shot:
        the pool future is handed to the gateway directly.  With one, the
        gateway gets an *outer* future spanning up to ``max_attempts``
        attempts — so the gateway's in-flight slot, execute-latency
        observation and completed/failed counters all cover the whole
        retried query, and a recovered crash is invisible to the analyst
        apart from latency.  Every failure of every attempt, whether raised
        while dispatching or delivered by the pool future, reaches the
        caller through that outer future.
        """
        def dispatch() -> Future:
            return self._dispatch_once(compiled, fingerprint, config, seed, inputs)

        if self._retry is None or self._retry.max_attempts <= 1:
            return dispatch()
        outer: Future = Future()
        self._attempt(outer, dispatch, [])
        return outer

    def _retryable(self, exc: BaseException) -> bool:
        if isinstance(exc, AgentCrashed):
            return True
        return bool(
            self._retry is not None
            and self._retry.retry_transport_errors
            and isinstance(exc, TransportError)
        )

    def _attempt(self, outer: Future, dispatch, history: list) -> None:
        """Run one attempt of a retried query; never blocks, never raises."""
        def settle(finished: Future) -> None:
            exc = finished.exception()
            if exc is None:
                outer.set_result(finished.result())
            else:
                self._attempt_failed(outer, dispatch, history, exc)

        try:
            inner = dispatch()
        except Exception as exc:  # noqa: BLE001 - classified like a mid-flight failure
            self._attempt_failed(outer, dispatch, history, exc)
        else:
            inner.add_done_callback(settle)

    def _attempt_failed(
        self, outer: Future, dispatch, history: list, exc: BaseException
    ) -> None:
        """The one place a failed attempt is classified: fail, give up, or retry."""
        if not self._retryable(exc):
            outer.set_exception(exc)
            return
        history.append({"attempt": len(history) + 1, "error": repr(exc)})
        if len(history) >= self._retry.max_attempts:
            self._give_up(outer, history, exc)
            return
        # The wait runs on its own thread: this may be a pool receiver
        # thread, which must never block on backoff or on the pool
        # recovering (it may *be* the thread driving recovery bookkeeping).
        threading.Thread(
            target=self._retry_after_recovery, daemon=True, name="query-retry",
            args=(outer, dispatch, history, exc),
        ).start()

    def _retry_after_recovery(
        self, outer: Future, dispatch, history: list, last_exc: BaseException
    ) -> None:
        retry = self._retry
        # A retry is only worth dispatching on a recovered pool;
        # wait_recovered also notices a permanently broken pool early.
        if not self._pool.wait_recovered(self._pool.timeout):
            broken = self._pool.broken
            self._give_up(outer, history, last_exc if broken is None else broken)
            return
        backoff = min(
            retry.backoff_seconds * retry.backoff_multiplier ** (len(history) - 1),
            retry.max_backoff_seconds,
        )
        if backoff > 0:
            time.sleep(backoff)
        self._metrics.inc("queries_retried")
        self._attempt(outer, dispatch, history)

    def _give_up(self, outer: Future, history: list, last_exc: BaseException) -> None:
        self._metrics.inc("retries_exhausted")
        failure = AgentFailure(
            f"query failed after {len(history)} attempt(s) "
            f"(RetryPolicy.max_attempts={self._retry.max_attempts}); giving up: {last_exc}"
        )
        failure.attempts = [dict(r) for r in history]
        # A permanently broken pool carries the supervisor's restart history;
        # surface it on the failure the caller actually catches, not only on
        # the chained cause.
        supervisor_history = getattr(last_exc, "attempts", None)
        if supervisor_history:
            failure.attempts.extend(dict(r) for r in supervisor_history)
        failure.__cause__ = last_exc if isinstance(last_exc, Exception) else None
        outer.set_exception(failure)

    def _dispatch_once(
        self, compiled, fingerprint: str, config, seed: int, inputs: dict | None
    ) -> Future:
        """Frame one query attempt out to the agents.

        One lock around fingerprint bookkeeping *and* frame dispatch: the
        control links are FIFO per party, so holding the lock guarantees the
        plan-bearing frame reaches every agent before any frame that
        references the plan by fingerprint alone.
        """
        with self._submit_lock:
            ship = fingerprint not in self._shipped_fingerprints
            query_id = self._next_qid
            future = self._pool.submit(
                query_id,
                fingerprint,
                compiled if ship else None,
                config,
                seed,
                inputs,
            )
            # Only now is the id consumed: a submit that raised (e.g. its
            # frame failed to encode) shipped nothing, so the id is reused.
            self._next_qid += 1
            self._shipped_fingerprints.add(fingerprint)
            # One atomic multi-increment: any stats snapshot satisfies
            # plan_cache_hits + plan_cache_misses == queries.
            self._metrics.inc_many({
                "queries": 1,
                "plan_cache_misses" if ship else "plan_cache_hits": 1,
            })
        return future

    def submit(
        self,
        query,
        inputs: dict | None = None,
        seed: int | None = None,
        config: CompilationConfig | None = None,
        timeout: float | None = None,
        *,
        analyst: str = DEFAULT_ANALYST,
        retries: int = 0,
    ):
        """Execute one query on the standing agents and block for its result.

        ``retries`` bounds how many times a submission *shed by the gateway*
        (:class:`~repro.runtime.gateway.QueryRejected`) is automatically
        resubmitted, honouring each rejection's ``retry_after_seconds`` hint
        before trying again.  The default 0 re-raises the first rejection,
        preserving the explicit shed-and-retry contract for callers that
        implement their own backoff.
        """
        rejections = 0
        while True:
            try:
                return self.submit_async(
                    query, inputs=inputs, seed=seed, config=config, analyst=analyst
                ).result(timeout)
            except QueryRejected as exc:
                if rejections >= retries:
                    raise
                rejections += 1
                time.sleep(exc.retry_after_seconds)

    # -- observability -----------------------------------------------------------------

    @property
    def stats(self) -> dict:
        """An immutable snapshot of the session's metrics (plain dicts).

        Every read returns a fresh, internally consistent copy — mutating it
        never touches live state, and ``plan_cache_hits + plan_cache_misses
        == queries`` holds in any snapshot, even one taken concurrently with
        submissions.  Beyond the legacy counters it carries the gateway
        counters/gauges, latency summaries (queue-wait, execute, end-to-end)
        and per-party bytes-on-wire.
        """
        snapshot = self._metrics.snapshot()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        return {
            "queries": counters.get("queries", 0),
            "plan_cache_hits": counters.get("plan_cache_hits", 0),
            "plan_cache_misses": counters.get("plan_cache_misses", 0),
            "queries_submitted": counters.get("queries_submitted", 0),
            "queries_rejected": counters.get("queries_rejected", 0),
            "queries_completed": counters.get("queries_completed", 0),
            "queries_failed": counters.get("queries_failed", 0),
            "rows_processed": counters.get("rows_processed", 0),
            "mpc_rounds": counters.get("mpc_rounds", 0),
            "in_flight": int(gauges.get("in_flight", 0)),
            "queued": int(gauges.get("queue_depth", 0)),
            "restarts": counters.get("agent_restarts", 0),
            "restart_failures": counters.get("agent_restart_failures", 0),
            "retries": counters.get("queries_retried", 0),
            "retries_exhausted": counters.get("retries_exhausted", 0),
            "latency": snapshot["latency"],
            "wire": snapshot["wire"],
        }

    @property
    def metrics(self) -> GatewayMetrics:
        """The session's live metric registry (counters/gauges/histograms)."""
        return self._metrics

    @property
    def gateway(self) -> QueryGateway:
        """The session's admission-control gateway."""
        return self._gateway

    def queued(self) -> int:
        """Queries admitted but still waiting in the gateway."""
        return self._gateway.queued()

    def render_prometheus(self) -> str:
        """The session's metrics in the Prometheus text exposition format."""
        return self._metrics.render_prometheus()

    def serve_metrics(self, host: str = "127.0.0.1", port: int = 0) -> MetricsServer:
        """Start (or return) the session's local ``GET /metrics`` endpoint.

        Binds an ephemeral localhost port by default; the returned server's
        ``url`` is the scrape target.  Closed automatically with the session.
        """
        if self._metrics_server is None:
            self._metrics_server = MetricsServer(
                self._metrics.render_prometheus, host=host, port=port
            )
        return self._metrics_server

    # -- lifecycle ----------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._pool.closed or self._pool.broken is not None

    def in_flight(self) -> int:
        return self._pool.in_flight()

    def close(self, *, drain: bool = True) -> None:
        """Drain in-flight queries (unless ``drain=False``) and retire the agents.

        Queries still *queued* in the gateway fail with
        :class:`SessionClosed`; already-dispatched queries drain as before.
        """
        self._gateway.close(SessionClosed("session closed"))
        self._pool.close(drain=drain)
        if self._metrics_server is not None:
            self._metrics_server.close()
            self._metrics_server = None
        _ACTIVE_SESSIONS.discard(self)

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)


def open_session(
    inputs: dict | None = None,
    config: CompilationConfig | None = None,
    seed: int = 0,
    *,
    parties: list[str] | None = None,
    timeout: float = 60.0,
    idle_timeout: float | None = None,
    start_method: str | None = None,
    max_workers: int = AGENT_MAX_WORKERS,
    gateway: GatewayConfig | None = None,
    restart: RestartPolicy | None = None,
    retry: RetryPolicy | None = None,
    faults=None,
    security: TransportSecurity | None = None,
) -> QuerySession:
    """Open a persistent query session over one agent process per party.

    ``inputs`` maps party name -> {relation name -> Table} and becomes the
    session's standing data (each ``submit`` may override it per query);
    ``parties`` defaults to the input owners.  ``max_workers`` bounds how
    many queries each agent executes concurrently (also the default
    in-flight cap of the gateway); ``gateway`` sets the session's admission
    control and fair-scheduling limits (:class:`~repro.core.config
    .GatewayConfig` — the default admits without queue limits, preserving
    pre-gateway behaviour).

    ``restart`` (a :class:`~repro.core.config.RestartPolicy`) turns on agent
    supervision: a crashed agent process is restarted, re-joined to the
    surviving mesh and re-armed with the session's standing inputs, instead
    of the crash breaking the session.  ``retry`` (a
    :class:`~repro.core.config.RetryPolicy`) makes queries hit by such a
    crash (or by a transport-level failure) replay transparently — safe
    because queries are pure functions of (plan, inputs, seed).  ``faults``
    (a :class:`~repro.runtime.faults.FaultPlan`) arms the deterministic
    fault-injection harness used by the chaos tests.  ``security`` (a
    :class:`~repro.core.config.TransportSecurity`) wraps every control,
    mesh and rejoin link in mutually-authenticated TLS and makes every
    hello carry the session nonce — required for deployments that leave
    loopback (pair it with ``config.bind_host``).  Close the session
    explicitly or use it as a context manager::

        with cc.open_session(inputs) as session:
            for plan in plans:
                result = session.submit(plan)
    """
    if parties is None:
        if not inputs:
            raise ValueError("open_session needs inputs or an explicit parties list")
        parties = sorted(inputs)
    return QuerySession(
        parties,
        inputs=inputs,
        config=config,
        seed=seed,
        timeout=timeout,
        idle_timeout=idle_timeout,
        start_method=start_method,
        max_workers=max_workers,
        gateway=gateway,
        restart=restart,
        retry=retry,
        faults=faults,
        security=security,
    )


# -- shared sessions for run_query(runtime="service") ---------------------------------------

_SHARED_SESSIONS: dict[tuple, QuerySession] = {}
_SHARED_LOCK = threading.Lock()


def shared_session(
    parties: list[str],
    *,
    timeout: float = 60.0,
    start_method: str | None = None,
    bind_host: str = "127.0.0.1",
) -> QuerySession:
    """The process-wide standing session for ``parties`` (created on demand).

    Backs ``run_query(..., runtime="service")``: repeated queries over the
    same party set reuse one warm agent mesh.  ``bind_host`` is where that
    mesh binds and advertises (``CompilationConfig.bind_host``); a different
    host is a different mesh.  Shared sessions carry no standing inputs —
    every submission ships its own — and are closed by
    :func:`close_shared_sessions` (registered ``atexit``).
    """
    key = (tuple(parties), timeout, start_method, bind_host)
    with _SHARED_LOCK:
        session = _SHARED_SESSIONS.get(key)
        if session is None or session.closed:
            session = QuerySession(
                parties, config=CompilationConfig(bind_host=bind_host),
                timeout=timeout, start_method=start_method,
            )
            _SHARED_SESSIONS[key] = session
        return session


def close_shared_sessions() -> None:
    """Close every shared session (used by tests and at interpreter exit)."""
    with _SHARED_LOCK:
        sessions = list(_SHARED_SESSIONS.values())
        _SHARED_SESSIONS.clear()
    for session in sessions:
        try:
            session.close()
        except Exception as exc:  # noqa: BLE001 - best-effort teardown
            _count_teardown_error("close_shared_sessions", exc)


def _close_sessions_at_exit() -> None:
    """Interpreter-exit safety net: no session may leak agent processes.

    Shared sessions drain and close as usual; explicitly opened sessions the
    user forgot to close are torn down *without* draining — at exit there is
    nobody left to consume results, only processes to reap.
    """
    close_shared_sessions()
    for session in list(_ACTIVE_SESSIONS):
        try:
            session.close(drain=False)
        except Exception as exc:  # noqa: BLE001 - best-effort teardown
            _count_teardown_error("_close_sessions_at_exit", exc)


atexit.register(_close_sessions_at_exit)


def _agent_error(party: str, exc, tb: str) -> BaseException:
    if isinstance(exc, BaseException):
        exc.__cause__ = AgentFailure(f"raised in agent {party!r}:\n{tb}")
        return exc
    return AgentFailure(f"agent {party!r} failed:\n{tb}")
