"""The per-party agent process of the distributed runtime.

One agent embodies one data-owning party (§4.1).  Since the query-service
rework the agent is **long-lived**: it joins the agent-to-agent TCP mesh
once and then serves a *stream* of queries over its control link — the
paper's standing data-owning parties answering many analyst queries, with
process spawn and mesh setup amortised across the stream.

Per query, the agent executes its cleartext sub-plans with its own backend,
ships relations that the plan moves across party boundaries, and
participates in every MPC sub-plan — the joint secret-sharing protocol is
executed in lockstep by all agents from the query's seed, with each agent's
share traffic flowing through a per-query :class:`~repro.runtime.mesh
.MeshChannel` of the shared mesh, so frames of concurrent queries
interleave safely on the same sockets.

Lifecycle and robustness:

* **Plan cache** — compiled plans are cached by DAG fingerprint; the
  coordinator ships each distinct plan once per session and later
  submissions reference it by fingerprint only.
* **Concurrency** — each query runs on its own worker thread (bounded
  pool); results/errors are framed back on the control link under a send
  lock, tagged with the query id.
* **Idle timeout** — an agent whose control link has been silent (and that
  has no in-flight query) for the session's ``idle_timeout`` announces
  ``("closing", "idle-timeout")`` and exits.
* **Drain on shutdown** — a ``shutdown`` frame stops intake, waits for
  in-flight queries to finish, then exits cleanly.
* **Supervision** — a ``ping`` frame is answered with ``pong`` *without*
  counting as activity (heartbeats must not defeat the idle timeout); a
  ``rejoin`` frame parks the agent in :func:`~repro.runtime.mesh
  .accept_rejoin` for a restarted peer's epoch-tagged dial and swaps the
  fresh connection into the mesh; a session bundle with ``rejoin=True``
  makes this agent itself the replacement — it dials every survivor via
  :func:`~repro.runtime.mesh.rejoin_mesh` instead of the rank-ordered
  initial handshake.  A ``faults`` entry in the bundle arms a
  :class:`~repro.runtime.faults.FaultInjector` (deterministic kills at
  query intake, frame faults at mesh sends) for the chaos tests.
* **Loud failure** — a query that raises reports ``("error", qid, ...)`` to
  the coordinator and (via the executor's abort broadcast) poisons the
  peers' per-query mesh queues, so every in-flight participant fails fast
  instead of hanging on a dead exchange.

``agent_main`` is the process entry point used by
:class:`~repro.runtime.pool.AgentPool`; it is a plain module-level function
so it works under both the ``fork`` and ``spawn`` multiprocessing start
methods.
"""

from __future__ import annotations

import socket
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

from repro.runtime.mesh import (
    PeerMesh,
    accept_rejoin,
    bind_listener,
    connect_mesh,
    rejoin_mesh,
)
from repro.runtime.wire import (
    close_quietly,
    encode_frame,
    peer_common_name,
    recv_frame,
    secure_client_socket,
    send_frame,
)

#: How long a survivor waits in ``accept`` for a restarted peer's rejoin
#: dial before reporting failure back to the supervisor (which then burns a
#: restart-budget slot and tries again).
REJOIN_ACCEPT_SECONDS = 15.0

#: Default upper bound on queries one agent executes concurrently.  The
#: session frame may override it per session (``max_workers`` on
#: :func:`repro.runtime.service.open_session`); this constant is only the
#: fallback for sessions that do not say.
AGENT_MAX_WORKERS = 8


class PartyAgent:
    """Serves one party's side of many compiled plans inside its process."""

    def __init__(
        self,
        party: str,
        parties: list[str],
        mesh: PeerMesh | None,
        session_inputs: dict | None = None,
    ):
        self.party = party
        self.parties = list(parties)
        self.mesh = mesh
        #: The party's standing input relations, usable by every query of
        #: the session (a query may override them with its own inputs).
        self.session_inputs = dict(session_inputs or {})
        self._plans: dict[str, object] = {}
        self._plans_lock = threading.Lock()

    # -- plan cache --------------------------------------------------------------------

    def register_plan(self, fingerprint: str, compiled) -> None:
        with self._plans_lock:
            self._plans[fingerprint] = compiled

    def plan_for(self, fingerprint: str):
        with self._plans_lock:
            try:
                return self._plans[fingerprint]
            except KeyError:
                raise RuntimeError(
                    f"agent {self.party!r} has no cached plan {fingerprint[:12]}...; "
                    "the coordinator referenced a plan it never shipped"
                ) from None

    # -- query execution ---------------------------------------------------------------

    def run_query(
        self,
        query_id: int,
        fingerprint: str,
        config,
        seed: int,
        inputs: dict | None = None,
    ) -> dict:
        """Execute one cached plan and return a wire-encodable result payload.

        A fresh :class:`~repro.runtime.executor.PlanExecutor` (fresh
        backends, meters and leakage report) runs every query, exactly as a
        cold per-query process would — warm sessions amortise spawn and mesh
        setup, never engine state, so results stay byte-identical.
        """
        # Imported here (not at module top) so a freshly spawned agent
        # process pays the import cost once, after the fork/spawn settled.
        from repro.runtime.executor import PlanExecutor

        compiled = self.plan_for(fingerprint)
        channel = self.mesh.channel(query_id) if self.mesh is not None else None
        executor = PlanExecutor(
            self.parties,
            {self.party: self.session_inputs if inputs is None else inputs},
            config,
            seed=seed,
            local_parties={self.party},
            mesh=channel,
        )
        try:
            outcome = executor.execute(compiled)
        finally:
            if channel is not None:
                channel.close()
        return {
            "outputs": outcome.outputs,
            "node_durations": outcome.node_durations,
            "leakage": outcome.leakage,
            "backend_seconds": outcome.backend_seconds,
            "mpc_profile": outcome.mpc_profile,
            # Debug hook for the cryptographic-isolation tests: which
            # parties' share slices and cleartext inputs this agent process
            # materialised while running the query.
            "isolation": executor.isolation_audit(),
            # Cumulative per-peer mesh traffic at query completion — the
            # metrics layer's bytes-on-wire view.  Shapes and sizes only,
            # never payloads.
            "wire_traffic": self.mesh.traffic() if self.mesh is not None else {},
        }


def agent_main(
    party: str,
    host: str,
    port: int,
    timeout: float = 60.0,
    bind_host: str = "127.0.0.1",
    security=None,
) -> None:
    """Process entry point: handshake, mesh setup, then serve queries.

    ``host``/``port`` locate the coordinator's control listener;
    ``bind_host`` is where this agent binds its own mesh listener and the
    host it advertises to peers (loopback by default; a routable address
    for multi-machine deployments).  With ``security`` (a
    :class:`~repro.core.config.TransportSecurity`) the control link and
    every mesh link speak mutually-authenticated TLS: this agent presents
    the ``party`` certificate, requires the coordinator's certificate to
    carry its configured name, and hellos carry the session nonce from the
    coordinator's session bundle.
    """
    control = socket.create_connection((host, port), timeout=timeout)
    control.settimeout(timeout)
    if security is not None:
        control = secure_client_socket(control, security.client_context(party))
        coordinator_cn = peer_common_name(control)
        if coordinator_cn != security.coordinator_name:
            raise RuntimeError(
                f"agent {party!r} expected the coordinator certificate to name "
                f"{security.coordinator_name!r}, got {coordinator_cn!r}"
            )
    mesh: PeerMesh | None = None
    listener = None
    try:
        send_frame(control, ("hello", party))
        tag, bundle = recv_frame(control)
        if tag != "session":
            raise RuntimeError(f"agent {party!r} expected a session frame, got {tag!r}")
        parties = bundle["parties"]
        run_timeout = bundle.get("timeout", timeout)
        idle_timeout = bundle.get("idle_timeout")
        max_workers = bundle.get("max_workers") or AGENT_MAX_WORKERS
        if not isinstance(max_workers, int) or max_workers < 1:
            raise ValueError(f"agent {party!r} got invalid max_workers {max_workers!r}")
        injector = None
        faults = bundle.get("faults")
        if faults:
            from repro.runtime.faults import FaultInjector

            injector = FaultInjector(faults, party)

        # Deterministic port assignment: bind an ephemeral port (the OS
        # picks a free one) and let the coordinator broadcast the map of
        # advertised (host, port) endpoints.
        listener = bind_listener(run_timeout, bind_host)
        send_frame(control, ("ports", (bind_host, listener.getsockname()[1])))
        tag, ports = recv_frame(control)
        if tag != "peers":
            raise RuntimeError(f"agent {party!r} expected a peers frame, got {tag!r}")
        nonce = bundle["nonce"]
        if bundle.get("rejoin"):
            # Replacement for a crashed agent: the survivors are parked in
            # accept by the supervisor's rejoin broadcast — dial them all.
            mesh = rejoin_mesh(
                party, parties, ports, timeout=run_timeout,
                epoch=bundle["epoch"], injector=injector,
                released_watermark=bundle.get("released_watermark", 0),
                security=security, nonce=nonce,
            )
        else:
            mesh = connect_mesh(
                party, parties, ports, listener, timeout=run_timeout,
                injector=injector, security=security, nonce=nonce,
            )

        agent = PartyAgent(party, parties, mesh, session_inputs=bundle.get("inputs"))
        send_frame(control, ("ready", None))
        _serve(agent, control, run_timeout, idle_timeout, max_workers,
               injector=injector, listener=listener, security=security, nonce=nonce)
    except BaseException as exc:  # noqa: BLE001 - everything must reach the coordinator
        try:
            send_frame(control, ("fatal", _wire_safe(exc), traceback.format_exc()))
        except Exception:
            pass
    finally:
        if mesh is not None:
            mesh.close()
        close_quietly(listener)
        close_quietly(control)


def _serve(
    agent: PartyAgent,
    control: socket.socket,
    timeout: float,
    idle_timeout: float | None,
    max_workers: int = AGENT_MAX_WORKERS,
    *,
    injector=None,
    listener: socket.socket | None = None,
    security=None,
    nonce: str,
) -> None:
    """The agent's query-serving loop (runs until shutdown/idle/EOF)."""
    send_lock = threading.Lock()
    in_flight: set[int] = set()
    state_lock = threading.Lock()
    last_activity = time.monotonic()
    pool = ThreadPoolExecutor(
        max_workers=max_workers, thread_name_prefix=f"agent-query-{agent.party}"
    )

    def reply(frame: tuple) -> None:
        with send_lock:
            send_frame(control, frame)

    def run_one(query_id: int, fingerprint: str, config, seed: int, inputs) -> None:
        nonlocal last_activity
        try:
            payload = agent.run_query(query_id, fingerprint, config, seed, inputs)
            frame = ("result", query_id, payload)
        except BaseException as exc:  # noqa: BLE001 - ship the error to the driver
            frame = ("error", query_id, _wire_safe(exc), traceback.format_exc())
        with state_lock:
            in_flight.discard(query_id)
            last_activity = time.monotonic()
        try:
            reply(frame)
        except Exception as exc:  # noqa: BLE001
            # The frame could not be encoded (e.g. result over the frame
            # cap, an output outside the codec's type set) or sent.  An
            # encode failure leaves the link healthy, so the coordinator
            # would wait forever — ship an error frame in its place; if the
            # link itself is dead, this fails too and the coordinator's EOF
            # handling takes over.
            try:
                reply(("error", query_id, _wire_safe(exc), traceback.format_exc()))
            except Exception:  # noqa: BLE001 - coordinator gone
                pass

    # Between frames the control link may sit idle arbitrarily long (that
    # is the point of a standing service); the socket timeout is only the
    # tick at which the idle policy is evaluated.
    control.settimeout(idle_timeout if idle_timeout is not None else timeout)
    try:
        while True:
            try:
                frame = recv_frame(control, allow_idle_timeout=True)
            except TimeoutError:
                if idle_timeout is None:
                    continue
                with state_lock:
                    idle = not in_flight and time.monotonic() - last_activity >= idle_timeout
                if idle:
                    reply(("closing", "idle-timeout"))
                    return
                continue
            tag = frame[0]
            if tag == "ping":
                # Heartbeats deliberately do NOT touch last_activity: a
                # supervised-but-unused agent must still idle out.
                reply(("pong", frame[1]))
                continue
            with state_lock:
                last_activity = time.monotonic()
            if tag == "shutdown":
                # Drain: finish every in-flight query, then confirm.
                pool.shutdown(wait=True)
                pool = None
                reply(("closing", "shutdown"))
                return
            if tag == "rejoin":
                # A crashed peer's replacement is about to dial us: park in
                # accept until its epoch-tagged hello arrives, then swap the
                # fresh connection into the mesh.  Failure is reported, not
                # fatal — the supervisor retries the whole restart.
                info = frame[1]
                peer, peer_epoch = info["party"], info["epoch"]
                try:
                    if listener is None or agent.mesh is None:
                        raise RuntimeError(
                            f"agent {agent.party!r} cannot accept a rejoin without a mesh"
                        )
                    sock = accept_rejoin(
                        listener, agent.party, peer, peer_epoch,
                        info.get("timeout", REJOIN_ACCEPT_SECONDS),
                        security=security, nonce=nonce,
                    )
                    agent.mesh.replace_peer(peer, sock)
                except Exception as exc:  # noqa: BLE001 - report, do not die
                    reply(("rejoined", {"party": peer, "epoch": peer_epoch,
                                        "ok": False, "error": str(exc)}))
                else:
                    reply(("rejoined", {"party": peer, "epoch": peer_epoch, "ok": True}))
                continue
            if tag != "query":
                raise RuntimeError(f"agent {agent.party!r} received unknown frame {tag!r}")
            job = frame[1]
            if injector is not None:
                injector.on_query_intake(job["query_id"])
            if job.get("compiled") is not None:
                agent.register_plan(job["fingerprint"], job["compiled"])
            with state_lock:
                in_flight.add(job["query_id"])
            pool.submit(
                run_one, job["query_id"], job["fingerprint"], job["config"],
                job["seed"], job.get("inputs"),
            )
    finally:
        if pool is not None:
            pool.shutdown(wait=True)


def _wire_safe(exc: BaseException) -> BaseException:
    """Return ``exc`` if the wire codec can express it, else an equivalent
    RuntimeError."""
    try:
        encode_frame(exc)
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
