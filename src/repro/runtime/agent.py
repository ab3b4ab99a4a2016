"""The per-party agent process of the distributed runtime.

One agent embodies one data-owning party (§4.1).  Since the query-service
rework the agent is **long-lived**: it dials the coordinator and joins the
agent-to-agent TCP mesh once, both through the one handshake
(:func:`~repro.runtime.mesh.join_mesh`, dialling and accepting the peers its
``peers`` frame names), and then serves a *stream* of queries over its
control link — the paper's standing data-owning parties answering many
analyst queries, with process spawn and mesh setup amortised across the
stream.  After a crash the supervisor retires every agent and starts new
ones exactly the same way, at the restart epoch: there are no survivors,
and an agent's mesh never changes while it lives.

Per query, the agent executes its cleartext operators with its own backend,
ships relations that the plan moves across party boundaries, and
participates in every MPC operator — the joint secret-sharing protocol is
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
  counting as activity (heartbeats must not defeat the idle timeout).
  A ``faults`` entry in the bundle arms a
  :class:`~repro.runtime.faults.FaultInjector` (deterministic kills at
  query intake, frame faults at mesh sends) for the chaos tests.
* **Loud failure** — a query that raises reports ``("error", qid, ...)`` to
  the coordinator and (via the executor's abort broadcast) poisons the
  peers' inboxes of that query, so every in-flight participant fails fast
  instead of hanging on a dead exchange.

``agent_main`` is the process entry point of the agents
:class:`~repro.runtime.pool.AgentPool` forks.  An agent holds its own
party's standing inputs from the fork (copy-on-write, never copied through
its control link) and zeroes what another party's inputs left on the pages
it inherited before it does anything else.
"""

from __future__ import annotations

import ctypes
import queue
import socket
import threading
import time
import traceback

from repro.runtime.mesh import PeerMesh, bind_listener, join_mesh
from repro.runtime.wire import close_quietly, recv_frame, send_frame

#: Default upper bound on queries one agent executes concurrently.  The
#: session frame may override it per session (``max_workers`` on
#: :func:`repro.runtime.service.open_session`); this constant is only the
#: fallback for sessions that do not say.
AGENT_MAX_WORKERS = 8

#: Free space glibc keeps at the top of an agent's heap (``M_TOP_PAD``).  A
#: warm agent allocates ≈ 43–63 MB of share vectors per query and frees them
#: at its end; by default glibc trims the heap top back to the kernel on those
#: frees and faults it in again on the next query — ≈ 3 300–4 800 minor faults
#: and 6–9 ms of ``sys`` per agent per warm ``hhi_mpc_only`` query (3 × 30k
#: rows).  With the pad, every trim leaves this much slack, and a request the
#: top can hold is carved from pages already faulted in: 8 MiB still left
#: 1 500–3 800 faults per query, 16 MiB leaves ≈ 5.
AGENT_HEAP_PAD_BYTES = 16 << 20
#: Requests from this size up bypass the heap for a fresh ``mmap``
#: (``M_MMAP_THRESHOLD``); this is glibc's maximum.  Setting the pad (or any
#: threshold) freezes glibc's dynamic mmap threshold at 128 KiB, and a share
#: vector that then misses the top of its arena is mapped, faulted in and
#: unmapped on every query.  A query runs on a worker thread, whose arena may
#: be one the agent inherited from the coordinator by ``fork``; such an arena
#: was created without the pad, and arenas other than the main one only get
#: it when created, not when they grow.  Agents forked from a process with
#: many thread arenas took 7 000–12 000 faults per query with the pad alone.
#: With this threshold every share vector lives in an arena heap, whose
#: trims keep the pad.  Raising the thresholds without the pad measured worse
#: (2.5× the faults, p50 61–69 ms against 46 ms): every trim returns the top.
AGENT_MMAP_THRESHOLD_BYTES = 32 << 20
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3  # glibc <malloc.h>


def retain_heap_top() -> None:
    """Set the agent's heap retention once, before it serves anything.

    glibc only: on a C library without a working ``mallopt`` (macOS, musl)
    it does nothing.  These are constants, not options, and only agent
    processes call this — the coordinator is the analyst's own process and
    keeps its allocator settings as they are.  The pool does trim the
    coordinator's heap once before each bring-up forks (``malloc_trim``),
    which is an action, not a setting: it returns the pages the
    coordinator already freed, so the agents do not inherit them, and
    changes nothing about how the coordinator allocates afterwards.  Every
    thread's glibc arena keeps its own padded top, which is why ``_serve``
    keeps a sequential query stream on one worker thread.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, AGENT_MMAP_THRESHOLD_BYTES)
        mallopt(_M_TOP_PAD, AGENT_HEAP_PAD_BYTES)


def process_counters() -> dict[str, int]:
    """This process's cumulative ``getrusage`` counts: minor page faults and
    user / system CPU milliseconds (counts and timings only, never data)."""
    import resource  # POSIX-only, like the agent itself; ``import repro`` stays portable

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "minor_faults": usage.ru_minflt,
        "user_ms": round(usage.ru_utime * 1e3),
        "sys_ms": round(usage.ru_stime * 1e3),
    }


class PartyAgent:
    """Serves one party's side of many compiled plans inside its process."""

    def __init__(
        self,
        party: str,
        parties: list[str],
        mesh: PeerMesh,
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
        seed: int,
        inputs: dict | None = None,
    ) -> dict:
        """Execute one cached plan, with the configuration it was compiled
        with, and return a wire-encodable result payload.

        A fresh :class:`~repro.runtime.executor.PlanExecutor` (fresh
        backends, meters and leakage report) runs every query, exactly as a
        cold per-query process would — warm sessions amortise spawn and mesh
        setup, never engine state, so results stay byte-identical.
        """
        # Imported here (not at module top): a freshly forked agent pays
        # the import cost once, after the fork settled.
        from repro.runtime.executor import PlanExecutor

        compiled = self.plan_for(fingerprint)
        channel = self.mesh.channel(query_id)
        executor = PlanExecutor(
            self.parties,
            {self.party: self.session_inputs if inputs is None else inputs},
            seed=seed,
            local_parties={self.party},
            mesh=channel,
        )
        try:
            outcome = executor.execute(compiled)
        finally:
            channel.close()
        return {
            "outputs": outcome.outputs,
            # Counts, never seconds (flat, as the codec carries arrays).
            "tally": {engine: counts.ravel() for engine, counts in outcome.tally.items()},
            "leakage": outcome.leakage,
            "mpc_profile": outcome.mpc_profile,
            # Debug hook for the cryptographic-isolation tests: which
            # parties' share slices and cleartext inputs this agent process
            # materialised while running the query, and a fingerprint of the
            # key of each mesh link it expands private inputs from.
            "isolation": {
                **executor.isolation_audit(), "link_keys": self.mesh.key_fingerprints(),
            },
            # Cumulative per-peer mesh traffic and process counters at query
            # completion — the metrics layer's per-party view.  Sizes, counts
            # and timings only, never payloads.
            "wire_traffic": self.mesh.traffic(),
            "proc": process_counters(),
        }


def coordinator_name(security) -> str:
    """The coordinator's party name on its links: its certificate's CN."""
    return "coordinator" if security is None else security.coordinator_name


def agent_main(
    party: str,
    host: str,
    port: int,
    timeout: float = 60.0,
    security=None,
    *,
    nonce: str,
    epoch: int = 0,
    inputs: dict | None = None,
    foreign_bytes: tuple = (),
) -> None:
    """Process entry point: handshake, mesh setup, then serve queries.

    ``host``/``port`` locate the coordinator's control listener; the agent
    binds its own mesh listener on ``host`` too and advertises it to peers
    (loopback by default; a routable address for multi-machine
    deployments).  The agent dials the coordinator as it dials a peer
    (:func:`~repro.runtime.mesh.join_mesh`), with the session ``nonce`` and
    its ``epoch`` — 0 at session start, the restart epoch after a crash —
    that the spawning pool handed it.  The mesh's join hellos agree one
    pairwise key per peer link, from which the share engine expands the
    slices of private inputs.  With ``security`` (a
    :class:`~repro.core.config.TransportSecurity`) the control link and
    every mesh link speak mutually-authenticated TLS: this agent presents
    the ``party`` certificate and requires the coordinator's certificate to
    carry its configured name.

    ``inputs`` are the party's standing input relations, inherited from
    the pool by ``fork`` and computed on in place.  ``foreign_bytes`` lists
    the ``(address, length)`` of the other parties' input bytes that share
    a page with memory the agent inherited; they are zeroed before anything
    else runs.
    """
    for address, length in foreign_bytes:
        ctypes.memset(address, 0, length)
    retain_heap_top()
    # No control link yet: a failed dial can only end the process, whose
    # exit the coordinator's accept watches for.
    coordinator = coordinator_name(security)
    control = join_mesh(
        party, {coordinator: (host, port)}, {}, None, epoch,
        nonce=nonce, timeout=timeout, security=security,
    )[0][coordinator]
    mesh: PeerMesh | None = None
    listener = None
    try:
        tag, bundle = recv_frame(control)
        if tag != "session":
            raise RuntimeError(f"agent {party!r} expected a session frame, got {tag!r}")
        parties = bundle["parties"]
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
        # picks a free one), advertise it, and let the coordinator say
        # which advertised endpoints to dial and which peers to accept.
        listener = bind_listener(timeout, host)
        send_frame(control, ("ports", (host, listener.getsockname()[1])))
        tag, peers = recv_frame(control)
        if tag != "peers":
            raise RuntimeError(f"agent {party!r} expected a peers frame, got {tag!r}")
        links, keys = join_mesh(party, peers["dial"], peers["accept"], listener, epoch,
                                nonce=nonce, timeout=timeout, security=security)
        close_quietly(listener)  # the mesh is complete: nobody dials again
        mesh = PeerMesh(
            party, links, timeout=timeout, injector=injector,
            released_watermark=bundle["released_watermark"], link_keys=keys,
        )

        agent = PartyAgent(party, parties, mesh, session_inputs=inputs)
        send_frame(control, ("ready", None))
        _serve(agent, control, timeout, idle_timeout, max_workers, injector=injector)
    except BaseException as exc:  # noqa: BLE001 - everything must reach the coordinator
        try:
            send_frame(control, ("fatal", exc, traceback.format_exc()))
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
) -> None:
    """The agent's query-serving loop (runs until shutdown/idle/EOF)."""
    send_lock = threading.Lock()
    in_flight: set[int] = set()
    state_lock = threading.Lock()
    last_activity = time.monotonic()
    jobs: queue.SimpleQueue = queue.SimpleQueue()
    workers: list[threading.Thread] = []

    def work() -> None:
        while (job := jobs.get()) is not None:
            run_one(*job)

    def drain() -> None:
        """Finish every submitted query, then stop the workers."""
        for _ in workers:
            jobs.put(None)
        for thread in workers:
            thread.join()
        workers.clear()

    def reply(frame: tuple) -> None:
        with send_lock:
            send_frame(control, frame)

    def run_one(query_id: int, fingerprint: str, seed: int, inputs) -> None:
        nonlocal last_activity
        try:
            payload = agent.run_query(query_id, fingerprint, seed, inputs)
            frame = ("result", query_id, payload)
        except BaseException as exc:  # noqa: BLE001 - ship the error to the driver
            frame = ("error", query_id, exc, traceback.format_exc())
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
                reply(("error", query_id, exc, traceback.format_exc()))
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
                drain()
                reply(("closing", "shutdown"))
                return
            if tag != "query":
                raise RuntimeError(f"agent {agent.party!r} received unknown frame {tag!r}")
            job = frame[1]
            if injector is not None:
                injector.on_query_intake(job["query_id"])
            if job.get("compiled") is not None:
                agent.register_plan(job["fingerprint"], job["compiled"])
            with state_lock:
                in_flight.add(job["query_id"])
                # A worker starts only when every worker is busy (``run_one``
                # leaves ``in_flight`` before it replies), so a stream of
                # sequential queries keeps to one thread: one glibc arena,
                # whose padded heap top the next query reuses.
                spawn = len(in_flight) > len(workers) and len(workers) < max_workers
            if spawn:
                workers.append(threading.Thread(
                    target=work, daemon=True,
                    name=f"agent-query-{agent.party}-{len(workers)}",
                ))
                workers[-1].start()
            jobs.put((job["query_id"], job["fingerprint"], job["seed"], job.get("inputs")))
    finally:
        drain()
