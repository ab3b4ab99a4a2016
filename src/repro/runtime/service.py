"""The persistent query service: the session is the one driver of the agents.

The paper's deployment model is *standing* data-owning parties answering a
stream of analyst queries.  :class:`QuerySession` is the analyst-facing
handle on such a standing mesh, and the only thing that brings one up: it
opens an :class:`~repro.runtime.pool.AgentPool` (one long-lived
:class:`~repro.runtime.agent.PartyAgent` process per party, mesh handshake
brokered once) behind a :class:`~repro.runtime.gateway.QueryGateway`, then
serves ``submit(plan)`` many times (thread-safe, concurrently) with
per-session compiled-plan caching keyed by plan fingerprint (each distinct
plan is encoded and shipped once) and a graceful lifecycle (context manager,
drain-on-close, optional idle timeout after which the agents retire
themselves).

:func:`open_session` is the convenience opener (parties default to the input
owners).  Single-query execution (``runtime="sockets"``) is the degenerate
case, :class:`SocketCoordinator`: open a session, submit once, close — so
both paths share one protocol and one set of tests.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import threading
import time
from concurrent.futures import Future

from repro.core.config import (
    CompilationConfig,
    GatewayConfig,
    RestartPolicy,
    RetryPolicy,
    TransportSecurity,
)
from repro.runtime.agent import AGENT_MAX_WORKERS
from repro.runtime.gateway import DEFAULT_ANALYST, QueryGateway, QueryRejected
from repro.runtime.metrics import GatewayMetrics, MetricsServer
from repro.runtime.pool import (
    AgentCrashed,
    AgentFailure,
    AgentPool,
    SessionClosed,
    _count_teardown_error,
    active_agent_processes,  # noqa: F401 - the process-hygiene pair of active_sessions
)
from repro.runtime.transport import TransportError
from repro.runtime.wire import encode_payload

#: Open sessions, for leak-hunting test fixtures and atexit cleanup.
_ACTIVE_SESSIONS: "set[QuerySession]" = set()


def active_sessions() -> list:
    """Sessions opened anywhere in the process that are still open."""
    return [s for s in list(_ACTIVE_SESSIONS) if not s.closed]


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


#: One copy of each equal immutable value object (output schemas, leakage
#: events): every result of a repeated query would otherwise carry its own,
#: and a client that retains results — and each agent later forked from it —
#: carries them all.
_shared = functools.lru_cache(maxsize=1024)(lambda value: value)


def merge_payloads(compiled, parties: list[str], payloads: dict[str, dict]):
    """Merge per-agent result payloads into one QueryResult.

    Per-node durations max-merge (local nodes are reported by their
    executing agent, joint nodes identically by every agent) and each output
    comes from the first recipient that materialised it.  The leakage report
    needs no merging: every agent writes the same one, so the lead's is the
    query's.
    """
    from repro.core.dispatch import QueryResult
    from repro.hybrid.stp import LeakageReport
    from repro.model.prices import completion_seconds

    lead = parties[0]

    durations: dict[int, float] = {}
    for payload in payloads.values():
        for node_id, seconds in payload["node_durations"].items():
            durations[node_id] = max(durations.get(node_id, 0.0), seconds)

    outputs: dict[str, object] = {}
    for node in compiled.dag.outputs():
        name = node.out_rel.name
        for party in node.recipients:
            payload = payloads.get(party)
            if payload is not None and name in payload["outputs"]:
                outputs[name] = table = payload["outputs"][name]
                table.schema = _shared(table.schema)
                break

    leakage = LeakageReport(list(map(_shared, payloads[lead]["leakage"].events)))

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
        wall_seconds=0.0,  # stamped, like ``runtime``, by PendingResult.result
        leakage=leakage,
        backend_seconds=backend_seconds,
        mpc_profile=payloads[lead]["mpc_profile"],
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
        merged.runtime = "service"
        return merged


class QuerySession:
    """A standing mesh of party agents serving a stream of queries.

    Open once (agents spawn, mesh connects), ``submit`` many times — from
    any thread, concurrently — and close explicitly or via ``with``.  Plans
    are cached per session by DAG fingerprint, so resubmitting the same
    compiled plan ships only its fingerprint.

    ``inputs`` maps party name -> {relation name -> Table} and becomes the
    session's standing data (each ``submit`` may override it per query).
    ``max_workers`` bounds how many queries each agent executes concurrently
    (also the default in-flight cap of the gateway); ``gateway`` sets the
    session's admission control and fair-scheduling limits
    (:class:`~repro.core.config.GatewayConfig` — the default admits without
    queue limits).

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
    loopback (pair it with ``config.bind_host``, the host the control
    listener and the agents' mesh listeners bind and advertise).
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
        # Refused here, before any agent is spawned or any input shipped.
        self.config.require_executable()
        self.seed = seed
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
        if self.closed:  # the pool broke (and may have retired) before the add
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
        # Refused on the submitting side: no plan or input leaves this process.
        config.require_executable()
        compiled = query if isinstance(query, CompiledQuery) else compile_query(query, config)
        compiled.config.require_executable()
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
    **options,
) -> QuerySession:
    """Open a :class:`QuerySession` over one agent process per input owner.

    ``parties`` defaults to ``sorted(inputs)``; every other option goes to
    :class:`QuerySession` unchanged.  Close the session explicitly or use it
    as a context manager::

        with cc.open_session(inputs) as session:
            for plan in plans:
                result = session.submit(plan)
    """
    if parties is None:
        if not inputs:
            raise ValueError("open_session needs inputs or an explicit parties list")
        parties = sorted(inputs)
    return QuerySession(parties, inputs, config, seed, **options)


class SocketCoordinator:
    """The one-shot driver: a session that lives for exactly one query (cold
    spawn, one submit, retire); its result is stamped ``runtime="sockets"``."""

    def __init__(
        self, parties: list[str], inputs: dict, config: CompilationConfig | None = None,
        seed: int = 0, *, timeout: float = 60.0, start_method: str | None = None,
        security: TransportSecurity | None = None,
    ):
        self._session_args = (parties, inputs, config, seed)
        self._options = {"timeout": timeout, "start_method": start_method, "security": security}

    def run(self, compiled):
        started = time.perf_counter()
        session = QuerySession(*self._session_args, **self._options)
        try:
            # A wedged agent is an error, not a hang: socket timeout + slack.
            result = session.submit(compiled, timeout=self._options["timeout"] + 10)
        finally:
            session.close()
        result.wall_seconds = time.perf_counter() - started
        result.runtime = "sockets"
        return result


def _close_sessions_at_exit() -> None:
    """Interpreter-exit safety net: no session may leak agent processes.

    Sessions the user forgot to close are torn down *without* draining — at
    exit there is nobody left to consume results, only processes to reap.
    """
    for session in list(_ACTIVE_SESSIONS):
        try:
            session.close(drain=False)
        except Exception as exc:  # noqa: BLE001 - best-effort teardown
            _count_teardown_error("_close_sessions_at_exit", exc)


atexit.register(_close_sessions_at_exit)
