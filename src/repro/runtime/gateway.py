"""The query gateway: admission control and backpressure in front of a session.

Every submission to a :class:`~repro.runtime.service.QuerySession` passes
through one :class:`QueryGateway`:

* **Admission control** — a query is *dispatched* while in-flight capacity
  lasts, *queued* while the queue-depth limit allows, and *shed* with an
  explicit :class:`QueryRejected` beyond that.  Rejection is immediate
  and stateless: the query never reached the agents and the session is
  untouched.
* **One FIFO queue** — queued queries dispatch in submission order as
  in-flight slots free up.
* **Metrics** — every transition is recorded in a
  :class:`~repro.runtime.metrics.GatewayMetrics`: submitted / admitted /
  rejected / completed / failed counters, in-flight and queue-depth gauges,
  and queue-wait vs execute vs end-to-end latency histograms.

The gateway is deliberately independent of the socket machinery: it fronts
any ``dispatch`` callable returning a :class:`~concurrent.futures.Future`
(the session passes a closure around :meth:`AgentPool.submit`), which keeps
admission unit-testable without processes or sockets.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.runtime.metrics import GatewayMetrics


class QueryRejected(RuntimeError):
    """The gateway shed a query: an admission limit was exceeded.

    The query was never dispatched (the agents never saw it) and the
    session remains fully usable — shedding is the backpressure signal for
    saturating clients, whose backoff policy is their own.
    """

    def __init__(self, message: str, *, queued: int, in_flight: int):
        super().__init__(message)
        self.queued = queued
        self.in_flight = in_flight


class GatewayClosed(RuntimeError):
    """The gateway is closed; used internally before mapping to the
    session's ``SessionClosed``."""


@dataclass
class _Job:
    """One admitted query travelling through the gateway."""

    dispatch: object  # zero-argument callable -> Future resolving to payloads
    future: Future = field(default_factory=Future)
    admitted_at: float = field(default_factory=time.monotonic)
    dispatched_at: float = 0.0


class QueryGateway:
    """Admission control + FIFO dispatch in front of a session.

    ``dispatch`` closures are invoked outside the gateway lock (they do real
    socket writes); the queue and the in-flight count are guarded by one
    small lock.  The pump loop is iterative, so a cascade of dispatch
    failures (e.g. a broken pool draining a deep queue) cannot overflow the
    stack.

    ``max_in_flight`` queries run at once (the session's ``max_workers``)
    and at most ``max_queue_depth`` wait (``None``: no limit); the session
    checks both before it builds the gateway.
    """

    def __init__(
        self,
        max_in_flight: int,
        max_queue_depth: int | None = None,
        *,
        metrics: GatewayMetrics | None = None,
        closed_error=GatewayClosed,
        completion_counters=None,
    ):
        self._max_in_flight = max_in_flight
        self._max_queue_depth = max_queue_depth
        self.metrics = metrics if metrics is not None else GatewayMetrics()
        self._closed_error = closed_error
        #: Optional callable mapping a successful dispatch result to extra
        #: counter increments (e.g. ``rows_processed``/``mpc_rounds``); the
        #: session installs one that reads the per-party payloads.
        self._completion_counters = completion_counters
        self._lock = threading.Lock()
        self._queue: deque[_Job] = deque()
        self._in_flight = 0
        self._closed: BaseException | None = None

    # -- introspection ----------------------------------------------------------------

    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def queued(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- admission --------------------------------------------------------------------

    def submit(self, dispatch) -> Future:
        """Admit one query: dispatch now, queue, or shed with ``QueryRejected``.

        Returns the gateway-level future resolving to whatever the dispatch
        future resolves to.  A dispatch that raises synchronously (e.g. an
        unserializable frame) re-raises here for immediately dispatched
        queries and fails the future for queued ones.
        """
        job = _Job(dispatch=dispatch)
        with self._lock:
            if self._closed is not None:
                raise self._closed_error(f"gateway is closed: {self._closed}")
            self.metrics.inc("queries_submitted")
            if not self._queue and self._in_flight < self._max_in_flight:
                self._mark_dispatched()
                dispatch_now = True
            else:
                limit = self._max_queue_depth
                if limit is not None and len(self._queue) >= limit:
                    self.metrics.inc("queries_rejected")
                    raise QueryRejected(
                        f"query shed: gateway queue is full ({len(self._queue)}/{limit}); "
                        "retry later or raise the session's max_queue_depth",
                        queued=len(self._queue),
                        in_flight=self._in_flight,
                    )
                self._queue.append(job)
                self.metrics.inc("queries_queued")
                self.metrics.set_gauge("queue_depth", len(self._queue))
                dispatch_now = False
        if dispatch_now:
            error = self._dispatch(job)
            if error is not None:
                self._pump()
                raise error
        return job.future

    # -- dispatch ---------------------------------------------------------------------

    def _mark_dispatched(self) -> None:
        """Caller holds the lock."""
        self._in_flight += 1
        self.metrics.set_gauge("in_flight", self._in_flight)

    def _release(self) -> None:
        with self._lock:
            self._in_flight -= 1
            self.metrics.set_gauge("in_flight", self._in_flight)

    def _pump(self) -> None:
        """Dispatch queued work while slots last (iterative, lock-chunked)."""
        while True:
            with self._lock:
                if (
                    self._closed is not None
                    or not self._queue
                    or self._in_flight >= self._max_in_flight
                ):
                    return
                job = self._queue.popleft()
                self._mark_dispatched()
                self.metrics.set_gauge("queue_depth", len(self._queue))
            error = self._dispatch(job)
            if error is not None:
                job.future.set_exception(error)

    def _dispatch(self, job: _Job) -> BaseException | None:
        """Invoke the dispatch closure (outside the lock); wire completion.

        Returns the synchronous dispatch error, if any, with the slot
        already released — the caller decides whether to re-raise (inline
        submissions) or fail the job future (queued submissions).
        """
        job.dispatched_at = time.monotonic()
        self.metrics.observe("queue_wait_seconds", job.dispatched_at - job.admitted_at)
        try:
            inner: Future = job.dispatch()
        except BaseException as exc:  # noqa: BLE001 - dispatch failure sheds one query
            self._release()
            self.metrics.inc("queries_failed")
            return exc
        self.metrics.inc("queries_admitted")
        inner.add_done_callback(lambda finished: self._on_done(job, finished))
        return None

    def _on_done(self, job: _Job, finished: Future) -> None:
        now = time.monotonic()
        self._release()
        self.metrics.observe("execute_seconds", now - job.dispatched_at)
        self.metrics.observe("query_seconds", now - job.admitted_at)
        error = finished.exception()
        if error is not None:
            self.metrics.inc("queries_failed")
            if not job.future.done():
                job.future.set_exception(error)
        else:
            counters = {"queries_completed": 1}
            if self._completion_counters is not None:
                try:
                    counters.update(self._completion_counters(finished.result()))
                except Exception:  # noqa: BLE001 - counters must never fail a query
                    pass
            self.metrics.inc_many(counters)
            if not job.future.done():
                job.future.set_result(finished.result())
        self._pump()

    # -- lifecycle --------------------------------------------------------------------

    def close(self, reason: BaseException | None = None) -> None:
        """Stop admitting and dispatching; fail every queued query.

        Already-dispatched queries are untouched (their futures resolve via
        the pool as usual) — ``close`` only empties the waiting room.
        """
        with self._lock:
            if self._closed is not None:
                return
            self._closed = reason or self._closed_error("gateway closed")
            jobs = list(self._queue)
            self._queue.clear()
            self.metrics.set_gauge("queue_depth", 0)
            failure = self._closed
        for job in jobs:
            if not job.future.done():
                job.future.set_exception(
                    self._closed_error(f"query was still queued when the session closed: {failure}")
                )
