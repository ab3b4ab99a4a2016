"""Per-party agent supervision: crash detection, restart, mesh rejoin.

The service runtime keeps one OS process per data-owning party alive across
a stream of queries.  Without supervision, any of those processes dying —
OOM kill, segfault in a native backend, an injected chaos fault — breaks the
whole session: every in-flight query fails terminally and the surviving
agents are torn down.  This module turns that into a *recoverable* event.

One :class:`AgentSupervisor` serves one :class:`~repro.runtime.pool
.AgentPool`.  It owns two daemon threads:

* the **restart worker** consumes a queue of dead parties and restarts them
  strictly one at a time (two parties dying together recover sequentially —
  mesh rejoin choreography assumes one replacement in flight).  Each attempt
  runs the full recovery protocol below; a failed attempt burns a slot of
  the party's *restart budget* (:class:`~repro.core.config.RestartPolicy`:
  at most ``max_restarts`` deaths per ``window_seconds``, exponential
  backoff between attempts) and re-queues the party.  An exhausted budget
  escalates to a **permanent failure**: the pool breaks with a structured
  :class:`~repro.runtime.pool.AgentFailure` carrying the attempt history.
* the **heartbeat thread** (optional, ``heartbeat_interval_seconds``) pings
  every live control link; an agent that misses ``heartbeat_misses``
  consecutive pongs is declared wedged and its process killed — which funnels
  into the same control-link-EOF crash path as a real death.  Agents answer
  pings without counting them as activity, so heartbeats never defeat the
  session's idle timeout.  Enforcement is suspended while a recovery is in
  progress (survivors legitimately stall while parked in the rejoin accept).

The recovery protocol for a dead ``party`` (all on the restart worker) is
the pool's session-start bring-up, run for one party at a monotonically
increasing ``epoch`` (0 is the session start):

1. spawn a fresh agent process at the epoch and accept its control link
   through :func:`~repro.runtime.mesh.join_mesh`'s one accept, which
   expects its hello at this epoch, with the session nonce and (under a
   :class:`~repro.core.config.TransportSecurity`) its certificate's CN;
2. send it the session frame every agent starts from (its standing inputs,
   fault sub-plan and the pool's released-id watermark, so its mesh drops
   late frames of finished queries), and receive its mesh port;
3. send every survivor a ``rejoin`` frame, on which it accepts the
   replacement's link through the same accept — stale connections of
   failed attempts are drained by the epoch check, and an impostor cannot
   claim the crashed party's identity during the rejoin window;
4. send the replacement the *live* peer ports to dial, await its
   ``ready`` and every survivor's ``rejoined`` acknowledgement, then
   install the new process, control link and receiver thread, record
   ``agent_restarts`` / ``recovery_seconds``, and mark the pool healthy —
   unblocking the query retries waiting in
   :meth:`~repro.runtime.pool.AgentPool.wait_recovered`.

The supervisor never touches query state: failing and retrying in-flight
queries is the session layer's job (:class:`~repro.core.config.RetryPolicy`).
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.core.config import RestartPolicy


class AgentSupervisor:
    """Watches one pool's agent processes; restarts the ones that die."""

    def __init__(self, pool, policy: RestartPolicy, metrics=None):
        self._pool = pool
        self.policy = policy.validate()
        self._metrics = metrics
        self._lock = threading.Lock()
        self._dead: deque[tuple[str, BaseException]] = deque()
        self._wake = threading.Condition(self._lock)
        self._stopped = False
        #: Per-party death timestamps inside the budget window, and the
        #: structured attempt history carried by a permanent failure.
        self._death_times: dict[str, list[float]] = {}
        self._attempts: dict[str, list[dict]] = {}
        self._epoch = 0
        #: Parties whose restart is queued or in progress (dedup guard).
        self._recovering: set[str] = set()
        self._restart_in_progress = False
        #: (peer, epoch) -> ack payload from the survivor's "rejoined" frame.
        self._rejoined: dict[tuple[str, int], dict] = {}
        #: Heartbeat bookkeeping: pings sent minus pongs seen, per party.
        self._hb_outstanding: dict[str, int] = {}
        self._hb_seq = 0

        self._worker = threading.Thread(
            target=self._restart_loop, daemon=True, name="agent-supervisor"
        )
        self._worker.start()
        self._heartbeat_thread = None
        if self.policy.heartbeat_interval_seconds is not None:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop, daemon=True, name="agent-heartbeat"
            )
            self._heartbeat_thread.start()

    # -- events from the pool ----------------------------------------------------------

    def notify_death(self, party: str, exc: BaseException) -> None:
        """A control link died; queue the party for restart (idempotent)."""
        with self._wake:
            if self._stopped or party in self._recovering:
                return
            self._recovering.add(party)
            self._dead.append((party, exc))
            self._wake.notify_all()

    def note_pong(self, party: str, seq) -> None:
        with self._lock:
            self._hb_outstanding[party] = 0

    def note_rejoined(self, party: str, info: dict) -> None:
        """A survivor acknowledged (or failed) a rejoin accept."""
        with self._wake:
            self._rejoined[(party, info.get("epoch", -1))] = info
            self._wake.notify_all()

    def stop(self) -> None:
        with self._wake:
            self._stopped = True
            self._wake.notify_all()

    # -- restart worker ----------------------------------------------------------------

    def _restart_loop(self) -> None:
        while True:
            with self._wake:
                while not self._dead and not self._stopped:
                    self._wake.wait(timeout=1.0)
                if self._stopped:
                    return
                party, cause = self._dead.popleft()
                self._restart_in_progress = True
                self._epoch += 1
                epoch = self._epoch
            try:
                self._recover_party(party, cause, epoch)
            finally:
                with self._wake:
                    self._restart_in_progress = False

    def _recover_party(self, party: str, cause: BaseException, epoch: int) -> None:
        policy = self.policy
        now = time.monotonic()
        times = self._death_times.setdefault(party, [])
        times.append(now)
        # Slide the budget window.
        times[:] = [t for t in times if now - t <= policy.window_seconds]
        attempt_no = len(self._attempts.setdefault(party, [])) + 1
        record = {
            "party": party,
            "attempt": attempt_no,
            "epoch": epoch,
            "cause": repr(cause),
        }
        if len(times) > policy.max_restarts:
            record["outcome"] = "budget-exhausted"
            self._attempts[party].append(record)
            self._escalate(party, cause)
            return

        backoff = min(
            policy.backoff_seconds * policy.backoff_multiplier ** (len(times) - 1),
            policy.max_backoff_seconds,
        )
        if backoff > 0:
            time.sleep(backoff)
        started = time.monotonic()
        try:
            self._pool.restart_party(party, epoch, self)
        except BaseException as exc:  # noqa: BLE001 - a failed attempt is re-queued
            record["outcome"] = f"failed: {exc}"
            record["error"] = repr(exc)
            self._attempts[party].append(record)
            if self._metrics is not None:
                self._metrics.inc("agent_restart_failures")
            with self._wake:
                if self._stopped:
                    return
                # Re-queue: the *next* attempt re-evaluates the budget, so a
                # party whose restarts keep failing escalates via the same
                # window arithmetic as one that keeps crashing.
                self._dead.append((party, exc))
            return
        record["outcome"] = "restarted"
        record["recovery_seconds"] = time.monotonic() - started
        self._attempts[party].append(record)
        if self._metrics is not None:
            self._metrics.inc("agent_restarts")
            self._metrics.observe("recovery_seconds", record["recovery_seconds"])
        with self._lock:
            self._recovering.discard(party)
            self._hb_outstanding[party] = 0

    def _escalate(self, party: str, cause: BaseException) -> None:
        history = [dict(r) for records in self._attempts.values() for r in records]
        self.stop()
        self._pool.fail_permanently(party, history, cause)

    def await_rejoined(self, peers: list[str], epoch: int, timeout: float) -> None:
        """Block until every survivor acked this epoch's rejoin (or fail)."""
        deadline = time.monotonic() + timeout
        with self._wake:
            while True:
                missing = [p for p in peers if (p, epoch) not in self._rejoined]
                failed = [
                    (p, self._rejoined[(p, epoch)])
                    for p in peers
                    if (p, epoch) in self._rejoined and not self._rejoined[(p, epoch)].get("ok")
                ]
                if failed:
                    peer, info = failed[0]
                    raise RuntimeError(
                        f"survivor {peer!r} failed to accept the rejoin (epoch {epoch}): "
                        f"{info.get('error', 'unknown error')}"
                    )
                if not missing:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._stopped:
                    raise TimeoutError(
                        f"survivors {missing} never acknowledged the rejoin (epoch {epoch})"
                    )
                self._wake.wait(timeout=min(remaining, 1.0))

    # -- heartbeats --------------------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        interval = self.policy.heartbeat_interval_seconds
        while True:
            with self._wake:
                if self._stopped:
                    return
                suspended = self._restart_in_progress or bool(self._recovering)
            if suspended:
                # Survivors may be parked in a rejoin accept; silence is
                # expected, so neither ping nor judge until recovery settles.
                with self._lock:
                    for party in list(self._hb_outstanding):
                        self._hb_outstanding[party] = 0
            else:
                with self._lock:
                    self._hb_seq += 1
                    seq = self._hb_seq
                stale = []
                for party in self._pool.live_parties():
                    # Count the ping *before* sending it: the pong can land
                    # (and zero the counter) before send_ping even returns,
                    # and a count written afterwards would overwrite that
                    # reset — a healthy agent then looks one miss staler
                    # every tick until it is killed.
                    with self._lock:
                        outstanding = self._hb_outstanding.get(party, 0)
                        if outstanding < self.policy.heartbeat_misses:
                            self._hb_outstanding[party] = outstanding + 1
                    if outstanding >= self.policy.heartbeat_misses:
                        stale.append(party)
                    else:
                        self._pool.send_ping(party, seq)
                for party in stale:
                    with self._lock:
                        self._hb_outstanding[party] = 0
                    # A wedged agent: kill the process so the control link
                    # EOFs and the ordinary crash path takes over.
                    self._pool.kill_party(party, reason="missed heartbeats")
            with self._wake:
                if self._stopped:
                    return
                self._wake.wait(timeout=interval)

    # -- introspection ------------------------------------------------------------------

    def attempt_history(self, party: str | None = None) -> list[dict]:
        """Copies of the per-attempt records (all parties by default)."""
        with self._lock:
            if party is not None:
                return [dict(r) for r in self._attempts.get(party, [])]
            return [dict(r) for records in self._attempts.values() for r in records]
