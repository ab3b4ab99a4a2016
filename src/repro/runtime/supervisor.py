"""Per-party agent supervision: crash detection and restart.

The service runtime keeps one OS process per data-owning party alive across
a stream of queries.  Without supervision, any of those processes dying —
OOM kill, segfault in a native backend, an injected chaos fault — breaks the
whole session: every in-flight query fails terminally and the surviving
agents are torn down.  This module turns that into a *recoverable* event.

Queries are pure functions of (plan, inputs, seed), so an agent keeps
nothing a fresh bring-up would not restore: a restart is a session start.
One :class:`AgentSupervisor` serves one :class:`~repro.runtime.pool
.AgentPool`.  It owns two daemon threads:

* the **restart worker** waits for a death, backs off, and then brings the
  whole mesh up again at the next ``epoch`` (0 is the session start) with
  :meth:`~repro.runtime.pool.AgentPool.restart`: every current agent is
  retired, then every party is spawned, accepted through
  :func:`~repro.runtime.mesh.join_mesh`'s one accept at the new epoch (with
  the session nonce and, under a :class:`~repro.core.config
  .TransportSecurity`, its certificate's CN), sent its session frame and
  joined into a fresh mesh — the pool's one bring-up.  Every death reported
  before a restart starts is recovered by that one restart, yet each dead
  party keeps its own *restart budget* (:class:`~repro.core.config
  .RestartPolicy`: at most ``max_restarts`` deaths per ``window_seconds``,
  exponential backoff between attempts) and its own attempt record.  A
  failed restart burns a slot of every dead party's budget and is tried
  again; an exhausted budget escalates to a **permanent failure**: the pool
  breaks with a structured :class:`~repro.runtime.pool.AgentFailure`
  carrying the attempt history.  A restart records ``agent_restarts`` and
  ``recovery_seconds`` per dead party and marks the pool healthy,
  unblocking the query retries waiting in
  :meth:`~repro.runtime.pool.AgentPool.wait_recovered`.
* the **heartbeat thread** (optional, ``heartbeat_interval_seconds``) pings
  every live control link; an agent that misses ``heartbeat_misses``
  consecutive pongs is declared wedged and its process killed — which funnels
  into the same control-link-EOF crash path as a real death.  Agents answer
  pings without counting them as activity, so heartbeats never defeat the
  session's idle timeout.  Enforcement is suspended while a restart is
  pending or under way (the agents being replaced answer nothing).

The supervisor never touches query state: failing and replaying in-flight
queries (up to ``RestartPolicy.max_attempts`` tries) is the session's job.
"""

from __future__ import annotations

import threading
import time

from repro.core.config import RestartPolicy


class AgentSupervisor:
    """Watches one pool's agent processes; restarts the ones that die."""

    def __init__(self, pool, policy: RestartPolicy, metrics=None):
        self._pool = pool
        self.policy = policy
        self._metrics = metrics
        self._lock = threading.Lock()
        #: Dead parties awaiting the next restart -> the cause of death.
        self._dead: dict[str, BaseException] = {}
        self._wake = threading.Condition(self._lock)
        self._stopped = False
        #: Per-party death timestamps inside the budget window (charged when
        #: the death is queued), and the structured attempt history carried
        #: by a permanent failure.
        self._death_times: dict[str, list[float]] = {}
        self._attempts: dict[str, list[dict]] = {}
        self._epoch = 0
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
        """A control link died; queue the party for the next restart.  The
        pool reports each party once per restart."""
        with self._wake:
            if not self._stopped:
                self._queue(party, exc)

    def _queue(self, party: str, cause: BaseException) -> None:
        """Queue ``party`` and charge its budget (under the lock)."""
        now = time.monotonic()
        times = self._death_times.setdefault(party, [])
        times.append(now)
        # Slide the budget window.
        times[:] = [t for t in times if now - t <= self.policy.window_seconds]
        self._dead[party] = cause
        self._wake.notify_all()

    def note_pong(self, party: str, seq) -> None:
        with self._lock:
            self._hb_outstanding[party] = 0

    def stop(self) -> None:
        with self._wake:
            self._stopped = True
            self._wake.notify_all()

    # -- restart worker ----------------------------------------------------------------

    def _restart_loop(self) -> None:
        while True:
            policy = self.policy
            with self._wake:
                while not self._dead and not self._stopped:
                    self._wake.wait(timeout=1.0)
                if self._stopped:
                    return
                deaths = max(len(self._death_times[p]) for p in self._dead)
            if deaths <= policy.max_restarts:
                # Deaths reported while backing off join this restart.
                time.sleep(min(
                    policy.backoff_seconds * 2 ** (deaths - 1), policy.max_backoff_seconds,
                ))
            with self._wake:
                if self._stopped:
                    return
                dead, self._dead = self._dead, {}
                self._epoch += 1
                epoch = self._epoch
            self._restart(dead, epoch)

    def _restart(self, dead: dict[str, BaseException], epoch: int) -> None:
        """One restart of the whole mesh, recovering every party of ``dead``."""
        records = {
            party: {
                "party": party,
                "attempt": len(self._attempts.setdefault(party, [])) + 1,
                "epoch": epoch,
                "cause": repr(cause),
            }
            for party, cause in dead.items()
        }
        for party in dead:
            if len(self._death_times[party]) > self.policy.max_restarts:
                records[party]["outcome"] = "budget-exhausted"
                self._attempts[party].append(records[party])
                self._escalate(party, dead[party])
                return
        started = time.monotonic()
        try:
            self._pool.restart(epoch)
        except BaseException as exc:  # noqa: BLE001 - a failed attempt is re-queued
            for party, record in records.items():
                record["outcome"] = f"failed: {exc}"
                record["error"] = repr(exc)
                self._attempts[party].append(record)
                if self._metrics is not None:
                    self._metrics.inc("agent_restart_failures")
            with self._wake:
                if self._stopped:
                    return
                # Re-queue: the *next* attempt re-evaluates the budgets, so a
                # party whose restarts keep failing escalates via the same
                # window arithmetic as one that keeps crashing.
                for party in dead:
                    self._queue(party, exc)
            return
        seconds = time.monotonic() - started
        for record in records.values():
            record["outcome"] = "restarted"
            record["recovery_seconds"] = seconds
            self._attempts[record["party"]].append(record)
            if self._metrics is not None:
                self._metrics.inc("agent_restarts")
                self._metrics.observe("recovery_seconds", seconds)
        with self._lock:
            self._hb_outstanding.clear()

    def _escalate(self, party: str, cause: BaseException) -> None:
        history = [dict(r) for records in self._attempts.values() for r in records]
        self.stop()
        self._pool.fail_permanently(party, history, cause)

    # -- heartbeats --------------------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        interval = self.policy.heartbeat_interval_seconds
        while True:
            parties = self._pool.live_parties()
            with self._lock:
                if not parties:
                    # A restart is pending or under way: the agents being
                    # replaced answer nothing, so none is pinged or judged.
                    self._hb_outstanding.clear()
                self._hb_seq += 1
                seq = self._hb_seq
            stale = []
            for party in parties:
                # Count the ping *before* sending it: the pong can land (and
                # zero the counter) before send_ping even returns, and a count
                # written afterwards would overwrite that reset — a healthy
                # agent then looks one miss staler every tick until it is
                # killed.
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
                # A wedged agent: kill the process so the control link EOFs
                # and the ordinary crash path takes over.
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
