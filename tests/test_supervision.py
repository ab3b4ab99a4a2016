"""Supervision & recovery tests: crash detection, restart, retry.

Everything here runs against *real* agent processes under deterministic
fault injection (:mod:`repro.runtime.faults`): seeded kills at exact query
indices, mesh frames dropped / duplicated / delayed / torn at exact frame
counts.  The properties asserted:

* a killed agent brings the whole mesh up again — every agent restarted
  and re-armed with the standing inputs, as at session start — and the
  interrupted query is retried — with
  **byte-identical** results (outputs including row order, plus the MPC
  work/traffic profile) to a fault-free run;
* an agent that keeps dying exhausts its restart budget and the session
  breaks with a *structured* :class:`AgentFailure` carrying the attempt
  history — it never hangs;
* duplicated frames are invisible (per-link sequence numbers), delayed
  frames only cost latency, dropped frames surface as retryable timeouts,
  torn frames look like the process death they are;
* a wedged (SIGSTOPped) agent is detected by heartbeats and recycled;
* interpreter exit never leaks agent processes (the atexit hook);
* the 50-plan differential corpus replayed through a session under a
  seeded fault plan stays byte-identical to the simulated runtime.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro as cc
from repro.core.config import CompilationConfig, RestartPolicy
from repro.core.dispatch import QueryRunner
from repro.runtime.faults import FaultInjector, FaultPlan, KillFault, LinkFault
from repro.runtime.service import AgentCrashed, AgentFailure
from repro.runtime.supervisor import AgentSupervisor

from test_query_service import PARTY_A, PARTY_B, two_party_query, wait_until


def supervised_session(inputs, *, seed=9, timeout=30.0, faults=None, **overrides):
    """An open session with a fast supervision policy for tests."""
    restart = overrides.pop(
        "restart",
        RestartPolicy(
            backoff_seconds=0.05,
            max_backoff_seconds=0.5,
            heartbeat_interval_seconds=None,
        ),
    )
    return cc.open_session(
        inputs,
        seed=seed,
        timeout=timeout,
        restart=restart,
        faults=faults,
        **overrides,
    )


def frames_sent(stats, party):
    """Mesh frames ``party``'s process wrote so far, over all its links."""
    return sum(peer["frames_sent"] for peer in stats["wire"][party].values())


@pytest.fixture(scope="module")
def frames_per_query():
    """``{party: (frames of query 1, frames of query 2)}``: the mesh frames each
    party sends for :func:`two_party_query`, read off a fault-free session's
    own wire counters.  Every frame ordinal of the fault tests below is
    derived from it, so a change of the message schedule moves the fault
    with the schedule instead of past its end — where a fault test silently
    turns into a no-fault test."""
    ctx, inputs = two_party_query()
    sent = []
    with supervised_session(inputs) as session:
        for _ in range(2):
            session.submit(ctx, timeout=60)
            stats = session.stats
            sent.append({party: frames_sent(stats, party) for party in stats["wire"]})
    frames = {party: (sent[0][party], sent[1][party] - sent[0][party]) for party in sent[0]}
    # Three frames a query leave one before and one after the middle frame
    # the fault tests aim at.
    assert all(first >= second >= 3 for first, second in frames.values()), frames
    return frames


def mid_query(frames, party, query=1):
    """The ordinal (1-based, per process) of a frame ``party`` sends in the
    middle of its ``query``-th query (1 or 2)."""
    first, second = frames[party]
    return first // 2 + 1 if query == 1 else first + second // 2 + 1


class TestPolicyValidation:
    def test_restart_policy_rejects_bad_values(self):
        for bad in (
            RestartPolicy(max_restarts=0),
            RestartPolicy(window_seconds=-1),
            RestartPolicy(backoff_seconds=-0.1),
            RestartPolicy(heartbeat_interval_seconds=0),
            RestartPolicy(heartbeat_misses=0),
            RestartPolicy(max_attempts=0),
        ):
            with pytest.raises(ValueError):
                bad.validate()
        RestartPolicy().validate()
        RestartPolicy(heartbeat_interval_seconds=None).validate()
        RestartPolicy(max_attempts=1).validate()

    def test_fault_plan_rejects_bad_values(self):
        for bad in (
            FaultPlan(kills=(KillFault(PARTY_A, at_query=0),)),
            FaultPlan(kills=(KillFault(PARTY_A, at_query=1, after_mesh_frames=-1),)),
            FaultPlan(links=(LinkFault(PARTY_A, "explode", 1),)),
            FaultPlan(links=(LinkFault(PARTY_A, "drop", 0),)),
            FaultPlan(links=(LinkFault(PARTY_A, "delay", 1),)),
        ):
            with pytest.raises(ValueError):
                bad.validate()
        FaultPlan(
            kills=(KillFault(PARTY_A, at_query=2, after_mesh_frames=3),),
            links=(LinkFault(PARTY_B, "delay", 0, delay_seconds=0.1),),
        ).validate()

    def test_seeded_plans_are_reproducible(self):
        a = FaultPlan.seeded(42, [PARTY_A, PARTY_B], queries=20, kills=2, link_faults=3)
        b = FaultPlan.seeded(42, [PARTY_A, PARTY_B], queries=20, kills=2, link_faults=3)
        assert a == b and bool(a)
        assert a.for_party("nobody.example") is None
        sub = a.for_party(a.kills[0].party)
        assert sub is not None and all(k.party == a.kills[0].party for k in sub.kills)

    def test_injector_counts_per_process(self):
        plan = FaultPlan(links=(LinkFault(PARTY_A, "dup", 2),))
        injector = FaultInjector(plan, PARTY_A)
        assert injector.on_mesh_send(PARTY_B, 1) is None
        fault = injector.on_mesh_send(PARTY_B, 1)
        assert fault is not None and fault.action == "dup"
        assert injector.on_mesh_send(PARTY_B, 1) is None


class TestCrashRecovery:
    def test_seeded_kill_mid_stream_is_byte_identical(self, frames_per_query):
        """The acceptance scenario: a seeded kill fault takes one agent down
        in the middle of query 2's MPC exchange; the stream completes
        byte-identically with >= 1 restart and >= 1 retry in the stats."""
        ctx, inputs = two_party_query()
        reference = cc.run_query(ctx, inputs, seed=9)
        midway = frames_per_query[PARTY_B][1] // 2
        faults = FaultPlan(kills=(KillFault(PARTY_B, at_query=2, after_mesh_frames=midway),))
        with supervised_session(inputs, faults=faults) as session:
            results = [session.submit(ctx, timeout=60) for _ in range(3)]
            for result in results:
                assert result.outputs["out"] == reference.outputs["out"]
                assert result.mpc_profile == reference.mpc_profile
            stats = session.stats
        assert stats["restarts"] >= 1
        assert stats["retries"] >= 1
        assert stats["retries_exhausted"] == 0

    def test_a_restart_policy_alone_replays_an_interrupted_query(self):
        """Replay is part of supervision: a session given nothing but a
        ``RestartPolicy`` replays the query a kill interrupted and returns
        the fault-free result."""
        ctx, inputs = two_party_query()
        reference = cc.run_query(ctx, inputs, seed=9)
        faults = FaultPlan(kills=(KillFault(PARTY_B, at_query=2),))
        restart = RestartPolicy(backoff_seconds=0.05, heartbeat_interval_seconds=None)
        with cc.open_session(inputs, seed=9, restart=restart, faults=faults) as session:
            for _ in range(2):
                result = session.submit(ctx, timeout=60)
                assert result.outputs["out"] == reference.outputs["out"]
                assert result.mpc_profile == reference.mpc_profile
            # The restart is counted just after the pool reports healthy.
            assert wait_until(lambda: session.stats["restarts"] == 1)
            assert session.stats["retries"] == 1

    def test_one_attempt_surfaces_the_crash(self):
        """``max_attempts=1`` replays nothing: the interrupted query fails
        with the retryable marker, and the restarted session serves on."""
        ctx, inputs = two_party_query()
        faults = FaultPlan(kills=(KillFault(PARTY_B, at_query=2),))
        restart = RestartPolicy(
            backoff_seconds=0.05, heartbeat_interval_seconds=None, max_attempts=1
        )
        with cc.open_session(inputs, seed=9, restart=restart, faults=faults) as session:
            session.submit(ctx, timeout=60)
            with pytest.raises(AgentCrashed):
                session.submit(ctx, timeout=60)
            assert session._pool.wait_recovered(60)
            assert session.submit(ctx, timeout=60).outputs["out"] is not None
            assert wait_until(lambda: session.stats["restarts"] == 1)
            assert session.stats["retries"] == 0

    def test_real_process_kill_recovers(self):
        """A genuine SIGKILL (no injection) between queries: the supervisor
        restarts the agent and later queries keep working byte-identically."""
        ctx, inputs = two_party_query()
        reference = cc.run_query(ctx, inputs, seed=9)
        with supervised_session(inputs) as session:
            first = session.submit(ctx, timeout=60)
            assert first.outputs["out"] == reference.outputs["out"]
            session._pool._processes[PARTY_B].kill()
            second = session.submit(ctx, timeout=60)
            assert second.outputs["out"] == reference.outputs["out"]
            assert second.mpc_profile == reference.mpc_profile
            assert wait_until(lambda: session.stats["restarts"] >= 1)

    def test_a_restart_brings_every_agent_up_again(self):
        """Killing one agent restarts the whole mesh: the other party's agent
        is retired and brought up again too, so every PID changes, and the
        stream stays byte-identical."""
        ctx, inputs = two_party_query()
        reference = cc.run_query(ctx, inputs, seed=9)
        with supervised_session(inputs) as session:
            session.submit(ctx, timeout=60)
            before = {p: proc.pid for p, proc in session._pool._processes.items()}
            session._pool._processes[PARTY_B].kill()
            assert wait_until(lambda: session.stats["restarts"] >= 1)
            result = session.submit(ctx, timeout=60)
            after = {p: proc.pid for p, proc in session._pool._processes.items()}
            stats = session.stats
        assert set(after) == set(before) == {PARTY_A, PARTY_B}
        assert all(after[p] != before[p] for p in before), (before, after)
        assert result.outputs["out"] == reference.outputs["out"]
        assert result.mpc_profile == reference.mpc_profile
        assert stats["restarts"] == 1

    def test_a_close_during_a_restart_leaves_no_agent(self):
        """The session closes while a restart brings its agents up: the new
        agents are reaped instead of installed into the closed pool."""
        ctx, inputs = two_party_query()
        session = supervised_session(inputs)
        pool = session._pool
        bring_up, new_agents = pool._bring_up, []

        def bring_up_then_close(epoch):
            started = bring_up(epoch)
            new_agents.extend(proc for proc, _link in started.values())
            pool.close(drain=False)
            return started

        pool._bring_up = bring_up_then_close
        session.submit(ctx, timeout=60)
        pool._processes[PARTY_B].kill()
        assert wait_until(lambda: new_agents and not any(p.is_alive() for p in new_agents))
        session.close()
        # The restart worker records the failed attempt after it has reaped
        # the new agents; close() does not wait for that worker.
        assert wait_until(lambda: pool._supervisor.attempt_history(PARTY_B))
        history = pool._supervisor.attempt_history(PARTY_B)
        assert [r["outcome"] for r in history] == ["failed: session is closed"], history

    def test_recovery_metrics_are_exposed(self, frames_per_query):
        ctx, inputs = two_party_query()
        midway = frames_per_query[PARTY_A][1] // 2
        faults = FaultPlan(kills=(KillFault(PARTY_A, at_query=2, after_mesh_frames=midway),))
        with supervised_session(inputs, faults=faults) as session:
            session.submit(ctx, timeout=60)
            session.submit(ctx, timeout=60)
            stats = session.stats
            assert stats["restarts"] >= 1
            assert "recovery_seconds" in stats["latency"]
            assert stats["latency"]["recovery_seconds"]["count"] >= 1
            assert stats["latency"]["recovery_seconds"]["p50"] > 0
            snapshot = session.metrics.snapshot()
        assert snapshot["counters"]["agent_restarts"] >= 1
        assert snapshot["latency"]["recovery_seconds"]["count"] >= 1

    def test_restarted_agent_reships_cached_plans(self):
        """Plan-cache coherence across a restart: the replacement has an
        empty cache, so previously shipped fingerprints must be re-shipped
        (not referenced), and the stream stays byte-identical."""
        ctx, inputs = two_party_query()
        other, _ = two_party_query(agg_extra=True)
        reference = cc.run_query(ctx, inputs, seed=9)
        with supervised_session(inputs) as session:
            session.submit(ctx, timeout=60)
            session.submit(other, timeout=60)
            session._pool._processes[PARTY_A].kill()
            assert wait_until(lambda: session.stats["restarts"] >= 1)
            again = session.submit(ctx, timeout=60)
            assert again.outputs["out"] == reference.outputs["out"]
            stats = session.stats
        assert stats["plan_cache_hits"] + stats["plan_cache_misses"] == stats["queries"]


class TestFaultMatrix:
    """One targeted test per link-fault action, each against a fault-free
    reference run of the same query."""

    def _run(self, faults, *, queries=2, timeout=30.0):
        ctx, inputs = two_party_query()
        reference = cc.run_query(ctx, inputs, seed=9)
        with supervised_session(inputs, faults=faults, timeout=timeout) as session:
            for _ in range(queries):
                result = session.submit(ctx, timeout=60)
                assert result.outputs["out"] == reference.outputs["out"]
                assert result.mpc_profile == reference.mpc_profile
            return session.stats

    def test_duplicated_frame_is_suppressed(self, frames_per_query):
        nth = mid_query(frames_per_query, PARTY_A)
        stats = self._run(FaultPlan(links=(LinkFault(PARTY_A, "dup", nth),)))
        assert stats["retries"] == 0 and stats["restarts"] == 0
        # The duplicate did cross the link: one frame more than the clean run.
        assert frames_sent(stats, PARTY_A) == sum(frames_per_query[PARTY_A]) + 1

    def test_delayed_frame_only_costs_latency(self, frames_per_query):
        nth = mid_query(frames_per_query, PARTY_B)
        stats = self._run(
            FaultPlan(links=(LinkFault(PARTY_B, "delay", nth, delay_seconds=0.3),))
        )
        assert stats["retries"] == 0 and stats["restarts"] == 0

    def test_slow_link_every_frame(self):
        stats = self._run(
            FaultPlan(links=(LinkFault(PARTY_A, "delay", 0, delay_seconds=0.01),)),
            queries=1,
        )
        assert stats["retries"] == 0 and stats["restarts"] == 0

    def test_dropped_frame_times_out_and_retries(self, frames_per_query):
        nth = mid_query(frames_per_query, PARTY_A)
        stats = self._run(
            FaultPlan(links=(LinkFault(PARTY_A, "drop", nth),)), timeout=6.0,
        )
        assert stats["retries"] >= 1
        assert stats["retries_exhausted"] == 0

    def test_torn_frame_is_a_process_death(self, frames_per_query):
        # The frame tears in the middle of query 2, and the replacement's
        # replay of that query (fresh per-process counter) finishes below
        # the trigger instead of dying again.
        nth = mid_query(frames_per_query, PARTY_B, query=2)
        assert frames_per_query[PARTY_B][1] < nth
        stats = self._run(FaultPlan(links=(LinkFault(PARTY_B, "torn", nth),)))
        assert stats["restarts"] >= 1
        assert stats["retries"] >= 1


class TestBudgetExhaustion:
    def test_permanent_failure_is_structured_and_never_hangs(self):
        """``KillFault(at_query=1)`` kills every replacement at its first
        query intake, so the restart budget drains; the session must break
        with an AgentFailure carrying the attempt history — within a bounded
        time, never a hang."""
        ctx, inputs = two_party_query()
        faults = FaultPlan(kills=(KillFault(PARTY_B, at_query=1),))
        restart = RestartPolicy(
            max_restarts=2,
            window_seconds=60.0,
            backoff_seconds=0.05,
            max_backoff_seconds=0.2,
            heartbeat_interval_seconds=None,
            max_attempts=6,
        )
        started = time.monotonic()
        with supervised_session(
            inputs, faults=faults, restart=restart, timeout=20.0
        ) as session:
            with pytest.raises(AgentFailure) as info:
                session.submit(ctx, timeout=60)
            assert time.monotonic() - started < 60
            failure = info.value
            assert not isinstance(failure, AgentCrashed)
            history = getattr(failure, "attempts", ())
            assert history, "permanent failure must carry the attempt history"
            assert any(r.get("outcome") == "budget-exhausted" for r in history) or any(
                "attempt" in r for r in history
            )
            # The pool is broken for good: later submissions fail fast with
            # the same structured error instead of waiting out a timeout.
            before = time.monotonic()
            with pytest.raises((AgentFailure, RuntimeError)):
                session.submit(ctx, timeout=60)
            assert time.monotonic() - before < 5

    def test_attempt_history_has_restarts_then_exhaustion(self):
        ctx, inputs = two_party_query()
        faults = FaultPlan(kills=(KillFault(PARTY_A, at_query=1),))
        restart = RestartPolicy(
            max_restarts=1,
            backoff_seconds=0.05,
            max_backoff_seconds=0.2,
            heartbeat_interval_seconds=None,
            max_attempts=4,
        )
        with supervised_session(
            inputs, faults=faults, restart=restart, timeout=20.0,
        ) as session:
            with pytest.raises(AgentFailure) as info:
                session.submit(ctx, timeout=60)
            history = list(getattr(info.value, "attempts", ()))
            assert len(history) >= 2
            outcomes = [r.get("outcome", r.get("error", "")) for r in history]
            assert any(o == "restarted" for o in outcomes)


class _HeartbeatPool:
    """The pool surface the supervisor's heartbeat loop drives, for one
    party: ``send_ping`` delivers the pong before it returns (``answers``)
    or never, and the loop stops after ``ticks`` pings or at the first kill."""

    def __init__(self, *, answers: bool, ticks: int):
        self.answers = answers
        self.ticks = ticks
        self.supervisor = None
        self.pings = 0
        self.kills = []

    def live_parties(self):
        return [PARTY_A]

    def send_ping(self, party, seq):
        self.pings += 1
        if self.answers:
            self.supervisor.note_pong(party, seq)
        if self.pings >= self.ticks:
            self.supervisor.stop()
        return True

    def kill_party(self, party, reason=""):
        self.kills.append((party, reason, self.pings))
        self.supervisor.stop()


def _run_heartbeats(pool: _HeartbeatPool, misses: int) -> None:
    """Run the supervisor's heartbeat loop on this thread until ``pool``
    stops it: every tick, and every pong, happens in a fixed order."""
    supervisor = AgentSupervisor(pool, RestartPolicy(heartbeat_interval_seconds=None))
    pool.supervisor = supervisor
    supervisor.policy = RestartPolicy(
        heartbeat_interval_seconds=0.0001, heartbeat_misses=misses
    ).validate()
    supervisor._heartbeat_loop()


class TestHeartbeat:
    def test_wedged_agent_is_detected_and_recycled(self):
        """SIGSTOP an agent: it answers nothing, heartbeats pile up, the
        supervisor kills and restarts it, and the session keeps serving."""
        ctx, inputs = two_party_query()
        reference = cc.run_query(ctx, inputs, seed=9)
        restart = RestartPolicy(
            backoff_seconds=0.05,
            max_backoff_seconds=0.2,
            heartbeat_interval_seconds=0.2,
            heartbeat_misses=3,
        )
        with supervised_session(inputs, restart=restart) as session:
            first = session.submit(ctx, timeout=60)
            assert first.outputs["out"] == reference.outputs["out"]
            os.kill(session._pool._processes[PARTY_B].pid, signal.SIGSTOP)
            assert wait_until(lambda: session.stats["restarts"] >= 1, timeout=20.0)
            second = session.submit(ctx, timeout=60)
            assert second.outputs["out"] == reference.outputs["out"]
            assert second.mpc_profile == reference.mpc_profile
            # The restart record names the heartbeat's verdict, not just the
            # control-link EOF the kill produced.
            causes = [r["cause"] for r in session._pool._supervisor.attempt_history(PARTY_B)]
            assert causes and "missed heartbeats" in causes[0], causes


    def test_healthy_agents_survive_many_heartbeat_rounds(self):
        """A supervised session whose agents answer every ping serves a
        query with no restart.  (The race between a pong and the ping
        bookkeeping is pinned deterministically by the two tests below.)"""
        ctx, inputs = two_party_query()
        restart = RestartPolicy(heartbeat_interval_seconds=0.2, heartbeat_misses=3)
        with supervised_session(inputs, restart=restart) as session:
            time.sleep(1.0)  # ~5 heartbeat rounds
            assert session.stats["restarts"] == 0
            assert session.submit(ctx, timeout=60).outputs["out"] is not None

    def test_a_pong_before_the_ping_returns_is_never_a_miss(self):
        """Pongs race the ping bookkeeping: a pong can land (and reset the
        party's count) before ``send_ping`` even returns.  An agent whose
        pong always wins that race must never accumulate misses — it used
        to, one per tick, until the supervisor killed it."""
        pool = _HeartbeatPool(answers=True, ticks=200)
        _run_heartbeats(pool, misses=2)
        assert pool.pings >= 200
        assert pool.kills == []

    def test_a_silent_agent_is_killed_after_its_misses(self):
        pool = _HeartbeatPool(answers=False, ticks=200)
        _run_heartbeats(pool, misses=3)
        # Three unanswered pings, then the next tick kills instead of pinging.
        assert pool.kills == [(PARTY_A, "missed heartbeats", 3)]

    def test_submit_during_back_to_back_restarts_is_retried(self):
        """Both agents die together and one restart recovers both; a query
        submitted while the pool is still restarting them fails at dispatch
        (nothing was shipped) and must go through the same retry loop as a
        mid-flight crash instead of surfacing ``AgentCrashed``."""
        ctx, inputs = two_party_query()
        reference = cc.run_query(ctx, inputs, seed=9)
        restart = RestartPolicy(
            backoff_seconds=0.2, max_backoff_seconds=0.5, heartbeat_interval_seconds=None
        )
        with supervised_session(inputs, restart=restart) as session:
            assert session.submit(ctx, timeout=60).outputs["out"] == reference.outputs["out"]
            for proc in list(session._pool._processes.values()):
                os.kill(proc.pid, signal.SIGKILL)
            assert wait_until(lambda: len(session._pool.live_parties()) < 2, timeout=10.0)
            result = session.submit(ctx, timeout=60)
            assert result.outputs["out"] == reference.outputs["out"]
            assert result.mpc_profile == reference.mpc_profile
            stats = session.stats
        assert stats["restarts"] == 2
        assert stats["retries"] >= 1
        assert stats["retries_exhausted"] == 0


class TestAtexitCleanup:
    def test_interpreter_exit_leaks_no_agents(self):
        """A script that opens a session, submits, and exits WITHOUT closing
        must still terminate promptly and cleanly: the atexit hook closes
        every active session (and with it every agent process)."""
        script = """
import sys
import repro as cc
from test_query_service import two_party_query

ctx, inputs = two_party_query()
session = cc.open_session(inputs, seed=9)
result = session.submit(ctx)
pids = [p.pid for p in session._pool._processes.values()]
print("PIDS", " ".join(str(p) for p in pids))
print("OK", len(result.outputs["out"].rows()))
# no session.close(), no context manager: atexit must clean up
"""
        env = dict(os.environ)
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(repo, "src"), os.path.join(repo, "tests")]
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        lines = dict(
            line.split(" ", 1) for line in proc.stdout.splitlines() if " " in line
        )
        assert "OK" in lines
        for pid in (int(p) for p in lines["PIDS"].split()):
            # The agent processes died with the interpreter.
            assert not _pid_alive(pid), f"agent pid {pid} leaked past interpreter exit"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # Still a live entry: it may be a zombie being reaped; give it a moment.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        time.sleep(0.1)
    return True


class TestChaosDifferential:
    def test_fifty_plan_corpus_survives_a_seeded_fault_plan(self):
        """The full differential corpus (test_differential's 50 seeded random
        plans) replayed through ONE supervised session under a seeded fault
        plan: two kills plus dup/delay link noise.  Every recovered query
        must be byte-identical (outputs including row order, plus the MPC
        profile) to the simulated runtime — i.e. to a fault-free run."""
        from test_differential import NUM_PLANS, SEED, build_query, generate_spec
        from test_differential import PARTY_A as DIFF_A, PARTY_B as DIFF_B

        config = CompilationConfig()
        faults = FaultPlan.seeded(
            SEED,
            [DIFF_A, DIFF_B],
            queries=NUM_PLANS,
            kills=2,
            link_faults=3,
            actions=("dup", "delay"),
            delay_seconds=0.05,
        )
        assert faults.kills, "the seeded plan must schedule at least one kill"
        restart = RestartPolicy(
            backoff_seconds=0.05, max_backoff_seconds=0.5, heartbeat_interval_seconds=None,
            max_attempts=4,
        )
        with cc.QuerySession(
            [DIFF_A, DIFF_B], config=config, seed=3,
            restart=restart, faults=faults, timeout=60.0,
        ) as session:
            for plan in range(NUM_PLANS):
                spec = generate_spec(SEED + plan)
                ctx, inputs = build_query(spec)
                compiled = cc.compile_query(ctx, config)
                simulated = QueryRunner([DIFF_A, DIFF_B], inputs, config, seed=3).run(compiled)
                chaotic = session.submit(compiled, inputs=inputs, timeout=120)
                assert chaotic.outputs["out"] == simulated.outputs["out"], (
                    f"plan {plan} (seed {spec['seed']}): result under faults is not "
                    f"byte-identical to the fault-free simulated runtime"
                )
                assert chaotic.mpc_profile == simulated.mpc_profile, (
                    f"plan {plan} (seed {spec['seed']}): MPC work/traffic profile "
                    f"changed under faults"
                )
            stats = session.stats
        assert stats["restarts"] >= 1, "the seeded kills never fired"
        assert stats["retries"] >= 1
        assert stats["retries_exhausted"] == 0
