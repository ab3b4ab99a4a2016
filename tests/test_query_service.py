"""Tests for the persistent query service (long-lived sessions over one mesh).

Covers the service lifecycle (open once / submit many / close, context
manager, drain-on-close, idle timeout), warm-vs-cold byte-identity for every
paper example query, the per-session compiled-plan cache, concurrent
submission, the concurrency soak (no leaked processes, threads or sockets),
and the crash regression: a party-agent that dies must fail all in-flight
queries with a clean error instead of deadlocking on a dead socket.
"""

import os
import re
import socket
import threading
import time

import numpy as np
import pytest

import repro as cc
from repro.core.config import CompilationConfig
from repro.core.dispatch import QueryRunner, SecurityError
from repro.core.lang import QueryContext
from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table
from repro.runtime.mesh import bind_listener
from repro.runtime.agent import agent_main
from repro.runtime.pool import (
    AgentFailure,
    SessionClosed,
    accept_agents,
    active_agent_processes,
)
from repro.runtime.service import SocketCoordinator, active_sessions, plan_fingerprint
from repro.runtime.wire import WireError, send_frame

from test_runtime_transport import PAPER_QUERIES, paper_query

PARTY_A = "a.example"
PARTY_B = "b.example"


def two_party_query(agg_extra: bool = False):
    """A small two-party MPC aggregate (compiled), with its inputs."""
    pa, pb = cc.Party(PARTY_A), cc.Party(PARTY_B)
    with QueryContext() as ctx:
        t0 = ctx.new_table("t0", [cc.Column("k"), cc.Column("v")], at=pa)
        t1 = ctx.new_table("t1", [cc.Column("k"), cc.Column("v")], at=pb)
        rel = ctx.concat([t0, t1])
        if agg_extra:
            rel = rel.with_column("w", cc.col("v") * 2)
            aggs = {"s": cc.SUM("w"), "n": cc.COUNT()}
        else:
            aggs = {"s": cc.SUM("v")}
        rel.aggregate(group=["k"], aggs=aggs).collect("out", to=[pa])
    schema = Schema([ColumnDef("k"), ColumnDef("v")])
    rng = np.random.default_rng(7 if agg_extra else 5)
    inputs = {
        PARTY_A: {"t0": Table(schema, [rng.integers(0, 6, 30), rng.integers(-40, 40, 30)])},
        PARTY_B: {"t1": Table(schema, [rng.integers(0, 6, 30), rng.integers(-40, 40, 30)])},
    }
    return ctx, inputs


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestSessionLifecycle:
    def test_open_submit_many_close(self):
        ctx, inputs = two_party_query()
        compiled = cc.compile_query(ctx)
        reference = cc.run_query(ctx, inputs, seed=9)
        session = cc.open_session(inputs, seed=9)
        try:
            for _ in range(3):
                result = session.submit(compiled)
                assert result.outputs["out"] == reference.outputs["out"]
                assert result.mpc_profile == reference.mpc_profile
                assert result.runtime == "service"
        finally:
            session.close()
        assert session.closed
        assert active_agent_processes() == []

    def test_context_manager_and_submit_after_close(self):
        ctx, inputs = two_party_query()
        compiled = cc.compile_query(ctx)
        with cc.open_session(inputs) as session:
            result = session.submit(compiled)
            assert "out" in result.outputs
        assert session.closed
        with pytest.raises(SessionClosed):
            session.submit(compiled)

    def test_plan_cache_ships_each_plan_once(self):
        ctx, inputs = two_party_query()
        ctx2, _ = two_party_query(agg_extra=True)
        compiled, compiled2 = cc.compile_query(ctx), cc.compile_query(ctx2)
        assert plan_fingerprint(compiled) != plan_fingerprint(compiled2)
        with cc.open_session(inputs) as session:
            for _ in range(4):
                session.submit(compiled)
            session.submit(compiled2)
            assert session.stats["queries"] == 5
            assert session.stats["plan_cache_misses"] == 2
            assert session.stats["plan_cache_hits"] == 3

    def test_fingerprint_depends_on_the_query_and_the_config_only(self):
        ctx, _ = two_party_query()
        ablated = CompilationConfig(enable_push_down=False)
        fingerprint = plan_fingerprint(cc.compile_query(ctx))
        assert len(fingerprint) == 64
        # The same context recompiled, and the same query built afresh.
        assert plan_fingerprint(cc.compile_query(ctx)) == fingerprint
        assert plan_fingerprint(cc.compile_query(two_party_query()[0])) == fingerprint
        # A different config, and a different DAG.
        assert plan_fingerprint(cc.compile_query(ctx, ablated)) != fingerprint
        assert plan_fingerprint(cc.compile_query(two_party_query(agg_extra=True)[0])) != fingerprint

    def test_recompiled_context_hits_the_plan_cache(self):
        """``submit(ctx)`` compiles per call; equal plans must ship once."""
        ctx, inputs = two_party_query()
        with cc.open_session(inputs) as session:
            first, second = session.submit(ctx), session.submit(ctx)
            assert first.outputs["out"] == second.outputs["out"]
            assert session.stats["plan_cache_misses"] == 1
            assert session.stats["plan_cache_hits"] == 1

    def test_repeated_results_share_their_immutable_parts(self):
        """A client that keeps every result keeps one schema and one copy of
        each leakage event, not one per query."""
        ctx, inputs = two_party_query()
        with cc.open_session(inputs) as session:
            first, second = session.submit(ctx), session.submit(ctx)
        assert first.outputs["out"] == second.outputs["out"]
        assert first.outputs["out"].schema is second.outputs["out"].schema
        assert first.leakage.events and first.leakage.events == second.leakage.events
        assert all(a is b for a, b in zip(first.leakage.events, second.leakage.events))
        assert first.leakage is not second.leakage  # the reports stay per query

    def test_per_query_inputs_override_standing_inputs(self):
        ctx, inputs = two_party_query()
        compiled = cc.compile_query(ctx)
        schema = Schema([ColumnDef("k"), ColumnDef("v")])
        fresh = {
            PARTY_A: {"t0": Table.from_rows(schema, [(1, 10)])},
            PARTY_B: {"t1": Table.from_rows(schema, [(1, 5), (2, 3)])},
        }
        with cc.open_session(inputs) as session:
            standing = session.submit(compiled)
            overridden = session.submit(compiled, inputs=fresh)
            again = session.submit(compiled)
        assert overridden.outputs["out"] == cc.run_query(ctx, fresh).outputs["out"]
        # The override was per-query: the standing inputs were untouched.
        assert standing.outputs["out"] == again.outputs["out"]
        assert standing.outputs["out"] != overridden.outputs["out"]

    def test_partial_inputs_override_keeps_other_parties_standing_inputs(self):
        """Overriding only one party's inputs must not wipe the others'."""
        ctx, inputs = two_party_query()
        compiled = cc.compile_query(ctx)
        schema = Schema([ColumnDef("k"), ColumnDef("v")])
        override_a = {PARTY_A: {"t0": Table.from_rows(schema, [(1, 100), (2, 200)])}}
        mixed_inputs = {**inputs, **override_a}
        with cc.open_session(inputs) as session:
            partial = session.submit(compiled, inputs=override_a)
        assert partial.outputs["out"] == cc.run_query(ctx, mixed_inputs).outputs["out"]

    def test_per_query_seed_and_config(self):
        ctx, inputs = two_party_query()
        mpc_only = CompilationConfig(enable_push_down=False)
        with cc.open_session(inputs, seed=1) as session:
            default = session.submit(ctx, seed=4)
            overridden = session.submit(cc.compile_query(ctx, mpc_only), seed=4)
        assert default.outputs["out"] == cc.run_query(ctx, inputs, seed=4).outputs["out"]
        assert overridden.outputs["out"] == cc.run_query(
            ctx, inputs, mpc_only, seed=4
        ).outputs["out"]
        # The plan's config really reached the agents: without push-down
        # all input rows are shared into MPC, not the per-party partials.
        assert overridden.mpc_profile["input_records"] > default.mpc_profile["input_records"]

    @pytest.mark.parametrize("name", PAPER_QUERIES)
    def test_paper_query_byte_identical_simulated_cold_and_warm(self, name):
        """The acceptance matrix: simulated vs cold sockets vs warm session."""
        ctx, inputs, output = paper_query(name)
        compiled = cc.compile_query(ctx)
        parties = sorted(compiled.dag.parties() | set(inputs))

        simulated = QueryRunner(parties, inputs, compiled.config, seed=13).run(compiled)
        cold = SocketCoordinator(parties, inputs, compiled.config, seed=13).run(compiled)
        with cc.QuerySession(parties, inputs=inputs, config=compiled.config, seed=13) as session:
            warm_first = session.submit(compiled)
            warm_again = session.submit(compiled)

        for result in (cold, warm_first, warm_again):
            assert set(result.outputs) == set(simulated.outputs)
            for rel in simulated.outputs:
                assert result.outputs[rel] == simulated.outputs[rel]
            assert result.mpc_profile == simulated.mpc_profile
        assert output in warm_first.outputs
        assert cold.runtime == "sockets" and warm_first.runtime == "service"

    def test_idle_timeout_retires_agents(self):
        ctx, inputs = two_party_query()
        compiled = cc.compile_query(ctx)
        session = cc.open_session(inputs, idle_timeout=0.4)
        try:
            session.submit(compiled)  # the session serves while active
            assert wait_until(lambda: session.closed, timeout=15), (
                "agents did not retire after the idle timeout"
            )
            assert wait_until(lambda: active_agent_processes() == [], timeout=15)
            with pytest.raises(SessionClosed):
                session.submit(compiled)
            # Retirement releases coordinator-side resources without an
            # explicit close(): control sockets closed, registry dropped.
            assert wait_until(
                lambda: all(s.fileno() == -1 for s in session._pool._connections.values()),
                timeout=15,
            )
            from repro.runtime import service

            assert wait_until(lambda: session not in service._ACTIVE_SESSIONS, timeout=15)
        finally:
            session.close()


class TestCrashPropagation:
    """A dead party-agent must fail queries loudly, never deadlock."""

    def heavy_query(self):
        """An MPC-heavy plan (~seconds): filter kept under MPC by disabling
        push-down, so comparisons run on secret shares.  The batched
        share-vector protocols make per-row cost tiny, so the row count is
        large to keep the query running for a measurable beat."""
        pa, pb = cc.Party(PARTY_A), cc.Party(PARTY_B)
        with QueryContext() as ctx:
            t0 = ctx.new_table("t0", [cc.Column("k"), cc.Column("v")], at=pa)
            t1 = ctx.new_table("t1", [cc.Column("k"), cc.Column("v")], at=pb)
            ctx.concat([t0, t1]).filter(cc.col("v") > 0).aggregate(
                group=["k"], aggs={"s": cc.SUM("v")}
            ).collect("out", to=[pa])
        config = CompilationConfig(enable_push_down=False)
        schema = Schema([ColumnDef("k"), ColumnDef("v")])
        rng = np.random.default_rng(3)
        rows = 400_000
        inputs = {
            p: {t: Table(schema, [rng.integers(0, 9, rows), rng.integers(-50, 50, rows)])}
            for p, t in ((PARTY_A, "t0"), (PARTY_B, "t1"))
        }
        return cc.compile_query(ctx, config), config, inputs

    def test_crash_before_submit_is_a_clean_error(self):
        ctx, inputs = two_party_query()
        compiled = cc.compile_query(ctx)
        session = cc.open_session(inputs)
        try:
            victim = session._pool._processes[PARTY_B]
            victim.kill()
            victim.join(timeout=10)
            with pytest.raises((AgentFailure, SessionClosed)):
                # Regression: PR 2-era code would block on the dead socket.
                session.submit(compiled, timeout=30)
            with pytest.raises(SessionClosed):
                session.submit(compiled, timeout=30)
        finally:
            session.close()
        assert active_agent_processes() == []

    def test_crash_fails_all_in_flight_queries(self):
        compiled, config, inputs = self.heavy_query()
        session = cc.QuerySession([PARTY_A, PARTY_B], inputs=inputs, config=config)
        try:
            handles = [session.submit_async(compiled, seed=i) for i in range(3)]
            assert session.in_flight() > 0
            session._pool._processes[PARTY_A].kill()
            for handle in handles:
                # A deadlock would surface as the timeout's AgentFailure
                # ("no result within ..."); a detected crash raises the
                # "died mid-session" one — assert on the message.
                with pytest.raises(AgentFailure, match="died mid-session"):
                    handle.result(timeout=60)
            assert session.closed
        finally:
            session.close()
        assert active_agent_processes() == []

    def test_result_timeout_raises_instead_of_hanging(self):
        """A bounded wait on a still-running query raises AgentFailure (the
        session stays usable and the query may finish later)."""
        compiled, config, inputs = self.heavy_query()
        with cc.QuerySession([PARTY_A, PARTY_B], inputs=inputs, config=config) as session:
            handle = session.submit_async(compiled)
            with pytest.raises(AgentFailure, match="no result within"):
                handle.result(timeout=0.05)
            # The same handle still resolves once the query completes.
            result = handle.result(timeout=120)
            assert "out" in result.outputs

    def test_unserializable_inputs_fail_only_that_query(self):
        """A submission whose frame cannot be encoded raises at the caller
        with nothing half-shipped; the session keeps serving."""
        ctx, inputs = two_party_query()
        compiled = cc.compile_query(ctx)
        with cc.open_session(inputs) as session:
            with pytest.raises(WireError, match="not expressible in the wire codec"):
                session.submit(compiled, inputs={PARTY_A: {"t0": lambda: None}})
            assert session.in_flight() == 0
            result = session.submit(compiled, timeout=60)
        assert result.outputs["out"] == cc.run_query(ctx, inputs).outputs["out"]

    def test_query_error_does_not_poison_the_session(self):
        """A failing query (tampered plan -> SecurityError at the agents)
        aborts cleanly; the same session then serves the next query."""
        ctx, inputs = two_party_query()
        good = cc.compile_query(ctx)
        ctx2, _ = two_party_query()
        tampered = cc.compile_query(ctx2)
        for node in tampered.dag.topological():
            if node.is_mpc and node.op_name == "aggregate":
                node.is_mpc = False
                node.run_at = PARTY_B
        with cc.open_session(inputs) as session:
            with pytest.raises(SecurityError):
                session.submit(tampered, timeout=60)
            result = session.submit(good, timeout=60)
        assert result.outputs["out"] == cc.run_query(ctx, inputs).outputs["out"]


class TestRefusedSubmissions:
    def test_a_mismatched_input_fails_that_query_only(self):
        """An input that is not the relation the plan declares is refused
        at its agent, naming both column lists; the session keeps serving."""
        ctx, inputs = two_party_query()
        compiled = cc.compile_query(ctx)
        floats = Schema([ColumnDef("k"), ColumnDef("v", ColumnType.FLOAT)])
        bad = Table(floats, inputs[PARTY_B]["t1"].columns())
        with cc.open_session(inputs) as session:
            with pytest.raises(ValueError, match=r"\('v', 'float'\)\], but the plan declares"):
                session.submit(compiled, inputs={PARTY_B: {"t1": bad}}, timeout=60)
            result = session.submit(compiled, timeout=60)
        assert result.outputs["out"] == cc.run_query(ctx, inputs).outputs["out"]

    def test_an_mpc_plan_over_more_agents_than_the_mpc_computes_is_refused(self):
        """Four agents, three compute parties: an MPC plan is refused at
        submission, naming the compute parties, before any agent sees it."""
        parties = [cc.Party(f"{name}.example") for name in "abcd"]
        columns = [cc.Column("k"), cc.Column("v")]
        with QueryContext() as ctx:
            tables = [ctx.new_table(f"t{i}", columns, at=p) for i, p in enumerate(parties[:3])]
            ctx.concat(tables).aggregate(group=["k"], aggs={"s": cc.SUM("v")}).collect(
                "out", to=[parties[3]]
            )
        schema = Schema([ColumnDef("k"), ColumnDef("v")])
        inputs = {
            p.name: {f"t{i}": Table(schema, [np.arange(3), np.arange(3)])}
            for i, p in enumerate(parties[:3])
        }
        names = [p.name for p in parties]
        with cc.QuerySession(names, inputs=inputs) as session:
            with pytest.raises(ValueError, match=re.escape(str(names[:3]))):
                session.submit(cc.compile_query(ctx))
            assert session.stats["queries"] == 0


class TestConcurrencySoak:
    """N concurrent queries on one session; nothing leaks afterwards."""

    ROUNDS = 3
    CONCURRENCY = 8

    def test_soak_no_leaked_processes_threads_or_sockets(self):
        baseline_threads = set(threading.enumerate())
        ctx, inputs = two_party_query()
        ctx2, _ = two_party_query(agg_extra=True)
        plans = [cc.compile_query(ctx), cc.compile_query(ctx2)]
        references = [
            {seed: cc.run_query(c, inputs, seed=seed).outputs["out"] for seed in range(3)}
            for c in (ctx, ctx2)
        ]

        session = cc.open_session(inputs)
        try:
            for _ in range(self.ROUNDS):
                handles = []
                for i in range(self.CONCURRENCY):
                    plan_index, seed = i % 2, i % 3
                    handles.append((plan_index, seed, session.submit_async(
                        plans[plan_index], seed=seed
                    )))
                for plan_index, seed, handle in handles:
                    result = handle.result(timeout=120)
                    assert result.outputs["out"] == references[plan_index][seed]
            assert session.stats["queries"] == self.ROUNDS * self.CONCURRENCY
            assert session.stats["plan_cache_misses"] == 2
        finally:
            session.close()

        # Processes: every agent exited (conftest would kill stragglers, but
        # a clean close must not need it).
        assert wait_until(lambda: active_agent_processes() == [], timeout=15)
        # Sessions: the registry is empty again.
        assert session not in active_sessions()
        # Sockets/ports: every control socket is closed (closed sockets have
        # fileno -1 and their ports are released with the dead agents).
        assert all(s.fileno() == -1 for s in session._pool._connections.values())
        # Threads: the per-party receiver threads wound down.
        def no_service_threads():
            extra = set(threading.enumerate()) - baseline_threads
            return not [t for t in extra if t.name.startswith("pool-recv-")]
        assert wait_until(no_service_threads, timeout=15), (
            f"leaked threads: {[t.name for t in set(threading.enumerate()) - baseline_threads]}"
        )

    def test_concurrent_submission_from_many_threads(self):
        """submit() itself is thread-safe (the analyst-facing entry point)."""
        ctx, inputs = two_party_query()
        compiled = cc.compile_query(ctx)
        reference = cc.run_query(ctx, inputs, seed=0).outputs["out"]
        results, errors = [], []

        def worker():
            try:
                results.append(session.submit(compiled, seed=0, timeout=120))
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        with cc.open_session(inputs, seed=0) as session:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        assert not errors
        assert len(results) == 6
        for result in results:
            assert result.outputs["out"] == reference


NONCE = "5" * 32
#: A dialler's fresh link secret (64 hex digits).
SECRET = "a7" * 32


def _exit_before_dialling_as_b(party, *args, **kwargs):
    """An agent entry point under which PARTY_B's process dies at once."""
    if party == PARTY_B:
        os._exit(3)
    agent_main(party, *args, **kwargs)


class TestAcceptAgents:
    """The coordinator accepts its agents' control links through the mesh's
    one accept, at session start and at restart: anything but an expected
    party's join hello with the session nonce is drained (closed, never
    answered), while a hello that names an expected party with a wrong
    nonce fails bring-up at once."""

    @staticmethod
    def dial(listener, hello):
        client = socket.create_connection(listener.getsockname(), timeout=5.0)
        client.settimeout(5.0)
        send_frame(client, hello)
        return client

    @pytest.mark.parametrize(
        "hello",
        [
            ("hello",),  # a 1-tuple
            "hello",  # not a tuple at all
            ("hello", PARTY_B),  # the party's name without the session nonce
            ("join", PARTY_B, 0),  # a join hello without the nonce
            ("join", PARTY_B, 0, NONCE),  # a join hello without the link secret
            ("join", PARTY_B, 0, NONCE, "a7"),  # a link secret that is not 32 bytes
            ("join", "mallory.example", 0, NONCE, SECRET),  # a party nobody expects
            ("join", [PARTY_B], 0, NONCE, SECRET),  # a party id of the wrong type
            ("join", PARTY_B, 1, NONCE, SECRET),  # another epoch
            ("ready", PARTY_B),  # the wrong tag
        ],
    )
    def test_a_stray_hello_never_takes_a_slot_or_receives_a_frame(self, hello):
        listener = bind_listener(5.0)
        try:
            stray = self.dial(listener, hello)
            agent = self.dial(listener, ("join", PARTY_B, 0, NONCE, SECRET))
            links = accept_agents(listener, {PARTY_B: 0}, nonce=NONCE, timeout=5.0)
            assert stray.recv(1) == b"", "the stray connection was answered or left open"
            send_frame(links[PARTY_B], ("session", {}))
            assert agent.recv(4) != b"", "the slot went to another connection"
            for sock in (stray, agent, links[PARTY_B]):
                sock.close()
        finally:
            listener.close()

    def test_a_hello_with_a_wrong_nonce_fails_bring_up_at_once(self):
        listener = bind_listener(5.0)
        try:
            impostor = self.dial(listener, ("join", PARTY_B, 0, "0" * 32, SECRET))
            started = time.monotonic()
            with pytest.raises(AgentFailure, match="wrong session nonce"):
                accept_agents(listener, {PARTY_A: 0, PARTY_B: 0}, nonce=NONCE, timeout=5.0)
            assert time.monotonic() - started < 2.0
            assert impostor.recv(1) == b""
            impostor.close()
        finally:
            listener.close()

    def test_duplicate_party_is_drained(self):
        """Once a party is accepted it is no longer expected: a second hello
        in its name is drained and the first link is kept."""
        listener = bind_listener(5.0)
        try:
            first = self.dial(listener, ("join", PARTY_A, 0, NONCE, SECRET))
            second = self.dial(listener, ("join", PARTY_A, 0, NONCE, SECRET))
            other = self.dial(listener, ("join", PARTY_B, 0, NONCE, SECRET))
            links = accept_agents(listener, {PARTY_A: 0, PARTY_B: 0}, nonce=NONCE, timeout=5.0)
            assert second.recv(1) == b""
            send_frame(links[PARTY_A], ("session", {}))
            assert first.recv(4) != b""
            for s in (first, second, other, *links.values()):
                s.close()
        finally:
            listener.close()

    def test_stray_client_is_drained_and_the_session_starts(self, monkeypatch):
        """End to end: a stray client that beats the agents to the control
        listener is drained, and the session starts and serves."""
        from repro.runtime import pool

        def stray_then_bind(timeout, host="127.0.0.1"):
            listener = bind_listener(timeout, host)
            strays.append(self.dial(listener, ("hello", PARTY_B)))
            return listener

        strays = []
        monkeypatch.setattr(pool, "bind_listener", stray_then_bind)
        ctx, inputs = two_party_query()
        reference = cc.run_query(ctx, inputs, seed=0).outputs["out"]
        with cc.open_session(inputs, seed=0, timeout=10.0) as session:
            assert session.submit(ctx).outputs["out"] == reference
        assert strays[0].recv(1) == b""
        strays[0].close()

    def test_an_agent_that_exits_before_it_dials_fails_the_start_at_once(self, monkeypatch):
        from repro.runtime import pool

        monkeypatch.setattr(pool, "agent_main", _exit_before_dialling_as_b)
        _ctx, inputs = two_party_query()
        started = time.monotonic()
        with pytest.raises(AgentFailure, match=r"'b\.example' exited with code 3"):
            cc.QuerySession(sorted(inputs), inputs, timeout=30)
        assert time.monotonic() - started < 2.0
        assert wait_until(lambda: active_agent_processes() == [], timeout=10)
        assert active_sessions() == []


class TestTeardownErrorAccounting:
    def test_swallowed_teardown_errors_are_counted_and_logged(self, caplog):
        import logging

        from repro.runtime import pool

        before = pool.teardown_errors()
        with caplog.at_level(logging.DEBUG, logger="repro.runtime.pool"):
            pool._count_teardown_error("unit-test", RuntimeError("boom"))
        assert pool.teardown_errors() == before + 1
        assert any(
            "unit-test" in record.message and "boom" in record.message
            for record in caplog.records
        )
