"""Warm agents keep their heap: a warm MPC-only query touches no fresh pages,
and a push-down query grows no agent by the size of its input.

Each agent process pads its glibc heap top by 16 MiB and keeps share
vectors out of ``mmap`` once at start (``repro.runtime.agent
.retain_heap_top``), and a sequential query stream stays on one worker
thread, hence one arena, so the ≈ 43–63 MB of share
vectors a warm ``hhi_mpc_only`` query allocates and frees are carved from
pages the previous query already faulted in.  The
agents report their cumulative ``getrusage`` counts with every result, and
the session exposes them as ``stats["proc"]``; without the setting each
agent takes ≈ 4 000–5 600 minor faults per warm query, with it ≈ 3–50.

A push-down query's local step keeps an agent's peak memory flat in its
input: the filter's survivors are aggregated where they lie, a chunk at a
time, so a warm agent's ``VmHWM`` grows by the filter's flags and a few
chunks' scratch — ≈ 3 bytes per input row at 500 000 rows, where copying
the survivors and an 8-byte bucket index per row grew it by ≈ 24.

An agent opens without the other parties' inputs: the pool forks it with
the other parties' input buffers marked ``MADV_DONTFORK``, so its ``VmHWM``
at open grows with its own input (inherited copy-on-write) and not with
theirs, where inheriting every party's pages grew it by ≈ 30 MB at
3 × 500 000 rows.  A closed session
keeps no party's inputs alive, so agents forked after it do not inherit
them.
"""

import ctypes
import gc
import platform
import sys
import weakref

import pytest

import repro as cc
from repro.queries import market_concentration_query
from repro.runtime.pool import active_agent_processes
from repro.workloads import TaxiWorkload

ROWS = 30_000
WARMUP, MEASURED = 2, 5
MAX_FAULTS_PER_QUERY = 400

#: Trips per party in the push-down case, and the bound on a warm agent's
#: ``VmHWM`` growth over one query, per trip.
PUSHDOWN_ROWS = 500_000
MAX_HWM_BYTES_PER_ROW = 10

#: Trips per party when agents open over large inputs, and how far an
#: agent's ``VmHWM`` at open may grow past its own input over an open with
#: tiny inputs: heap the coordinator grew while generating the trips.  It is
#: below the two other parties' inputs (15 MB), so inheriting them fails.
OPEN_ROWS = 500_000
OPEN_SLACK_BYTES = 8 << 20


def _glibc() -> bool:
    return sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc" and (
        getattr(ctypes.CDLL(None), "mallopt", None) is not None
    )


@pytest.mark.skipif(not _glibc(), reason="the heap-top pad is a glibc setting")
def test_warm_mpc_only_queries_take_almost_no_minor_faults():
    spec = market_concentration_query(rows_per_party=ROWS)
    tables = TaxiWorkload(seed=1).party_tables(len(spec.parties), ROWS)
    inputs = {p: {f"trips_{i}": tables[i]} for i, p in enumerate(spec.parties)}
    config = cc.CompilationConfig(enable_push_down=False)
    compiled = cc.compile_query(spec.context, config)
    with cc.QuerySession(spec.parties, inputs=inputs, config=config, seed=1) as session:
        for _ in range(WARMUP):
            session.submit(compiled)
        before = session.stats["proc"]
        for _ in range(MEASURED):
            session.submit(compiled)
        after = session.stats["proc"]

    assert sorted(after) == sorted(spec.parties)
    per_query = {
        party: (after[party]["minor_faults"] - before[party]["minor_faults"]) / MEASURED
        for party in spec.parties
    }
    assert all(faults < MAX_FAULTS_PER_QUERY for faults in per_query.values()), per_query
    for party in spec.parties:
        assert set(after[party]) == {"minor_faults", "user_ms", "sys_ms"}
        assert after[party]["user_ms"] >= before[party]["user_ms"]
        assert after[party]["sys_ms"] >= before[party]["sys_ms"]


def _vm_hwm_bytes(pid: int) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise KeyError("VmHWM")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is read from /proc")
def test_a_pushdown_query_grows_no_agent_by_its_input():
    spec = market_concentration_query(rows_per_party=PUSHDOWN_ROWS)

    def inputs(rows: int) -> dict:
        tables = TaxiWorkload(seed=1).party_tables(len(spec.parties), rows)
        return {p: {f"trips_{i}": tables[i]} for i, p in enumerate(spec.parties)}

    config = cc.CompilationConfig()
    compiled = cc.compile_query(spec.context, config)
    standing = inputs(PUSHDOWN_ROWS)
    with cc.QuerySession(spec.parties, inputs=standing, config=config, seed=1) as session:
        # Warm the agents on a small query first: imports, caches, arenas.
        session.submit(compiled, inputs=inputs(1_000))
        agents = [proc.pid for proc in active_agent_processes()]
        before = {pid: _vm_hwm_bytes(pid) for pid in agents}
        session.submit(compiled)
        growth = {pid: (_vm_hwm_bytes(pid) - before[pid]) / PUSHDOWN_ROWS for pid in agents}

    assert len(agents) == len(spec.parties)
    assert all(per_row < MAX_HWM_BYTES_PER_ROW for per_row in growth.values()), growth


@pytest.mark.skipif(not _glibc(), reason="MADV_DONTFORK and VmHWM are glibc Linux's")
def test_an_agent_opens_without_the_other_parties_inputs():
    def agents_at_open(rows: int):
        tables = TaxiWorkload(seed=1).party_tables(len(spec.parties), rows)
        inputs = {p: {f"trips_{i}": tables[i]} for i, p in enumerate(spec.parties)}
        with cc.QuerySession(spec.parties, inputs=inputs, seed=1):
            hwm = {proc.name: _vm_hwm_bytes(proc.pid) for proc in active_agent_processes()}
        own = {f"conclave-agent-{p}": sum(column.nbytes for column in tables[i].columns())
               for i, p in enumerate(spec.parties)}
        return hwm, own

    spec = market_concentration_query(rows_per_party=OPEN_ROWS)
    tiny, _ = agents_at_open(1_000)
    large, own = agents_at_open(OPEN_ROWS)
    growth = {name: large[name] - tiny[name] for name in large}
    assert sorted(growth) == sorted(own)
    assert all(growth[name] < own[name] + OPEN_SLACK_BYTES for name in own), (growth, own)


def test_a_closed_session_pins_no_input():
    spec = market_concentration_query(rows_per_party=100)
    tables = TaxiWorkload(seed=1).party_tables(len(spec.parties), 100)
    inputs = {p: {f"trips_{i}": tables[i]} for i, p in enumerate(spec.parties)}
    column = weakref.ref(tables[0].columns()[0])
    session = cc.QuerySession(spec.parties, inputs=inputs, seed=1)
    session.close()
    del tables, inputs
    gc.collect()

    assert session.closed
    assert column() is None
