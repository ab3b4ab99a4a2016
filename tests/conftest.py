"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table
from repro.mpc.secretshare import SecretSharingEngine

PARTIES = ["alpha.example", "beta.example", "gamma.example"]


@pytest.fixture(autouse=True)
def _no_leaked_agent_processes():
    """Close leaked sessions and kill leaked agent processes after each test.

    The socket runtime spawns one OS process per party, and service mode
    keeps them alive inside sessions; a test that fails mid-handshake or
    forgets to close a session could otherwise leave agents blocked on
    socket reads.  Every agent is daemonic and every blocking read has a
    timeout, but this guard makes leaks impossible regardless: sessions are
    closed first, then anything still alive is killed.
    """
    yield
    from repro.runtime.pool import active_agent_processes
    from repro.runtime.service import active_sessions

    for session in active_sessions():
        try:
            session.close(drain=False)
        except Exception:
            pass

    leaked = list(active_agent_processes())
    leaked += [
        p for p in multiprocessing.active_children()
        if p.name.startswith("conclave-agent-") and p not in leaked
    ]
    for proc in leaked:
        proc.terminate()
        proc.join(timeout=5)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5)


@pytest.fixture
def kv_schema() -> Schema:
    """A simple (key, value) integer schema."""
    return Schema([ColumnDef("key"), ColumnDef("value")])


@pytest.fixture
def kv_table(kv_schema) -> Table:
    """A small (key, value) table with duplicate keys."""
    return Table.from_rows(
        kv_schema,
        [(1, 10), (2, 20), (1, 30), (3, 40), (2, 50), (4, 60)],
    )


@pytest.fixture
def other_kv_table(kv_schema) -> Table:
    """A second (key, value) table for join tests."""
    return Table.from_rows(kv_schema, [(1, 100), (2, 200), (5, 500)])


@pytest.fixture
def engine() -> SecretSharingEngine:
    """A three-party secret-sharing engine with a fixed seed."""
    return SecretSharingEngine(PARTIES, seed=1234)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(99)


def make_table(columns: dict[str, list[int]], float_cols: set[str] | None = None) -> Table:
    """Helper for building small tables inline in tests."""
    float_cols = float_cols or set()
    defs = [
        ColumnDef(name, ColumnType.FLOAT if name in float_cols else ColumnType.INT)
        for name in columns
    ]
    return Table(Schema(defs), [np.asarray(v) for v in columns.values()])
