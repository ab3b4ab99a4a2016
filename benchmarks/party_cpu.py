#!/usr/bin/env python
"""Per-party CPU and traffic of the three judged queries.

Each query (``hhi_pushdown``, ``hhi_mpc_only``, ``credit_hybrid``, built as
``tests/test_round_budget.py`` builds them, at a given number of rows per
party) runs twice in one process:

* on one :class:`~repro.runtime.executor.PlanExecutor` per party, each
  holding only its own inputs and share slices, joined by in-memory queues
  (:mod:`repro.runtime.queues`) and run on its own thread;
* on the all-local :class:`~repro.core.dispatch.QueryRunner`, which plays
  every party at once.

For every (query, rows) pair it prints one JSON line: each party's
``thread_time`` of ``PlanExecutor.execute``, the frames and bytes (headers
included) its channel sent and received per round tag, with the bytes it
sent in all (the benchmark's ``wire_bytes_per_query`` is the largest of
those over the parties), and the Python calls of its
``execute`` — counted by ``cProfile`` in a second per-party run, so the
timed run is not perturbed — the all-local run's ``thread_time``, and
whether every party's outputs equal the all-local run's.  Tells where the
per-party CPU of a query goes before any of it is optimised away.  Exits
non-zero when any party's outputs differ from the all-local run's.

Run with::

    PYTHONPATH=src python benchmarks/party_cpu.py [rows ...]

(default rows per party: 50 500 5000).
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import repro as cc
from repro.queries import credit_card_regulation_query, market_concentration_query
from repro.runtime.queues import queue_executors
from repro.workloads import CreditWorkload, TaxiWorkload

SEED = 1
DEFAULT_ROWS = (50, 500, 5000)


def _hhi(rows, **config):
    spec = market_concentration_query(rows_per_party=rows)
    tables = TaxiWorkload(seed=SEED).party_tables(len(spec.parties), rows)
    inputs = {p: {f"trips_{i}": tables[i]} for i, p in enumerate(spec.parties)}
    return spec, inputs, cc.CompilationConfig(executor="columnar", **config)


def _credit(rows):
    spec = credit_card_regulation_query(rows_demographics=rows, rows_per_agency=rows)
    demographics, agencies = CreditWorkload(seed=SEED).generate(rows, rows, 2)
    regulator, *banks = spec.parties
    inputs = {regulator: {"demographics": demographics}}
    for i, bank in enumerate(banks):
        inputs[bank] = {f"scores_{i}": agencies[i]}
    return spec, inputs, cc.CompilationConfig()


QUERIES = {
    "hhi_pushdown": _hhi,
    "hhi_mpc_only": lambda rows: _hhi(rows, enable_push_down=False),
    "credit_hybrid": _credit,
}


def _timed_execute(executor, compiled):
    start = time.thread_time()
    outcome = executor.execute(compiled)
    return outcome, time.thread_time() - start


def _profiled_calls(executor, compiled) -> int:
    profile = cProfile.Profile()
    profile.enable()
    try:
        executor.execute(compiled)
    finally:
        profile.disable()
    return pstats.Stats(profile).total_calls


def _per_party(parties, inputs, compiled, run) -> dict:
    """``run(executor, compiled)`` on one queue-joined executor per party,
    each on its own thread: the executors and ``{party: result}``."""
    executors = queue_executors(parties, inputs, SEED)
    with ThreadPoolExecutor(len(parties)) as pool:
        results = pool.map(lambda ex: run(ex, compiled), executors.values())
        return executors, dict(zip(parties, results))


def _by_tag(ledger: dict[str, list[int]]) -> dict:
    return {
        tag: {"frames": frames, "bytes": size} for tag, (frames, size) in sorted(ledger.items())
    }


def measure(name: str, rows: int) -> dict:
    spec, inputs, config = QUERIES[name](rows)
    compiled = cc.compile_query(spec.context, config)
    parties = list(spec.parties)

    start = time.thread_time()
    reference = cc.QueryRunner(parties, inputs, seed=SEED).run(compiled)
    local_cpu = time.thread_time() - start

    executors, runs = _per_party(parties, inputs, compiled, _timed_execute)
    _, calls = _per_party(parties, inputs, compiled, _profiled_calls)
    correct = all(
        outcome.outputs[out] == reference.outputs[out]
        for outcome, _cpu in runs.values()
        for out in outcome.outputs
    )
    return {
        "query": name,
        "rows_per_party": rows,
        "local_cpu_ms": round(local_cpu * 1e3, 3),
        "parties": {
            party: {
                "cpu_ms": round(cpu * 1e3, 3),
                "calls": calls[party],
                "sent_bytes": sum(size for _, size in executors[party].mesh.sent.values()),
                "sent": _by_tag(executors[party].mesh.sent),
                "received": _by_tag(executors[party].mesh.received),
            }
            for party, (_outcome, cpu) in runs.items()
        },
        "correct": correct,
    }


def main(argv: list[str]) -> int:
    correct = True
    for rows in [int(arg) for arg in argv] or DEFAULT_ROWS:
        for name in QUERIES:
            line = measure(name, rows)
            correct &= line["correct"]
            print(json.dumps(line), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
