#!/usr/bin/env python
"""Benchmark: cold per-query agent spawn vs. a warm standing query session.

The first socket runtime (PR 2) spawned a fresh agent mesh per query, so
process spawn + TCP mesh handshake sat on every query's critical path.  The
query service keeps the per-party agents and their mesh alive across a
stream of queries.  This benchmark quantifies the amortisation on the
quickstart three-party aggregate:

* ``cold``  — one :class:`~repro.runtime.service.SocketCoordinator`
  ``run`` per query (spawn, handshake, execute, teardown every time);
* ``warm``  — one :class:`~repro.runtime.service.QuerySession` serving all
  queries (spawn + handshake once; later submissions also hit the
  per-session compiled-plan cache and ship only a fingerprint).

Both modes execute the *same* compiled plan with the same seed, and the
benchmark asserts their outputs are byte-identical before reporting.  Emits
``BENCH_service.json`` (in the current working directory, or the path given
as the first argument) with per-query latencies and the cold/warm speedup
so CI can track the service's advantage.

Run with::

    PYTHONPATH=src python benchmarks/bench_query_service.py [out.json]
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

import repro as cc
from repro.core.lang import QueryContext
from repro.data.schema import ColumnDef, Schema
from repro.data.table import Table
from repro.runtime.service import SocketCoordinator

PARTIES = ["alpha.example", "beta.example", "gamma.example"]
QUERIES_PER_MODE = 8
ROW_COUNTS = [100, 1_000]
SEED = 42


def build_query():
    schema = [cc.Column("region", cc.INT), cc.Column("amount", cc.INT)]
    parties = [cc.Party(p) for p in PARTIES]
    with QueryContext() as ctx:
        sales = [ctx.new_table(f"sales_{i}", schema, at=p) for i, p in enumerate(parties)]
        paid = ctx.concat(sales).filter(cc.col("amount") > 0)
        paid.aggregate(
            group=["region"], aggs={"total": cc.SUM("amount"), "n": cc.COUNT()}
        ).collect("totals", to=[parties[0]])
    return ctx


def build_inputs(rows: int):
    rng = np.random.default_rng(SEED)
    schema = Schema([ColumnDef("region"), ColumnDef("amount")])
    return {
        party: {
            f"sales_{i}": Table(
                schema, [rng.integers(0, 5, rows), rng.integers(-50, 500, rows)]
            )
        }
        for i, party in enumerate(PARTIES)
    }


def run_once(rows: int) -> dict:
    compiled = cc.compile_query(build_query())
    inputs = build_inputs(rows)

    cold_latencies = []
    cold_outputs = None
    for _ in range(QUERIES_PER_MODE):
        t0 = time.perf_counter()
        result = SocketCoordinator(PARTIES, inputs, compiled.config, seed=SEED).run(compiled)
        cold_latencies.append(time.perf_counter() - t0)
        cold_outputs = result.outputs["totals"]

    warm_latencies = []
    t0 = time.perf_counter()
    session = cc.QuerySession(PARTIES, inputs=inputs, config=compiled.config, seed=SEED)
    session_open_seconds = time.perf_counter() - t0
    try:
        for _ in range(QUERIES_PER_MODE):
            t0 = time.perf_counter()
            result = session.submit(compiled)
            warm_latencies.append(time.perf_counter() - t0)
            if result.outputs["totals"] != cold_outputs:
                raise AssertionError(f"cold and warm outputs diverged at {rows} rows/party")
        cache = dict(session.stats)
    finally:
        session.close()

    cold_mean = statistics.mean(cold_latencies)
    warm_mean = statistics.mean(warm_latencies)
    return {
        "rows_per_party": rows,
        "queries_per_mode": QUERIES_PER_MODE,
        "outputs_byte_identical": True,
        "cold": {
            "per_query_seconds": cold_latencies,
            "mean_seconds": cold_mean,
            "median_seconds": statistics.median(cold_latencies),
        },
        "warm": {
            "session_open_seconds": session_open_seconds,
            "per_query_seconds": warm_latencies,
            "mean_seconds": warm_mean,
            "median_seconds": statistics.median(warm_latencies),
            "plan_cache": cache,
        },
        "warm_speedup": cold_mean / max(warm_mean, 1e-9),
    }


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_service.json"
    results = []
    for rows in ROW_COUNTS:
        entry = run_once(rows)
        results.append(entry)
        print(
            f"rows/party={rows:>6,}  cold mean={entry['cold']['mean_seconds']*1e3:7.1f}ms  "
            f"warm mean={entry['warm']['mean_seconds']*1e3:7.1f}ms  "
            f"speedup={entry['warm_speedup']:.2f}x"
        )
    if not all(e["warm_speedup"] > 1.0 for e in results):
        raise AssertionError(
            "warm-session queries did not beat cold per-query spawn; the service "
            "is not amortising mesh setup"
        )
    payload = {
        "benchmark": "query_service",
        "query": "quickstart_totals_by_region",
        "parties": len(PARTIES),
        "results": results,
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
