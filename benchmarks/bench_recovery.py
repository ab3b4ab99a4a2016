#!/usr/bin/env python
"""Benchmark: crash recovery in the supervised service runtime.

Two identical query streams run against a standing two-party session:

* ``baseline`` — fault-free: the ordinary warm-session serving path;
* ``faulted``  — a deterministic :class:`~repro.runtime.faults.KillFault`
  hard-kills one agent every ``KILL_EVERY`` queries (``os._exit`` mid-MPC,
  sockets torn down by the kernel).  The supervisor brings every agent up
  again at the next epoch, through the bring-up the session start runs,
  and the interrupted query is retried transparently — the stream never
  sees an error.

For each mode the benchmark reports per-query latency percentiles; for the
faulted mode it adds the supervisor's **recovery latency** histogram
(restart started -> mesh serving again, p50/p95/p99), restart/retry counts,
and the cost split between *clean* queries (those that never met a crash —
their p50 vs the baseline's is the supervision overhead) and *crash-hit*
queries (the max — one full detect+restart+replay cycle).

Every result in both streams is asserted byte-identical to a fault-free
reference run, and the faulted stream must finish with zero exhausted
retries: recovery is exercised, not approximated.

Emits ``BENCH_recovery.json`` (or the path given as the first argument);
the second argument overrides the stream length for quick CI runs.

Run with::

    PYTHONPATH=src python benchmarks/bench_recovery.py [out.json] [queries]
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

import repro as cc
from repro.core.config import RestartPolicy
from repro.core.lang import QueryContext
from repro.data.schema import ColumnDef, Schema
from repro.data.table import Table
from repro.runtime.faults import FaultPlan, KillFault

PARTY_A = "alpha.example"
PARTY_B = "beta.example"
SEED = 42
DEFAULT_QUERIES = 32
#: The victim agent dies at every KILL_EVERY-th query intake *of its
#: process* — fault counters are per process lifetime, so each restarted
#: agent gets the plan afresh and dies again KILL_EVERY queries later: a periodic
#: crash, the worst recurring failure mode short of budget exhaustion.
KILL_EVERY = 8


def build_query():
    pa, pb = cc.Party(PARTY_A), cc.Party(PARTY_B)
    with QueryContext() as ctx:
        t0 = ctx.new_table("t0", [cc.Column("k"), cc.Column("v")], at=pa)
        t1 = ctx.new_table("t1", [cc.Column("k"), cc.Column("v")], at=pb)
        ctx.concat([t0, t1]).aggregate(
            group=["k"], aggs={"s": cc.SUM("v"), "n": cc.COUNT()}
        ).collect("out", to=[pa])
    return ctx


def build_inputs(rows: int = 60):
    rng = np.random.default_rng(SEED)
    schema = Schema([ColumnDef("k"), ColumnDef("v")])
    return {
        party: {
            name: Table(schema, [rng.integers(0, 6, rows), rng.integers(-40, 40, rows)])
        }
        for party, name in ((PARTY_A, "t0"), (PARTY_B, "t1"))
    }


def percentiles(samples: list[float]) -> dict:
    if not samples:
        return {"count": 0}
    data = sorted(samples)

    def pct(p: float) -> float:
        index = min(len(data) - 1, max(0, int(round(p / 100.0 * (len(data) - 1)))))
        return data[index]

    return {
        "count": len(data),
        "mean_s": sum(data) / len(data),
        "p50_s": pct(50),
        "p95_s": pct(95),
        "p99_s": pct(99),
        "max_s": data[-1],
    }


def run_stream(compiled, inputs, queries: int, reference, *, faults=None) -> dict:
    restart = RestartPolicy(
        max_restarts=queries,  # the periodic kill is the point, not a budget test
        window_seconds=600.0,
        backoff_seconds=0.05,
        max_backoff_seconds=0.5,
        heartbeat_interval_seconds=None,
        max_attempts=4,
    )
    latencies: list[float] = []
    with cc.QuerySession(
        [PARTY_A, PARTY_B], inputs, seed=SEED,
        restart=restart, faults=faults, timeout=60.0,
    ) as session:
        for _ in range(queries):
            started = time.perf_counter()
            result = session.submit(compiled, timeout=120)
            latencies.append(time.perf_counter() - started)
            assert result.outputs["out"] == reference.outputs["out"], (
                "result diverged from the fault-free reference"
            )
            assert result.mpc_profile == reference.mpc_profile
        stats = session.stats
    assert stats["retries_exhausted"] == 0, "a query ran out of retries"
    point = {
        "queries": percentiles(latencies),
        "restarts": stats["restarts"],
        "retries": stats["retries"],
    }
    recovery = stats["latency"].get("recovery_seconds")
    if recovery:
        point["recovery"] = recovery
    return point


def main(argv: list[str]) -> None:
    out_path = argv[1] if len(argv) > 1 else "BENCH_recovery.json"
    queries = int(argv[2]) if len(argv) > 2 else DEFAULT_QUERIES
    if queries < KILL_EVERY:
        raise SystemExit(f"need at least {KILL_EVERY} queries for one kill to fire")

    ctx = build_query()
    inputs = build_inputs()
    compiled = cc.compile_query(ctx)
    reference = cc.run_query(ctx, inputs, seed=SEED)

    faults = FaultPlan(
        kills=(KillFault(PARTY_B, at_query=KILL_EVERY, after_mesh_frames=2),)
    )
    expected_kills = queries // KILL_EVERY

    baseline = run_stream(compiled, inputs, queries, reference)
    faulted = run_stream(compiled, inputs, queries, reference, faults=faults)

    assert baseline["restarts"] == 0 and baseline["retries"] == 0
    assert faulted["restarts"] >= max(1, expected_kills - 1), (
        f"expected ~{expected_kills} restarts, saw {faulted['restarts']}"
    )
    assert faulted["retries"] >= 1, "no crash landed mid-query"
    recovery = faulted.get("recovery")
    assert recovery and recovery["count"] >= 1, "no recovery latency was recorded"
    assert recovery["p99"] < 10.0, f"recovery p99 {recovery['p99']:.2f}s is pathological"

    baseline_p50 = baseline["queries"]["p50_s"]
    faulted_p50 = faulted["queries"]["p50_s"]
    report = {
        "benchmark": "recovery",
        "parties": [PARTY_A, PARTY_B],
        "queries_per_stream": queries,
        "kill_every": KILL_EVERY,
        "baseline": baseline,
        "faulted": faulted,
        "recovery_latency": recovery,
        "overhead": {
            # Clean-query cost of running supervised *and* periodically losing
            # an agent: median over the whole faulted stream vs the baseline.
            "faulted_p50_over_baseline_p50": (
                faulted_p50 / baseline_p50 if baseline_p50 > 0 else None
            ),
            # Worst single query: one full detect + restart + replay.
            "crash_hit_query_max_s": faulted["queries"]["max_s"],
        },
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(
        f"recovery: {faulted['restarts']} restarts, {faulted['retries']} retries, "
        f"recovery p50={recovery['p50'] * 1000:.0f}ms p99={recovery['p99'] * 1000:.0f}ms; "
        f"query p50 baseline={baseline_p50 * 1000:.0f}ms "
        f"faulted={faulted_p50 * 1000:.0f}ms "
        f"crash-hit max={faulted['queries']['max_s'] * 1000:.0f}ms"
    )
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main(sys.argv)
