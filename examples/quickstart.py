#!/usr/bin/env python
"""Quickstart: a minimal three-party Conclave query.

Three companies each hold a private (region, amount) sales relation.  They
want the total and count of positive sales per region across all three
companies, revealed only to the first company, without showing each other
their books.

The query uses the expression frontend: the filter predicate is an ordinary
Python expression over ``cc.col``, and one ``aggregate`` call computes both
the SUM and the COUNT.

Run with::

    python examples/quickstart.py [runtime]

where ``runtime`` is ``simulated`` (default), ``sockets``, ``service``,
``gateway`` or ``recovery``:

* ``sockets`` executes the same query with one OS process per party, moving
  all cross-party traffic (including the secret-sharing rounds) over real
  TCP sockets, with byte-identical results;
* ``service`` opens a *persistent session* — the per-party agents and their
  TCP mesh stay up across queries, so the example submits the plan several
  times and prints how warm queries amortise the spawn + handshake cost;
* ``gateway`` demonstrates the session's admission control: a burst beyond
  the configured queue limits is shed with an explicit ``QueryRejected``
  (never a silent unbounded backlog), and the session's live metrics —
  latency percentiles and shed counts — are printed from
  ``session.stats``;
* ``recovery`` demonstrates supervision: a deterministic fault plan kills
  one party's agent in the middle of the second query's MPC exchange; the
  supervisor brings every agent up again, the interrupted query is retried
  transparently, and every result is identical to the
  fault-free run.
"""

import sys

import numpy as np

import repro as cc
from repro.data.schema import ColumnDef, Schema
from repro.data.table import Table


def build_query():
    """Declare the query exactly as if all data sat in one database."""
    p1, p2, p3 = cc.Party("alpha.example"), cc.Party("beta.example"), cc.Party("gamma.example")
    schema = [cc.Column("region", cc.INT), cc.Column("amount", cc.INT)]

    with cc.QueryContext() as query:
        sales = [
            cc.new_table(f"sales_{i}", schema, at=p, estimated_rows=1_000)
            for i, p in enumerate((p1, p2, p3))
        ]
        combined = cc.concat(sales, name="all_sales")
        paid = combined.filter(cc.col("amount") > 0, name="paid_sales")
        per_region = paid.aggregate(
            group=["region"], aggs={"total": cc.SUM("amount"), "n": cc.COUNT()}
        )
        per_region.collect("totals_by_region", to=[p1])
    return query, [p.name for p in (p1, p2, p3)]


def generate_inputs(parties, rows=200, seed=0):
    """Synthesise each party's private sales relation."""
    rng = np.random.default_rng(seed)
    schema = Schema([ColumnDef("region"), ColumnDef("amount")])
    inputs = {}
    for i, party in enumerate(parties):
        table = Table(
            schema,
            [rng.integers(0, 5, rows), rng.integers(1, 1_000, rows)],
        )
        inputs[party] = {f"sales_{i}": table}
    return inputs


def main(runtime: str = "simulated"):
    query, parties = build_query()

    # Compile: Conclave decides which operators run locally and which under
    # MPC.  explain() prints the plan and one run of it on the declared
    # estimated_rows: each operator's cost, the rounds, and what it discloses.
    compiled = cc.compile_query(query)
    print(compiled.explain())
    print()

    # Execute across the three parties — in-process, as one OS process per
    # party with real TCP transport ("sockets"), or over a standing session
    # of long-lived party agents ("service").
    inputs = generate_inputs(parties)
    if runtime == "service":
        # Open once (agents spawn, mesh connects), submit many times: warm
        # queries skip process spawn, mesh handshake and plan shipping.
        import time

        with cc.open_session(inputs) as session:
            result = None
            for i in range(3):
                t0 = time.perf_counter()
                result = session.submit(compiled)
                label = "cold (includes plan shipping)" if i == 0 else "warm"
                print(f"query {i + 1}: {time.perf_counter() - t0:.3f}s  [{label}]")
            stats = session.stats
            print("session stats: "
                  f"{ {k: stats[k] for k in ('queries', 'plan_cache_hits', 'plan_cache_misses')} }")
        print()
    elif runtime == "gateway":
        # Admission control + live metrics: bound the session at 2 concurrent
        # queries and a 2-deep queue, then offer a burst of 8.  Queries beyond
        # the limits are shed *immediately* with QueryRejected — the analyst
        # retries later — instead of growing an unbounded backlog.
        with cc.open_session(inputs, max_workers=2, max_queue_depth=2) as session:
            result = session.submit(compiled)  # warm the plan cache
            admitted, rejected = [], 0
            for _ in range(8):
                try:
                    admitted.append(session.submit_async(compiled))
                except cc.QueryRejected:
                    rejected += 1
            for pending in admitted:
                result = pending.result(timeout=120)
            print(f"burst of 8: {len(admitted)} admitted, {rejected} shed (QueryRejected)")
            stats = session.stats
            latency = stats["latency"]["query_seconds"]
            print(f"admitted latency: p50 {latency['p50']*1e3:.0f}ms, "
                  f"p99 {latency['p99']*1e3:.0f}ms")
            print(f"session stats: submitted {stats['queries_submitted']}, "
                  f"rejected {stats['queries_rejected']}, "
                  f"completed {stats['queries_completed']}")
        print()
    elif runtime == "recovery":
        # Supervision + crash recovery: a seeded fault plan hard-kills the
        # beta agent (os._exit, sockets torn down by the kernel) after its
        # 3rd mesh frame of query 2.  The supervisor detects the death,
        # brings every agent up again as at session start, and the session
        # replays the interrupted query (up to RestartPolicy.max_attempts
        # tries) — the loop below never sees an error, and every result
        # matches the fault-free first one.
        import time

        from repro.core.config import RestartPolicy
        from repro.runtime.faults import FaultPlan, KillFault

        faults = FaultPlan(
            kills=(KillFault(parties[1], at_query=2, after_mesh_frames=3),)
        )
        with cc.open_session(
            inputs,
            restart=RestartPolicy(backoff_seconds=0.05, max_attempts=3),
            faults=faults,
        ) as session:
            result = first = session.submit(compiled)
            restarts_seen = session.stats["restarts"]
            for i in range(1, 3):
                t0 = time.perf_counter()
                result = session.submit(compiled)
                now = session.stats["restarts"]
                # Fault counters are per process lifetime, so the restarted
                # beta agent gets the plan afresh and dies again at *its* 2nd query — both
                # loop iterations exercise a full crash/restart/retry cycle.
                label = (
                    "agent killed mid-MPC, restarted, query retried"
                    if now > restarts_seen
                    else "warm"
                )
                restarts_seen = now
                print(f"query {i + 1}: {time.perf_counter() - t0:.3f}s  [{label}]")
                assert result.outputs == first.outputs, "recovery changed the result!"
            stats = session.stats
            print(f"restarts {stats['restarts']}, retries {stats['retries']}, "
                  f"recovery p50 "
                  f"{stats['latency']['recovery_seconds']['p50']*1e3:.0f}ms")
        print()
    elif runtime == "sockets":
        result = cc.SocketCoordinator(parties, inputs).run(compiled)
    else:
        result = cc.QueryRunner(parties, inputs).run(compiled)

    print(f"== result revealed to {parties[0]} ({result.runtime} runtime) ==")
    for region, total, count in sorted(result.outputs["totals_by_region"].rows()):
        print(f"  region {region}: total sales {total} over {count} transactions")
    print()
    print(f"simulated end-to-end runtime: {result.simulated_seconds:.2f}s")
    print(f"operators still under MPC   : {compiled.mpc_operator_count()} of {compiled.operator_count()}")
    print()
    print("== leakage report ==")
    print(result.leakage.summary() or "  (nothing revealed beyond the output)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "simulated")
