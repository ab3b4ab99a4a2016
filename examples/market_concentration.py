#!/usr/bin/env python
"""Market concentration (HHI) across three vehicle-for-hire companies (§2.1, §7.1).

An antitrust regulator wants the Herfindahl-Hirschman index of a ride market
without any company revealing its sales book.  The query is pure expression
API: ``filter(col("price") > 0)``, derived columns like
``with_column("m_share", col("local_rev") / col("total_rev"))``, and
single-aggregate ``aggregate(aggs=...)`` calls.  Conclave pushes the revenue
aggregation down to each company's local (Spark-like) cluster, so only three
per-company revenue totals ever enter MPC.

Run with::

    python examples/market_concentration.py [rows_per_party] [runtime]

where ``runtime`` is ``simulated`` (default, every party in this process)
or ``sockets`` (one OS process per party, share traffic over real TCP).
"""

import sys

import repro as cc
from repro.model.estimator import EstimatorParams, PlanEstimator
from repro.queries import market_concentration_query
from repro.workloads.taxi import TaxiWorkload


def main(rows_per_party: int = 2_000, runtime: str = "simulated"):
    workload = TaxiWorkload(num_companies=3, zero_fare_fraction=0.02, seed=7)
    spec = market_concentration_query(rows_per_party=rows_per_party)

    # Price local work as the paper does: on a small Spark cluster per party.
    config = cc.CompilationConfig(cleartext_backend="spark")
    compiled = cc.compile_query(spec.context, config)
    print(compiled.report.summary())
    print()

    tables = workload.party_tables(len(spec.parties), rows_per_party)
    inputs = {
        party: {f"trips_{i}": tables[i]} for i, party in enumerate(spec.parties)
    }
    if runtime == "sockets":
        result = cc.SocketCoordinator(spec.parties, inputs, config).run(compiled)
    else:
        result = cc.QueryRunner(spec.parties, inputs, config).run(compiled)

    hhi = result.outputs["hhi_result"].rows()[0][0]
    print(f"[{result.runtime} runtime] "
          f"HHI over {3 * rows_per_party} private trip records: {hhi:.4f}")
    print(f"cleartext reference                              : {workload.reference_hhi(tables):.4f}")
    print(f"simulated end-to-end runtime                     : {result.simulated_seconds:.1f}s")
    print()

    # The cost estimator prices the same plan at the paper's data scale.
    for total_rows in (10**6, 10**8, 1_300_000_000):
        per_party = total_rows // 3
        big_spec = market_concentration_query(rows_per_party=per_party)
        big_compiled = cc.compile_query(big_spec.context, config)
        estimate = PlanEstimator(EstimatorParams(filter_selectivity=0.98, distinct_fraction=3 / per_party)).estimate(big_compiled)
        print(f"estimated runtime at {total_rows:>13,} total records: {estimate.simulated_seconds:8.0f}s "
              f"(MPC portion {estimate.mpc_seconds:.1f}s)")


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 2_000,
        sys.argv[2] if len(sys.argv) > 2 else "simulated",
    )
