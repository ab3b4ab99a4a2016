#!/usr/bin/env python
"""Benchmark: simulated in-process runtime vs. real per-party processes.

Runs the Figure-4 market-concentration query (three vehicle-for-hire
companies computing the HHI of their joint market) through both runtimes:

* ``simulated`` — every party inside one process, messages over the
  in-process :class:`~repro.runtime.transport.SimulatedTransport`;
* ``sockets``   — one OS process per party, every cross-party message
  (including the secret-sharing rounds of the MPC sub-plans) over real TCP
  connections.

For each runtime and input size it reports wall-clock seconds, the MPC
traffic (messages / bytes / rounds — identical by construction, which the
benchmark asserts), and whether the outputs are byte-identical.  Emits
``BENCH_runtime.json`` (in the current working directory, or the path given
as the first argument) so CI can track the socket runtime's overhead.

Run with::

    PYTHONPATH=src python benchmarks/bench_runtime_transport.py [out.json]
"""

from __future__ import annotations

import json
import sys
import time

import repro as cc
from repro.core.dispatch import QueryRunner
from repro.queries import market_concentration_query
from repro.runtime.service import SocketCoordinator
from repro.workloads.taxi import TaxiWorkload

ROW_COUNTS = [100, 500, 2_000]
SEED = 42


def run_once(rows_per_party: int) -> dict:
    workload = TaxiWorkload(num_companies=3, zero_fare_fraction=0.02, seed=7)
    spec = market_concentration_query(rows_per_party=rows_per_party)
    tables = workload.party_tables(len(spec.parties), rows_per_party)
    inputs = {p: {f"trips_{i}": tables[i]} for i, p in enumerate(spec.parties)}
    compiled = cc.compile_query(spec.context)
    parties = sorted(compiled.dag.parties() | set(inputs))

    t0 = time.perf_counter()
    simulated = QueryRunner(parties, inputs, compiled.config, seed=SEED).run(compiled)
    simulated_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    socketed = SocketCoordinator(parties, inputs, compiled.config, seed=SEED).run(compiled)
    socket_wall = time.perf_counter() - t0

    identical = all(
        simulated.outputs[name] == socketed.outputs[name] for name in simulated.outputs
    )
    if not identical or simulated.mpc_profile != socketed.mpc_profile:
        raise AssertionError(
            f"runtimes diverged at {rows_per_party} rows/party: "
            f"identical_outputs={identical}, "
            f"profiles equal={simulated.mpc_profile == socketed.mpc_profile}"
        )

    return {
        "rows_per_party": rows_per_party,
        "total_rows": rows_per_party * len(parties),
        "outputs_byte_identical": identical,
        "mpc_operator_count": compiled.mpc_operator_count(),
        "mpc_messages": simulated.mpc_profile["messages"],
        "mpc_bytes_sent": simulated.mpc_profile["bytes_sent"],
        "mpc_rounds": simulated.mpc_profile["rounds"],
        "simulated": {
            "wall_seconds": simulated_wall,
            "simulated_seconds": simulated.simulated_seconds,
        },
        "sockets": {
            "wall_seconds": socket_wall,
            "simulated_seconds": socketed.simulated_seconds,
            "overhead_vs_in_process": socket_wall / max(simulated_wall, 1e-9),
        },
    }


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_runtime.json"
    results = []
    for rows in ROW_COUNTS:
        entry = run_once(rows)
        results.append(entry)
        print(
            f"rows/party={rows:>6,}  simulated={entry['simulated']['wall_seconds']:.3f}s  "
            f"sockets={entry['sockets']['wall_seconds']:.3f}s  "
            f"mpc bytes={entry['mpc_bytes_sent']:,}  rounds={entry['mpc_rounds']:,}  "
            f"byte-identical={entry['outputs_byte_identical']}"
        )
    payload = {
        "benchmark": "runtime_transport",
        "query": "fig4_market_concentration",
        "parties": 3,
        "results": results,
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
