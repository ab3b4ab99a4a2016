#!/usr/bin/env python
"""MPC-profile comparison artefact for the isolation CI job.

Replays a slice of the differential corpus through the simulated runtime
(one ``SecretSharingEngine`` holding every slice) and the socket runtime (one
process per party, each engine holding only that party's slice) and records,
per plan:

* the MPC work/traffic profile of both runs (must be identical — the
  script asserts it, so a lockstep divergence fails the job);
* whether the output tables are byte-identical, including row order;
* each agent's isolation audit (which share slices and cleartext inputs
  the process materialised — every agent must hold only its own).

Emits ``BENCH_isolation.json`` (or the path given as the first argument)
so CI uploads a reviewable record of the cross-runtime comparison.

Run with::

    PYTHONPATH=src python benchmarks/bench_isolation.py [out.json] [num_plans]
"""

from __future__ import annotations

import json
import sys
import time

sys.path.insert(0, "tests")

import repro as cc
from repro.core.config import CompilationConfig
from repro.core.dispatch import QueryRunner

from test_differential import PARTY_A, PARTY_B, SEED, build_query, generate_spec

DEFAULT_NUM_PLANS = 6


def run_plan(plan: int, config: CompilationConfig, session) -> dict:
    spec = generate_spec(SEED + plan)
    ctx, inputs = build_query(spec)
    compiled = cc.compile_query(ctx, config)

    t0 = time.perf_counter()
    simulated = QueryRunner([PARTY_A, PARTY_B], inputs, config, seed=3).run(compiled)
    simulated_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    socketed = session.submit(compiled, inputs=inputs)
    socket_wall = time.perf_counter() - t0

    identical = simulated.outputs["out"] == socketed.outputs["out"]
    if not identical or simulated.mpc_profile != socketed.mpc_profile:
        raise AssertionError(
            f"plan {plan} (seed {spec['seed']}): socket runtime diverged from "
            f"the simulation\n simulated profile: {simulated.mpc_profile}\n "
            f"socketed profile:  {socketed.mpc_profile}"
        )
    for party, audit in socketed.isolation.items():
        held = set(audit.get("share_parties", [])) | set(
            audit.get("cleartext_input_parties", [])
        )
        if not held <= {party}:
            raise AssertionError(
                f"plan {plan}: agent {party} materialised foreign secrets: {audit}"
            )

    return {
        "plan": plan,
        "seed": spec["seed"],
        "outputs_identical": identical,
        "mpc_profile_simulated": simulated.mpc_profile,
        "mpc_profile_sockets": socketed.mpc_profile,
        "profiles_identical": simulated.mpc_profile == socketed.mpc_profile,
        "isolation": socketed.isolation,
        "simulated_wall_seconds": round(simulated_wall, 4),
        "socket_wall_seconds": round(socket_wall, 4),
    }


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_isolation.json"
    num_plans = int(sys.argv[2]) if len(sys.argv) > 2 else DEFAULT_NUM_PLANS

    config = CompilationConfig(cleartext_backend="python", mpc_backend="sharemind")
    with cc.QuerySession([PARTY_A, PARTY_B], config=config, seed=3) as session:
        plans = [run_plan(plan, config, session) for plan in range(num_plans)]

    report = {
        "benchmark": "isolation",
        "parties": [PARTY_A, PARTY_B],
        "num_plans": num_plans,
        "all_profiles_identical": all(p["profiles_identical"] for p in plans),
        "all_outputs_identical": all(p["outputs_identical"] for p in plans),
        "plans": plans,
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(
        f"wrote {out_path}: {num_plans} plans, profiles identical: "
        f"{report['all_profiles_identical']}"
    )


if __name__ == "__main__":
    main()
