#!/usr/bin/env python
"""Transport-security cost artefact for the TLS CI job.

Quantifies what securing the runtime costs, in two layers:

* **wire codec** — encode/decode wall time and wire size for
  representative frame payloads (mesh share vectors, result tables, small
  control frames), measured in-process;
* **plaintext vs mutual TLS** — end-to-end session latency over a slice of
  the differential corpus, one warm session each.  Both runs must stay
  byte-identical to the simulated runtime; the script asserts it, so a
  divergence fails the job.

Emits ``BENCH_tls.json`` (or the path given as the first argument).

Run with::

    PYTHONPATH=src python benchmarks/bench_tls.py [out.json] [num_plans]
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time

sys.path.insert(0, "tests")

import numpy as np

import repro as cc
from repro.core.config import CompilationConfig, TransportSecurity
from repro.core.dispatch import QueryRunner
from repro.data.schema import ColumnDef, Schema
from repro.data.table import Table
from repro.runtime.wire import decode_payload, encode_payload

from test_differential import PARTY_A, PARTY_B, SEED, build_query, generate_spec

DEFAULT_NUM_PLANS = 6
CODEC_REPEATS = 200


def codec_payloads() -> dict[str, object]:
    """Representative frame payloads, biggest mesh traffic first."""
    rng = np.random.default_rng(SEED)
    schema = Schema([ColumnDef("k"), ColumnDef("v")])
    return {
        "share_vector_64k": (
            3, "msg", 7,
            (PARTY_A, PARTY_B, ("open-share", rng.integers(0, 2**63, 8192, dtype=np.uint64)), 65536),
        ),
        "result_table_1k_rows": (
            5, "table", 9,
            ("out", Table(schema, [rng.integers(0, 50, 1000), rng.integers(-1000, 1000, 1000)])),
        ),
        "control_frame": ("query", 12, "a1b2c3d4", {"seed": 3, "retries": 2}),
    }


def bench_codec() -> dict:
    """Codec size and encode/decode wall time per payload kind."""
    results = {}
    for name, payload in codec_payloads().items():
        codec_blob = encode_payload(payload)

        def timed(fn):
            samples = []
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(CODEC_REPEATS):
                    fn()
                samples.append((time.perf_counter() - t0) / CODEC_REPEATS)
            return round(statistics.median(samples) * 1e6, 3)  # microseconds

        results[name] = {
            "codec_bytes": len(codec_blob),
            "codec_encode_us": timed(lambda: encode_payload(payload)),
            "codec_decode_us": timed(lambda: decode_payload(codec_blob)),
        }
    return results


def bench_sessions(num_plans: int) -> dict:
    """Plaintext vs TLS warm-session latency over the corpus slice."""
    config = CompilationConfig(cleartext_backend="python", mpc_backend="sharemind")
    plans = []
    for plan in range(num_plans):
        spec = generate_spec(SEED + plan)
        ctx, inputs = build_query(spec)
        compiled = cc.compile_query(ctx, config)
        simulated = QueryRunner([PARTY_A, PARTY_B], inputs, config, seed=3).run(compiled)
        plans.append((plan, spec, compiled, inputs, simulated))

    def run(label: str, security) -> dict:
        t0 = time.perf_counter()
        with cc.QuerySession(
            [PARTY_A, PARTY_B], config=config, seed=3, security=security
        ) as session:
            open_wall = time.perf_counter() - t0
            per_plan = []
            for plan, spec, compiled, inputs, simulated in plans:
                t1 = time.perf_counter()
                result = session.submit(compiled, inputs=inputs)
                wall = time.perf_counter() - t1
                if (
                    result.outputs["out"] != simulated.outputs["out"]
                    or result.mpc_profile != simulated.mpc_profile
                ):
                    raise AssertionError(
                        f"plan {plan} (seed {spec['seed']}): {label} run diverged "
                        f"from the simulated runtime"
                    )
                per_plan.append(round(wall, 4))
        return {
            "session_open_seconds": round(open_wall, 4),
            "per_plan_seconds": per_plan,
            "total_query_seconds": round(sum(per_plan), 4),
            "all_identical_to_simulated": True,
        }

    with tempfile.TemporaryDirectory(prefix="bench-tls-certs-") as cert_dir:
        security = TransportSecurity.dev([PARTY_A, PARTY_B], cert_dir)
        plaintext = run("plaintext", None)
        secured = run("tls", security)
    return {
        "plaintext": plaintext,
        "tls": secured,
        "tls_overhead_ratio": round(
            secured["total_query_seconds"] / max(plaintext["total_query_seconds"], 1e-9), 3
        ),
    }


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_tls.json"
    num_plans = int(sys.argv[2]) if len(sys.argv) > 2 else DEFAULT_NUM_PLANS

    report = {
        "benchmark": "tls",
        "parties": [PARTY_A, PARTY_B],
        "num_plans": num_plans,
        "codec": bench_codec(),
        "sessions": bench_sessions(num_plans),
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    sessions = report["sessions"]
    print(
        f"wrote {out_path}: {num_plans} plans, TLS/plaintext query-time ratio "
        f"{sessions['tls_overhead_ratio']}"
    )


if __name__ == "__main__":
    main()
