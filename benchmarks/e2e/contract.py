"""The benchmark's names: workloads, metrics, bounds, and which layer moves what.

``BENCHMARK.json`` at the repo root is the machine-checked copy of the first
three tables (``test_bench_contract.py`` holds the two in sync); later
performance and simplicity issues cite these names verbatim.  The per-layer
table additionally records, for every layer metric, the end-to-end metric it
is expected to move and on which workloads — written down before anyone
optimises, so a saving that shows up elsewhere than predicted is visible.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

#: (name, why) — the three workloads a PR is judged on, one sentence each.
#: Three, because the PR driver's time cap buys either many short runs or few
#: long ones, and on a shared 2-vCPU box only long runs repeat.
WORKLOADS: list[tuple[str, str]] = [
    ("hhi_pushdown",
     "HHI, 3 parties x 1M rows, columnar, push-down on: a 17-round MPC stub, so exec "
     "kernels and local data volume do nearly all the work"),
    ("hhi_mpc_only",
     "HHI, 3 x 30k rows, push-down off: 19 wire rounds but ~11 MB/party/query of share "
     "vectors, so mpc arithmetic, triple dealing and wire codec throughput dominate"),
    ("credit_hybrid",
     "credit-card regulation, hybrid join + aggregates via the STP, 50 rows per relation: "
     "230 wire rounds of tiny frames, so mesh round-wait dominates and data volume is nil"),
]
WORKLOAD_NAMES = [name for name, _ in WORKLOADS]

#: Workloads the harness also runs (by name, and in the suite) but no PR is
#: judged on.  They gave up their share of the time cap to longer runs of the
#: other three.  ``sumcount_small`` spends its 9 ms in the layers that
#: ``credit_hybrid`` crosses 230 times a query; the TLS pair differs from
#: ``hhi_mpc_only`` by the one layer the ``mesh.*`` probes time directly; and
#: ``sumcount_c2`` runs five threads and processes on two cores, which
#: measures the scheduler.
EXTRA_WORKLOADS: list[tuple[str, str]] = [
    ("sumcount_small",
     "two-party concat -> sum/count over 60 rows/party, default config: per-query fixed "
     "cost in service/gateway/control frames (ROADMAP item 5's exit criterion)"),
    ("hhi_mpc_only_tls",
     "hhi_mpc_only over mutual TLS with the pickle fallback off: the on/off pair for TLS "
     "on a byte-heavy plan"),
    ("sumcount_c2",
     "sumcount_small with two closed-loop clients on one session: a sequential win bought "
     "with a global lock or a removed worker shows here"),
]
ALL_WORKLOAD_NAMES = WORKLOAD_NAMES + [name for name, _ in EXTRA_WORKLOADS]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float


#: What a user of the service sees, per workload.  Four metrics of the issue
#: are not here.  ``failed_share`` and ``analytic_s``: a bounded metric must
#: never be 0 and must not repeat exactly, so the first travels as the result
#: line's ``failed``/``attempted`` and the second is the exact per-layer
#: ``analytic_s``.  ``query_p90_ms``: the tail is the first thing the shared
#: host's noise moves (40-50 % between unchanged runs); it is printed and
#: stored where a run holds the 100 samples it needs, and not bounded.  ``compile_ms`` is one layer's time and
#: a hundredth of a query's: it is the per-layer ``core.compile_ms``.
END_TO_END: list[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("cold_query_ms", "ms", "lower", 0.25),
    EndToEnd("query_p50_ms", "ms", "lower", 0.25),
    EndToEnd("queries_per_s", "1/s", "higher", 0.25),
    EndToEnd("wire_bytes_per_query", "B", "lower", 0.03),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.12),
]
END_TO_END_NAMES = [m.name for m in END_TO_END]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: Module the number belongs to.
    layer: str
    #: End-to-end metric it should move ("" = none, reported only).
    moves: str
    #: Workloads on which it should move it.
    on: tuple[str, ...]
    #: Workloads on which it should *not* matter.
    not_on: tuple[str, ...] = ()


_ALL = tuple(ALL_WORKLOAD_NAMES)
_MPC_HEAVY = ("hhi_mpc_only", "hhi_mpc_only_tls")
_SMALL = ("sumcount_small", "sumcount_c2")

PER_LAYER: list[PerLayer] = [
    PerLayer("analytic_s", "s_model", "lower", "core.estimator", "query_p50_ms",
             ("hhi_mpc_only", "credit_hybrid")),
    PerLayer("core.compile_ms", "ms", "lower", "core", "", ()),
    PerLayer("core.dag_nodes", "count", "lower", "core", "query_p50_ms",
             ("hhi_mpc_only", "credit_hybrid")),
    PerLayer("core.mpc_nodes", "count", "lower", "core", "query_p50_ms",
             ("hhi_mpc_only", "credit_hybrid")),
    PerLayer("core.hybrid_nodes", "count", "higher", "core", "query_p50_ms",
             ("credit_hybrid",)),
    PerLayer("service.fingerprint_us", "us", "lower", "runtime.service", "cold_query_ms", _ALL),
    PerLayer("service.plan_cache_hit_rate", "ratio", "higher", "runtime.service",
             "query_p50_ms", ("sumcount_small",)),
    PerLayer("service.overhead_ms", "ms", "lower", "runtime.service", "query_p50_ms",
             ("sumcount_small", "credit_hybrid"), ("hhi_pushdown",)),
    PerLayer("service.overhead_ratio", "ratio", "lower", "runtime.service", "query_p50_ms",
             ("sumcount_small", "credit_hybrid"), ("hhi_pushdown",)),
    PerLayer("service.unexplained_ms", "ms", "lower", "runtime.service", "query_p50_ms", _ALL),
    PerLayer("service.teardown_s", "s", "lower", "runtime.service", "", ()),
    PerLayer("coordinator.oneshot_ms", "ms", "lower", "runtime.coordinator", "", ()),
    PerLayer("gateway.queue_wait_p50_ms", "ms", "lower", "runtime.gateway", "queries_per_s",
             ("sumcount_c2",), ("sumcount_small",)),
    PerLayer("gateway.execute_p50_ms", "ms", "lower", "runtime.gateway", "queries_per_s",
             ("sumcount_c2",)),
    PerLayer("wire.plan_bytes", "B", "lower", "runtime.wire", "cold_query_ms", _ALL),
    PerLayer("wire.plan_encode_us", "us", "lower", "runtime.wire", "cold_query_ms", _ALL),
    PerLayer("wire.plan_decode_us", "us", "lower", "runtime.wire", "cold_query_ms", _ALL),
    PerLayer("wire.sharevec_encode_mb_s", "MB/s", "higher", "runtime.wire", "query_p50_ms",
             _MPC_HEAVY, ("credit_hybrid",) + _SMALL),
    PerLayer("wire.sharevec_decode_mb_s", "MB/s", "higher", "runtime.wire", "query_p50_ms",
             _MPC_HEAVY, ("credit_hybrid",) + _SMALL),
    PerLayer("wire.ctrl_encode_us", "us", "lower", "runtime.wire", "query_p50_ms",
             ("credit_hybrid", "sumcount_small"), ("hhi_pushdown",)),
    PerLayer("wire.ctrl_decode_us", "us", "lower", "runtime.wire", "query_p50_ms",
             ("credit_hybrid", "sumcount_small"), ("hhi_pushdown",)),
    PerLayer("wire.frames_per_query", "count", "lower", "runtime.wire", "query_p50_ms",
             ("credit_hybrid",)),
    PerLayer("mesh.wire_rounds", "count", "lower", "runtime.mesh", "query_p50_ms",
             ("credit_hybrid",), ("hhi_pushdown",)),
    PerLayer("mesh.ms_per_round", "ms", "lower", "runtime.mesh", "query_p50_ms",
             ("credit_hybrid", "sumcount_small")),
    PerLayer("mesh.frame_rtt_us", "us", "lower", "runtime.mesh", "query_p50_ms",
             ("credit_hybrid",), ("hhi_pushdown",)),
    PerLayer("mesh.bulk_mb_s", "MB/s", "higher", "runtime.mesh", "query_p50_ms",
             _MPC_HEAVY, ("hhi_pushdown",)),
    PerLayer("mesh.tls_handshake_ms", "ms", "lower", "runtime.mesh", "setup_s",
             ("hhi_mpc_only_tls",)),
    PerLayer("executor.inproc_ms", "ms", "lower", "runtime.executor", "query_p50_ms", _ALL),
    PerLayer("mpc.multiplications", "count", "lower", "mpc", "query_p50_ms",
             ("hhi_mpc_only", "credit_hybrid")),
    PerLayer("mpc.comparisons", "count", "lower", "mpc", "query_p50_ms",
             ("hhi_mpc_only", "credit_hybrid")),
    PerLayer("mpc.analytic_rounds", "count", "lower", "mpc", "query_p50_ms",
             ("hhi_mpc_only", "credit_hybrid")),
    PerLayer("mpc.analytic_bytes", "B", "lower", "mpc", "query_p50_ms",
             ("hhi_mpc_only", "credit_hybrid")),
    PerLayer("mpc.share_ns_per_elem", "ns", "lower", "mpc.secretshare", "query_p50_ms",
             _MPC_HEAVY, ("hhi_pushdown",) + _SMALL),
    PerLayer("mpc.open_ns_per_elem", "ns", "lower", "mpc.secretshare", "query_p50_ms",
             _MPC_HEAVY, ("hhi_pushdown",) + _SMALL),
    PerLayer("mpc.mul_ns_per_elem", "ns", "lower", "mpc.secretshare", "query_p50_ms",
             _MPC_HEAVY, ("hhi_pushdown",) + _SMALL),
    PerLayer("mpc.less_than_ns_per_elem", "ns", "lower", "mpc.secretshare", "query_p50_ms",
             _MPC_HEAVY, ("hhi_pushdown",) + _SMALL),
    PerLayer("mpc.triple_deal_ns_per_elem", "ns", "lower", "mpc.secretshare", "query_p50_ms",
             ("hhi_mpc_only",), ("credit_hybrid",)),
    PerLayer("mpc.shuffle_ns_per_elem", "ns", "lower", "mpc.oblivious", "query_p50_ms",
             ("hhi_mpc_only", "credit_hybrid"), ("hhi_pushdown",)),
    PerLayer("hybrid.leakage_events", "count", "lower", "hybrid", "", ()),
    PerLayer("exec.filter_ns_per_row", "ns", "lower", "exec.kernels", "query_p50_ms",
             ("hhi_pushdown",), tuple(w for w in _ALL if w != "hhi_pushdown")),
    PerLayer("exec.group_ns_per_row", "ns", "lower", "exec.kernels", "query_p50_ms",
             ("hhi_pushdown",), tuple(w for w in _ALL if w != "hhi_pushdown")),
    PerLayer("exec.join_ns_per_row", "ns", "lower", "exec.kernels", "query_p50_ms",
             ("hhi_pushdown",), tuple(w for w in _ALL if w != "hhi_pushdown")),
    PerLayer("exec.sort_ns_per_row", "ns", "lower", "exec.kernels", "query_p50_ms",
             ("hhi_pushdown",), tuple(w for w in _ALL if w != "hhi_pushdown")),
    PerLayer("proc.cpu_ms_per_query", "ms", "lower", "processes", "query_p50_ms",
             ("credit_hybrid",)),
    PerLayer("proc.agent_peak_rss_mb", "MB", "lower", "processes", "peak_rss_mb",
             ("hhi_pushdown", "hhi_mpc_only")),
    PerLayer("trace.overhead_pct", "%", "lower", "harness", "", ()),
]
PER_LAYER_NAMES = [m.name for m in PER_LAYER]

#: Metrics that must repeat exactly between two runs with the same seed.
EXACT = (
    "analytic_s", "core.dag_nodes", "core.mpc_nodes", "core.hybrid_nodes",
    "mesh.wire_rounds", "mpc.multiplications", "mpc.comparisons",
    "mpc.analytic_rounds", "mpc.analytic_bytes", "hybrid.leakage_events",
)

#: A p90 needs ten samples beyond it.
MIN_P90_SAMPLES = 100


def benchmark_json(command: list[str], paths: list[str], run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document these tables define."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [m._asdict() for m in END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (nearest rank, no interpolation).

    Refuses a percentile the sample cannot support: fewer than ten samples
    beyond it would make the tail a report of one or two outliers.
    """
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    n = len(samples)
    beyond = n * (100 - p) / 100
    if beyond < 10:
        raise ValueError(
            f"p{p:g} needs at least {math.ceil(1000 / (100 - p))} samples "
            f"(ten beyond it); have {n}"
        )
    ordered = sorted(samples)
    return ordered[math.ceil(n * p / 100) - 1]
