"""Ablation benchmarks: the contribution of each Conclave optimization.

DESIGN.md calls out three design choices whose effect is worth isolating:

* the MPC-frontier push-down (split aggregations, distributed filters)
  — measured on the market-concentration query;
* the hybrid operators (hybrid join + hybrid aggregation)
  — measured on the credit-card regulation query;
* the sort push-up extension (local sorts + oblivious merge)
  — measured on a sort-over-concat query.

Each benchmark compiles the query with the optimization on and off, prices
both plans with the cost estimator at a size where the difference matters,
and records the speedup in ``benchmarks/results/ablations.txt``.
"""

import pytest

from figures import conclave_config, write_series

import repro as cc
from repro.core.config import CompilationConfig
from repro.core.lang import QueryContext
from repro.model.estimator import EstimatorParams, PlanEstimator
from repro.queries import credit_card_regulation_query, market_concentration_query

HEADER = ["optimization", "records", "disabled", "enabled", "speedup"]
_ROWS: list[dict] = []

PA, PB = cc.Party("mpc.a.com"), cc.Party("mpc.b.com")


def _record(optimization: str, records: int, disabled: float, enabled: float):
    _ROWS.append(
        {
            "optimization": optimization,
            "records": records,
            "disabled": disabled,
            "enabled": enabled,
            "speedup": disabled / enabled,
        }
    )
    write_series("ablations", HEADER, _ROWS)


@pytest.mark.benchmark(group="ablations")
def test_ablation_push_down_on_market_query(benchmark):
    rows_per_party = 1_000_000
    params = EstimatorParams(filter_selectivity=0.98, distinct_fraction=3 / rows_per_party)

    def run():
        enabled = cc.compile_query(
            market_concentration_query(rows_per_party=rows_per_party).context,
            conclave_config(),
        )
        disabled = cc.compile_query(
            market_concentration_query(rows_per_party=rows_per_party).context,
            CompilationConfig(enable_push_down=False, cleartext_backend="spark"),
        )
        estimator = PlanEstimator(params)
        return (
            estimator.estimate(disabled).simulated_seconds,
            estimator.estimate(enabled).simulated_seconds,
        )

    disabled_s, enabled_s = benchmark(run)
    _record("mpc-frontier-push-down", 3 * rows_per_party, disabled_s, enabled_s)
    assert enabled_s < disabled_s / 50


@pytest.mark.benchmark(group="ablations")
def test_ablation_hybrid_operators_on_credit_query(benchmark):
    total = 30_000
    params = EstimatorParams(distinct_fraction=0.01, join_selectivity=1.0)

    def run():
        enabled = cc.compile_query(
            credit_card_regulation_query(
                rows_demographics=total // 3, rows_per_agency=total // 3
            ).context,
            conclave_config(),
        )
        disabled = cc.compile_query(
            credit_card_regulation_query(
                rows_demographics=total // 3, rows_per_agency=total // 3
            ).context,
            CompilationConfig(enable_hybrid_operators=False, cleartext_backend="spark"),
        )
        estimator = PlanEstimator(params)
        return (
            estimator.estimate(disabled).simulated_seconds,
            estimator.estimate(enabled).simulated_seconds,
        )

    disabled_s, enabled_s = benchmark(run)
    _record("hybrid-operators", total, disabled_s, enabled_s)
    assert enabled_s < disabled_s / 10


@pytest.mark.benchmark(group="ablations")
def test_ablation_sort_pushup(benchmark):
    rows_per_party = 100_000
    kv = [cc.Column("k"), cc.Column("v")]

    def build():
        with QueryContext() as ctx:
            t1 = ctx.new_table("t1", kv, at=PA, estimated_rows=rows_per_party)
            t2 = ctx.new_table("t2", kv, at=PB, estimated_rows=rows_per_party)
            ordered = ctx.concat([t1, t2]).sort_by("v")
            ordered.collect("out", to=[PA])
        return ctx

    def run():
        enabled = cc.compile_query(build(), CompilationConfig(enable_sort_pushup=True))
        disabled = cc.compile_query(build(), CompilationConfig())
        estimator = PlanEstimator()
        return (
            estimator.estimate(disabled).mpc_seconds,
            estimator.estimate(enabled).mpc_seconds,
        )

    disabled_s, enabled_s = benchmark(run)
    _record("sort-push-up", 2 * rows_per_party, disabled_s, enabled_s)
    assert enabled_s < disabled_s
