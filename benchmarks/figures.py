"""The series behind the paper's figures (§7) and the ablations.

Each ``series_*`` function returns the data behind one figure: a list of
``{"records": n, "<system>": seconds-or-None, ...}`` rows, where ``None``
means the system could not complete that point (out of memory or past the
experiment's timeout), matching how the paper's plots truncate.

The numbers come from the plan cost estimator — which prices the very same
compiled plans the tests execute by running them, executor and all, on row
counts alone (``repro.mpc.shape``) — so the *shape* of every curve (who
wins, by what factor, where a system stops scaling) is a property of the
implemented system, not of hard-coded data.  ``tests/test_figures.py`` pins
every point and asserts the paper's claim about each figure.

Run as a script to write every series to ``benchmarks/results/``::

    PYTHONPATH=src python benchmarks/figures.py
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import repro as cc
from repro.baselines.smcql import SMCQLBaseline
from repro.core.config import CompilationConfig
from repro.core.lang import QueryContext
from repro.model.estimator import EstimatedOOM, EstimatorParams, PlanEstimator
from repro.model.prices import (
    GarbledCostModel,
    PythonCostModel,
    SharemindCostModel,
    SparkCostModel,
)
from repro.queries import (
    aspirin_count_query,
    comorbidity_query,
    credit_card_regulation_query,
    market_concentration_query,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: The paper's experiments run on a two-hour budget; points that exceed it
#: are reported as "did not finish" (None).
EXPERIMENT_TIMEOUT_SECONDS = 2 * 3600.0

PA, PB, PC = cc.Party("mpc.a.com"), cc.Party("mpc.b.com"), cc.Party("mpc.c.org")
KV_COLUMNS = [cc.Column("key", cc.INT), cc.Column("value", cc.INT)]


#: The price lists of the paper's testbed: Conclave's local work runs on a
#: small Spark cluster per party, the MPC-only baselines' on one core.
SPARK, PYTHON = SparkCostModel(), PythonCostModel()
SHAREMIND, OBLIV_C = SharemindCostModel(), GarbledCostModel()


def mpc_only_config() -> CompilationConfig:
    """Configuration that forces the whole query under MPC (the 'framework
    only' baselines of Figures 1, 4 and 6)."""
    return CompilationConfig(
        enable_push_down=False,
        enable_push_up=False,
        enable_hybrid_operators=False,
        enable_sort_elimination=False,
    )


def conclave_config() -> CompilationConfig:
    """Full Conclave: every optimization enabled (priced with ``SPARK``)."""
    return CompilationConfig()


def estimate_or_none(
    compiled,
    params: EstimatorParams | None = None,
    *,
    cleartext=PYTHON,
    mpc=SHAREMIND,
    timeout: float = EXPERIMENT_TIMEOUT_SECONDS,
) -> float | None:
    """Estimate a plan's runtime under the price lists ``cleartext`` and
    ``mpc``; None when it OOMs or exceeds the timeout."""
    params = params or EstimatorParams()
    params.timeout_seconds = timeout
    try:
        estimate = PlanEstimator(params, cleartext=cleartext, mpc=mpc).estimate(compiled)
    except EstimatedOOM:
        return None
    if estimate.timed_out:
        return None
    return estimate.simulated_seconds


def write_series(name: str, header: Sequence[str], rows: list[dict]) -> Path:
    """Write a figure's series to ``benchmarks/results/<name>.txt``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    labels = [value for row in rows for value in row.values() if isinstance(value, str)]
    col_width = max([16, *(len(label) + 2 for label in labels)])
    lines = ["".join(f"{h:>{col_width}}" for h in header)]
    for row in rows:
        cells = []
        for h in header:
            value = row.get(h)
            if value is None:
                cells.append(f"{'DNF':>{col_width}}")
            elif isinstance(value, float):
                cells.append(f"{value:>{col_width}.1f}")
            else:
                cells.append(f"{value:>{col_width}}")
        lines.append("".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


# -- Figure 1: single-operator microbenchmarks ---------------------------------------------------


def _single_operator_query(op: str, total_records: int, parties, single_owner: bool):
    owners = [parties[0]] * len(parties) if single_owner else parties
    per_party = max(1, total_records // len(parties))
    with QueryContext() as ctx:
        tables = [
            ctx.new_table(f"t{i}", KV_COLUMNS, at=p, estimated_rows=per_party)
            for i, p in enumerate(owners)
        ]
        combined = ctx.concat(tables) if len(tables) > 1 else tables[0]
        if op == "sum":
            out = combined.aggregate(aggs={"total": cc.SUM("value")})
        elif op == "project":
            out = combined.project(["key"])
        elif op == "join":
            probe = ctx.new_table(
                "probe", KV_COLUMNS, at=owners[0], estimated_rows=per_party
            )
            out = combined.join(probe, on="key")
        else:
            raise ValueError(f"unknown microbenchmark operator {op!r}")
        out.collect("out", to=[parties[0]])
    return ctx


#: Figure 1's sizes per operator: each panel reaches past the point where
#: Obliv-C runs out of memory (~30k records for a join, a few hundred
#: thousand for a projection).
FIG1_SIZES = {
    "sum": (10, 1_000, 100_000, 10_000_000),
    "join": (10, 1_000, 30_000, 100_000, 10_000_000),
    "project": (10, 1_000, 100_000, 300_000, 10_000_000),
}


def series_fig1(op: str) -> list[dict]:
    """Figure 1a/b/c: insecure Spark vs Sharemind vs Obliv-C for one operator."""
    rows = []
    for total in FIG1_SIZES[op]:
        row: dict = {"records": total}
        # Insecure cleartext baseline: one Spark job over the combined data.
        spark_query = _single_operator_query(op, total, [PA, PB, PC], single_owner=True)
        row["spark"] = estimate_or_none(
            cc.compile_query(spark_query, conclave_config()),
            EstimatorParams(join_selectivity=1.0),
            cleartext=SPARK,
        )
        # Sharemind: three computing parties, whole query under MPC.
        sm_query = _single_operator_query(op, total, [PA, PB, PC], single_owner=False)
        row["sharemind"] = estimate_or_none(cc.compile_query(sm_query, mpc_only_config()))
        # Obliv-C: two computing parties, whole query under MPC.
        oc_query = _single_operator_query(op, total, [PA, PB], single_owner=False)
        row["obliv-c"] = estimate_or_none(
            cc.compile_query(oc_query, mpc_only_config()), mpc=OBLIV_C
        )
        rows.append(row)
    return rows


# -- Figure 4: market concentration -----------------------------------------------------------------


def series_fig4(
    sizes: Sequence[int] = (10, 1_000, 100_000, 10_000_000, 1_300_000_000)
) -> list[dict]:
    """Figure 4: HHI query — Sharemind-only vs insecure Spark vs Conclave."""
    rows = []
    for total in sizes:
        per_party = max(1, total // 3)
        params = EstimatorParams(
            filter_selectivity=0.98, distinct_fraction=min(1.0, 3 / per_party)
        )
        row: dict = {"records": total}

        conclave = cc.compile_query(
            market_concentration_query(rows_per_party=per_party).context, conclave_config()
        )
        row["conclave"] = estimate_or_none(conclave, params, cleartext=SPARK)

        sharemind_only = cc.compile_query(
            market_concentration_query(rows_per_party=per_party).context, mpc_only_config()
        )
        row["sharemind"] = estimate_or_none(sharemind_only, params)

        # Insecure Spark: all trips at one party, joint nine-node cluster
        # (three parties' worth of cores).
        insecure_spec = market_concentration_query(
            party_names=["joint.cluster", "joint.cluster2", "joint.cluster3"],
            rows_per_party=per_party,
        )
        insecure = cc.compile_query(insecure_spec.context, conclave_config())
        estimator = PlanEstimator(
            EstimatorParams(
                filter_selectivity=0.98,
                distinct_fraction=min(1.0, 3 / per_party),
                timeout_seconds=EXPERIMENT_TIMEOUT_SECONDS,
            ),
            cleartext=SparkCostModel(total_cores=18),
        )
        try:
            estimate = estimator.estimate(insecure)
            row["insecure-spark"] = None if estimate.timed_out else estimate.simulated_seconds
        except EstimatedOOM:
            row["insecure-spark"] = None
        rows.append(row)
    return rows


# -- Figure 5: hybrid operator microbenchmarks ---------------------------------------------------------


def _two_relation_join_query(per_party: int, trust, public: bool):
    key_col = cc.Column("key", cc.INT, trust=trust, public=public)
    schema = [key_col, cc.Column("value", cc.INT)]
    with QueryContext() as ctx:
        left = ctx.new_table("left", schema, at=PB, estimated_rows=per_party)
        right = ctx.new_table("right", schema, at=PC, estimated_rows=per_party)
        joined = left.join(right, on="key")
        joined.collect("out", to=[PB])
    return ctx


def _grouped_agg_query(per_party: int, trust):
    schema = [cc.Column("key", cc.INT, trust=trust), cc.Column("value", cc.INT)]
    with QueryContext() as ctx:
        t1 = ctx.new_table("t1", schema, at=PB, estimated_rows=per_party)
        t2 = ctx.new_table("t2", schema, at=PC, estimated_rows=per_party)
        agg = ctx.concat([t1, t2]).aggregate(group=["key"], aggs={"total": cc.SUM("value")})
        agg.collect("out", to=[PB])
    return ctx


def series_fig5_join(sizes: Sequence[int] = (10, 1_000, 10_000, 200_000, 2_000_000)) -> list[dict]:
    """Figure 5a: Sharemind MPC join vs Conclave hybrid join vs public join."""
    rows = []
    params = EstimatorParams(join_selectivity=1.0)
    for total in sizes:
        per_party = max(1, total // 2)
        row: dict = {"records": total}
        plain = cc.compile_query(
            _two_relation_join_query(per_party, trust=[], public=False), mpc_only_config()
        )
        row["sharemind-join"] = estimate_or_none(plain, params)
        hybrid = cc.compile_query(
            _two_relation_join_query(per_party, trust=[PA], public=False), conclave_config()
        )
        row["hybrid-join"] = estimate_or_none(hybrid, params, cleartext=SPARK)
        public = cc.compile_query(
            _two_relation_join_query(per_party, trust=[], public=True), conclave_config()
        )
        row["public-join"] = estimate_or_none(public, params, cleartext=SPARK)
        rows.append(row)
    return rows


def series_fig5_agg(sizes: Sequence[int] = (10, 1_000, 10_000, 100_000)) -> list[dict]:
    """Figure 5b: Sharemind MPC aggregation vs Conclave hybrid aggregation."""
    rows = []
    params = EstimatorParams(distinct_fraction=0.1)
    for total in sizes:
        per_party = max(1, total // 2)
        row: dict = {"records": total}
        plain = cc.compile_query(_grouped_agg_query(per_party, trust=[]), mpc_only_config())
        row["sharemind-agg"] = estimate_or_none(plain, params)
        hybrid = cc.compile_query(
            _grouped_agg_query(per_party, trust=[PA]), CompilationConfig(enable_push_down=False)
        )
        row["hybrid-agg"] = estimate_or_none(hybrid, params, cleartext=SPARK)
        rows.append(row)
    return rows


# -- Figure 6: credit-card regulation query -------------------------------------------------------------


def series_fig6(sizes: Sequence[int] = (10, 1_000, 3_000, 30_000, 300_000)) -> list[dict]:
    """Figure 6: credit-card query — Sharemind-only vs Conclave (hybrid)."""
    rows = []
    for total in sizes:
        demo_rows = max(1, total // 3)
        agency_rows = max(1, total // 3)
        params = EstimatorParams(distinct_fraction=0.01, join_selectivity=1.0)
        row: dict = {"records": total}
        conclave = cc.compile_query(
            credit_card_regulation_query(
                rows_demographics=demo_rows, rows_per_agency=agency_rows
            ).context,
            conclave_config(),
        )
        row["conclave"] = estimate_or_none(conclave, params, cleartext=SPARK)
        sharemind_only = cc.compile_query(
            credit_card_regulation_query(
                rows_demographics=demo_rows, rows_per_agency=agency_rows
            ).context,
            mpc_only_config(),
        )
        row["sharemind"] = estimate_or_none(sharemind_only, params)
        rows.append(row)
    return rows


# -- Figure 7: comparison with SMCQL -----------------------------------------------------------------------


def series_fig7_aspirin(
    sizes: Sequence[int] = (10, 1_000, 40_000, 400_000, 4_000_000), overlap: float = 0.02
) -> list[dict]:
    """Figure 7a: aspirin count — Conclave vs SMCQL."""
    smcql = SMCQLBaseline()
    rows = []
    for per_party in sizes:
        row: dict = {"records": per_party}
        spec = aspirin_count_query(rows_per_relation=per_party)
        config = CompilationConfig(push_down_private_filters=False)
        compiled = cc.compile_query(spec.context, config)
        params = EstimatorParams(
            join_selectivity=overlap, filter_selectivity=0.2, distinct_fraction=0.5
        )
        row["conclave"] = estimate_or_none(compiled, params, cleartext=SPARK)
        smcql_seconds = smcql.estimate_aspirin_count(per_party, patient_overlap=overlap)
        row["smcql"] = smcql_seconds if smcql_seconds <= EXPERIMENT_TIMEOUT_SECONDS else None
        rows.append(row)
    return rows


def series_fig7_comorbidity(
    sizes: Sequence[int] = (10, 1_000, 10_000, 100_000), distinct_fraction: float = 0.1
) -> list[dict]:
    """Figure 7b: comorbidity — Conclave vs SMCQL (sizes are rows per party)."""
    smcql = SMCQLBaseline()
    rows = []
    for per_party in sizes:
        row: dict = {"records": per_party}
        spec = comorbidity_query(rows_per_relation=per_party)
        compiled = cc.compile_query(spec.context, conclave_config())
        params = EstimatorParams(distinct_fraction=distinct_fraction)
        row["conclave"] = estimate_or_none(compiled, params, cleartext=SPARK)
        smcql_seconds = smcql.estimate_comorbidity(per_party, distinct_fraction)
        row["smcql"] = smcql_seconds if smcql_seconds <= EXPERIMENT_TIMEOUT_SECONDS else None
        rows.append(row)
    return rows


# -- ablations: what each optimization contributes ------------------------------------------------


def _sort_over_concat_query(rows_per_party: int):
    kv = [cc.Column("k"), cc.Column("v")]
    with QueryContext() as ctx:
        t1 = ctx.new_table("t1", kv, at=PA, estimated_rows=rows_per_party)
        t2 = ctx.new_table("t2", kv, at=PB, estimated_rows=rows_per_party)
        ctx.concat([t1, t2]).sort_by("v").collect("out", to=[PA])
    return ctx


def series_ablations() -> list[dict]:
    """One row per optimization: the plan priced with it disabled and enabled.

    The MPC-frontier push-down on the HHI query (3M records) and the hybrid
    operators on the credit-card query (30k records) are priced in
    simulated seconds; the sort push-up on a sort over two parties' 100k
    rows each in MPC seconds, the work it moves out of MPC.  The first two
    price local work on Spark."""
    per_party = 1_000_000
    cases = [
        (
            "mpc-frontier-push-down", 3 * per_party, "simulated_seconds",
            lambda: market_concentration_query(rows_per_party=per_party).context,
            EstimatorParams(filter_selectivity=0.98, distinct_fraction=3 / per_party), SPARK,
            CompilationConfig(enable_push_down=False), conclave_config(),
        ),
        (
            "hybrid-operators", 30_000, "simulated_seconds",
            lambda: credit_card_regulation_query(
                rows_demographics=10_000, rows_per_agency=10_000
            ).context,
            EstimatorParams(distinct_fraction=0.01, join_selectivity=1.0), SPARK,
            CompilationConfig(enable_hybrid_operators=False), conclave_config(),
        ),
        (
            "sort-push-up", 200_000, "mpc_seconds", lambda: _sort_over_concat_query(100_000),
            EstimatorParams(), PYTHON, CompilationConfig(), CompilationConfig(enable_sort_pushup=True),
        ),
    ]
    rows = []
    for optimization, records, measure, build, params, cleartext, disabled, enabled in cases:
        estimator = PlanEstimator(params, cleartext=cleartext)
        disabled_s, enabled_s = (
            getattr(estimator.estimate(cc.compile_query(build(), config)), measure)
            for config in (disabled, enabled)
        )
        rows.append({
            "optimization": optimization, "records": records, "disabled": disabled_s,
            "enabled": enabled_s, "speedup": disabled_s / enabled_s,
        })
    return rows


# -- every series, and the script that writes them -------------------------------------------------


class Figure(NamedTuple):
    """One series and the results file it is written to."""

    file: str
    header: tuple[str, ...]
    series: Callable[[], list[dict]]


_FIG1 = ("records", "spark", "sharemind", "obliv-c")
_VS_SMCQL = ("records", "smcql", "conclave")

#: Figure panel -> its series.
FIGURES = {
    "1a": Figure("fig1a_aggregation", _FIG1, lambda: series_fig1("sum")),
    "1b": Figure("fig1b_join", _FIG1, lambda: series_fig1("join")),
    "1c": Figure("fig1c_project", _FIG1, lambda: series_fig1("project")),
    "4": Figure(
        "fig4_market_concentration",
        ("records", "sharemind", "insecure-spark", "conclave"),
        series_fig4,
    ),
    "5a": Figure(
        "fig5a_hybrid_join",
        ("records", "sharemind-join", "hybrid-join", "public-join"),
        series_fig5_join,
    ),
    "5b": Figure(
        "fig5b_hybrid_aggregation", ("records", "sharemind-agg", "hybrid-agg"), series_fig5_agg
    ),
    "6": Figure("fig6_credit_card", ("records", "sharemind", "conclave"), series_fig6),
    "7a": Figure("fig7a_aspirin_count", _VS_SMCQL, series_fig7_aspirin),
    "7b": Figure("fig7b_comorbidity", _VS_SMCQL, series_fig7_comorbidity),
    "ablations": Figure(
        "ablations",
        ("optimization", "records", "disabled", "enabled", "speedup"),
        series_ablations,
    ),
}


def main() -> None:
    for figure in FIGURES.values():
        print(write_series(figure.file, figure.header, figure.series()))


if __name__ == "__main__":
    main()
