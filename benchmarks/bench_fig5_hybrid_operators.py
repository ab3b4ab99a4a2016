"""Figure 5: hybrid operator microbenchmarks.

Panel (a): an MPC join under Sharemind versus Conclave's hybrid join (STP
learns only the shuffled key columns) versus the public join (keys public,
no oblivious work at all).  Panel (b): an MPC grouped aggregation versus the
hybrid aggregation.  Expected shape: the hybrid operators turn the
super-linear oblivious costs into near-linear ones — a hybrid join over
200k records completes in roughly ten minutes while the pure MPC join
cannot get past a few tens of thousands of records, and the public join
scales further still.
"""

import pytest

from figures import series_fig5_agg, series_fig5_join, write_series

from repro.exec.engine import ColumnarBackend
from repro.hybrid.hybrid_agg import hybrid_aggregate
from repro.hybrid.hybrid_join import hybrid_join
from repro.hybrid.public_join import public_join
from repro.hybrid.stp import SelectivelyTrustedParty
from repro.mpc.sharemind import SharemindBackend
from repro.workloads.generators import uniform_key_value_table

JOIN_HEADER = ["records", "sharemind-join", "hybrid-join", "public-join"]
AGG_HEADER = ["records", "sharemind-agg", "hybrid-agg"]


@pytest.mark.benchmark(group="fig5-series")
def test_fig5a_join_series(benchmark):
    rows = benchmark(series_fig5_join)
    write_series("fig5a_hybrid_join", JOIN_HEADER, rows)
    by_records = {row["records"]: row for row in rows}

    # The MPC join cannot complete the 200k point within the experiment budget.
    assert by_records[200_000]["sharemind-join"] is None
    # The hybrid join finishes 200k records in roughly ten minutes.
    hybrid_200k = by_records[200_000]["hybrid-join"]
    assert hybrid_200k is not None and hybrid_200k < 15 * 60
    # The public join is cheaper than the hybrid join at every completed size.
    for row in rows:
        if row["hybrid-join"] is not None and row["public-join"] is not None:
            assert row["public-join"] <= row["hybrid-join"]
    # Where all three complete (mid sizes), the hybrid join beats the MPC join.
    mid = by_records[10_000]
    assert mid["hybrid-join"] < mid["sharemind-join"] / 7


@pytest.mark.benchmark(group="fig5-series")
def test_fig5b_aggregation_series(benchmark):
    rows = benchmark(series_fig5_agg)
    write_series("fig5b_hybrid_aggregation", AGG_HEADER, rows)
    by_records = {row["records"]: row for row in rows}
    # At 100k records the hybrid aggregation is at least ~7x faster (§1, §7.2).
    top = by_records[100_000]
    assert top["hybrid-agg"] is not None and top["sharemind-agg"] is not None
    assert top["sharemind-agg"] / top["hybrid-agg"] >= 7
    # The MPC aggregation's cost grows super-linearly, the hybrid one stays
    # near-linear: compare growth factors over the last decade.
    growth_mpc = by_records[100_000]["sharemind-agg"] / by_records[10_000]["sharemind-agg"]
    growth_hybrid = by_records[100_000]["hybrid-agg"] / by_records[10_000]["hybrid-agg"]
    assert growth_hybrid < growth_mpc


# -- functional executions of the hybrid protocols -------------------------------------------------


PARTIES = ["mpc.a.com", "mpc.b.com", "mpc.c.org"]


def _stp():
    return SelectivelyTrustedParty("stp.example", ColumnarBackend())


@pytest.mark.benchmark(group="fig5-functional")
@pytest.mark.parametrize("records", [50, 150])
def test_functional_hybrid_join(benchmark, records):
    left = uniform_key_value_table(records, records, seed=1)
    right = uniform_key_value_table(records, records, seed=2)

    def run():
        backend = SharemindBackend(PARTIES, seed=1)
        return hybrid_join(
            backend, _stp(), backend.ingest(left), backend.ingest(right), "key", "key"
        )

    result = benchmark(run)
    assert result.reveal().equals_unordered(left.join(right, ["key"], ["key"]))


@pytest.mark.benchmark(group="fig5-functional")
@pytest.mark.parametrize("records", [50, 150])
def test_functional_mpc_join(benchmark, records):
    left = uniform_key_value_table(records, records, seed=3)
    right = uniform_key_value_table(records, records, seed=4)

    def run():
        backend = SharemindBackend(PARTIES, seed=1)
        return backend.join(backend.ingest(left), backend.ingest(right), "key", "key")

    result = benchmark(run)
    assert result.reveal().equals_unordered(left.join(right, ["key"], ["key"]))


@pytest.mark.benchmark(group="fig5-functional")
@pytest.mark.parametrize("records", [100, 300])
def test_functional_public_join(benchmark, records):
    left = uniform_key_value_table(records, records, seed=5)
    right = uniform_key_value_table(records, records, seed=6)

    def run():
        backend = SharemindBackend(PARTIES, seed=1)
        return public_join(
            backend, _stp(), backend.ingest(left), backend.ingest(right), "key", "key"
        )

    result = benchmark(run)
    assert result.reveal().equals_unordered(left.join(right, ["key"], ["key"]))


@pytest.mark.benchmark(group="fig5-functional")
@pytest.mark.parametrize("records", [60, 150])
def test_functional_hybrid_aggregation(benchmark, records):
    table = uniform_key_value_table(records, max(2, records // 10), seed=7)

    def run():
        backend = SharemindBackend(PARTIES, seed=1)
        return hybrid_aggregate(
            backend, _stp(), backend.ingest(table), "key", "value", "sum", "total"
        )

    result = benchmark(run)
    assert result.reveal().equals_unordered(table.aggregate(["key"], "value", "sum", "total"))


@pytest.mark.benchmark(group="fig5-functional")
@pytest.mark.parametrize("records", [60, 150])
def test_functional_mpc_aggregation(benchmark, records):
    table = uniform_key_value_table(records, max(2, records // 10), seed=8)

    def run():
        backend = SharemindBackend(PARTIES, seed=1)
        return backend.aggregate(backend.ingest(table), "key", "value", "sum", "total")

    result = benchmark(run)
    assert result.reveal().equals_unordered(table.aggregate(["key"], "value", "sum", "total"))
