"""Figure 1: single-operator microbenchmarks.

Reproduces the three panels of Figure 1 — aggregation (SUM), JOIN and
PROJECT over random integers — comparing insecure Spark, Sharemind
(secret sharing, three parties) and Obliv-C (garbled circuits, two
parties).  Expected shape: the cleartext engine handles tens of millions of
records in seconds while both MPC frameworks stop scaling at 10^3–10^5
records (Obliv-C runs out of memory on the join at ~30k records and on the
projection at a few hundred thousand; Sharemind's sharing/storage overhead
pushes it past ten minutes beyond a few million records).

Each ``test_fig1_*_series`` benchmark regenerates the corresponding panel's
data (written to ``benchmarks/results/fig1_*.txt``) and asserts the shape;
the ``test_functional_*`` benchmarks measure the real (wall-clock) cost of
the functional substrates at small scale.
"""

import pytest

from figures import (
    EXPERIMENT_TIMEOUT_SECONDS,
    mpc_only_config,
    series_fig1,
    write_series,
)

import repro as cc
from repro.mpc.sharemind import SharemindBackend
from repro.workloads.generators import random_integers_table

HEADER = ["records", "spark", "sharemind", "obliv-c"]


def _assert_fig1_shape(rows, mpc_dies_by: int):
    by_records = {row["records"]: row for row in rows}
    largest = max(by_records)
    # Cleartext processing stays interactive at the largest size.
    assert by_records[largest]["spark"] is not None
    assert by_records[largest]["spark"] < 60
    # Both MPC frameworks are either dead (None) or far slower than the
    # cleartext engine once the input exceeds `mpc_dies_by` records.
    for records, row in by_records.items():
        if records >= mpc_dies_by:
            for system in ("sharemind", "obliv-c"):
                value = row[system]
                assert value is None or value > 5 * row["spark"]


@pytest.mark.benchmark(group="fig1-series")
def test_fig1a_aggregation_series(benchmark):
    rows = benchmark(lambda: series_fig1("sum", sizes=(10, 1_000, 100_000, 10_000_000)))
    write_series("fig1a_aggregation", HEADER, rows)
    _assert_fig1_shape(rows, mpc_dies_by=100_000)


@pytest.mark.benchmark(group="fig1-series")
def test_fig1b_join_series(benchmark):
    rows = benchmark(lambda: series_fig1("join", sizes=(10, 1_000, 30_000, 10_000_000)))
    write_series("fig1b_join", HEADER, rows)
    _assert_fig1_shape(rows, mpc_dies_by=1_000)
    # Obliv-C runs out of memory on the join around 30k records (Figure 1b).
    oom_points = [row for row in rows if row["records"] >= 30_000]
    assert all(row["obliv-c"] is None for row in oom_points)


@pytest.mark.benchmark(group="fig1-series")
def test_fig1c_project_series(benchmark):
    rows = benchmark(
        lambda: series_fig1("project", sizes=(10, 1_000, 100_000, 300_000, 10_000_000))
    )
    write_series("fig1c_project", HEADER, rows)
    _assert_fig1_shape(rows, mpc_dies_by=10_000_000)
    # Obliv-C's circuit state exhausts memory at a few hundred thousand records.
    assert any(row["obliv-c"] is None for row in rows if row["records"] >= 300_000)
    # Sharemind finishes but needs more than ten minutes well before 10M.
    sharemind_10m = [row["sharemind"] for row in rows if row["records"] == 10_000_000][0]
    assert sharemind_10m is None or sharemind_10m > 600


# -- functional microbenchmarks (real wall-clock on the implemented substrates) -----------------


@pytest.mark.benchmark(group="fig1-functional")
@pytest.mark.parametrize("records", [60, 120])
def test_functional_sharemind_aggregation(benchmark, records):
    table = random_integers_table(records, ["key", "value"], low=0, high=50, seed=2)

    def run():
        backend = SharemindBackend(["p1", "p2", "p3"], seed=1)
        handle = backend.ingest(table)
        return backend.reveal(backend.aggregate(handle, "key", "value", "sum", "total"))

    result = benchmark(run)
    assert result.num_rows <= 50


@pytest.mark.benchmark(group="fig1-functional")
@pytest.mark.parametrize("records", [40, 80])
def test_functional_sharemind_join(benchmark, records):
    left = random_integers_table(records, ["key", "value"], low=0, high=20, seed=3)
    right = random_integers_table(records, ["key", "value"], low=0, high=20, seed=4)

    def run():
        backend = SharemindBackend(["p1", "p2", "p3"], seed=1)
        lh, rh = backend.ingest(left), backend.ingest(right)
        return backend.reveal(backend.join(lh, rh, "key", "key"))

    benchmark(run)
