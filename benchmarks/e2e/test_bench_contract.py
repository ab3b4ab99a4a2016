"""The benchmark's contract, checked without spawning a process (tier-1, < 2 s)."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import contract  # noqa: E402
import oracles  # noqa: E402

from repro.data.schema import ColumnDef, Schema  # noqa: E402
from repro.data.table import Table  # noqa: E402
from repro.workloads import CreditWorkload, TaxiWorkload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_contract_tables():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    expected = contract.benchmark_json(
        BENCHMARK["command"], BENCHMARK["paths"], BENCHMARK["run_seconds"])
    assert BENCHMARK == expected
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"][-1] == "benchmarks/e2e/run.py"


def test_names_units_and_counts_are_within_limits():
    sections = [BENCHMARK["workloads"], BENCHMARK["end_to_end"], BENCHMARK["per_layer"]]
    names = [entry["name"] for section in sections for entry in section]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60


def test_every_layer_metric_targets_an_existing_metric_and_workload():
    for metric in contract.PER_LAYER:
        assert metric.moves == "" or metric.moves in contract.END_TO_END_NAMES, metric.name
        assert set(metric.on) | set(metric.not_on) <= set(contract.ALL_WORKLOAD_NAMES), metric.name
        assert not set(metric.on) & set(metric.not_on), metric.name
        assert bool(metric.moves) == bool(metric.on), metric.name
    assert set(contract.EXACT) <= set(contract.PER_LAYER_NAMES)


def test_percentile_refuses_a_tail_the_sample_cannot_support():
    samples = list(range(1, 101))
    assert contract.percentile(samples, 90) == 90
    assert contract.percentile(samples, 50) == 50
    with pytest.raises(ValueError, match="at least 100 samples"):
        contract.percentile(samples[:99], 90)
    with pytest.raises(ValueError):
        contract.percentile(samples, 99)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracles_agree_with_the_workload_references(seed):
    taxi = TaxiWorkload(seed=seed)
    trips = taxi.party_tables(3, 200)
    (_, [(hhi,)]) = oracles.hhi([t.columns() for t in trips])
    # The oracle models the backend's 6-decimal fixed point; the reference is exact.
    assert hhi == pytest.approx(taxi.reference_hhi(trips), abs=5e-6)

    credit = CreditWorkload(seed=seed)
    demographics, agencies = credit.generate(200, 200, 2)
    expected = oracles.avg_score_by_zip(
        demographics.columns(), [a.columns() for a in agencies])
    assert oracles.matches(credit.reference_average_scores(demographics, agencies), expected)

    rng = np.random.default_rng(seed)
    schema = Schema([ColumnDef("k"), ColumnDef("v")])
    parts = [Table(schema, [rng.integers(0, 6, 200), rng.integers(-40, 40, 200)])
             for _ in range(2)]
    union = parts[0].concat(parts[1])
    reference = union.aggregate(["k"], "v", "sum", "s").join(
        union.aggregate(["k"], None, "count", "n"), ["k"], ["k"])
    assert oracles.matches(reference, oracles.sum_count_by_key([p.columns() for p in parts]))


def test_matches_rejects_wrong_missing_and_extra_rows():
    schema = Schema([ColumnDef("k"), ColumnDef("s"), ColumnDef("n")])
    table = Table.from_rows(schema, [(1, 10, 2), (2, 5, 1)])
    names = ["k", "s", "n"]
    assert oracles.matches(table, (names, [(2, 5, 1), (1, 10, 2)]))
    assert not oracles.matches(table, (names, [(2, 5, 1), (1, 11, 2)]))
    assert not oracles.matches(table, (names, [(2, 5, 1)]))
    assert not oracles.matches(table, (names, [(2, 5, 1), (1, 10, 2), (3, 0, 0)]))
    assert not oracles.matches(table, (["k", "s"], [(2, 5), (1, 10)]))
