"""Tests for the per-party CSV workflow (agent-style file-based execution)."""

import pytest

import repro as cc
from repro.core.dispatch import run_query_from_csv
from repro.data.csvio import read_csv, write_csv
from repro.queries import market_concentration_query
from repro.workloads.taxi import TaxiWorkload


@pytest.fixture
def csv_dirs(tmp_path):
    """Write each company's trips to its own directory, agent-style."""
    workload = TaxiWorkload(num_companies=3, zero_fare_fraction=0.05, seed=53)
    tables = workload.party_tables(3, 50)
    spec = market_concentration_query(rows_per_party=50)
    dirs = {}
    for i, party in enumerate(spec.parties):
        party_dir = tmp_path / party
        write_csv(tables[i], party_dir / f"trips_{i}.csv")
        dirs[party] = str(party_dir)
    return spec, dirs, workload, tables


def test_run_query_from_csv_end_to_end(csv_dirs, tmp_path):
    spec, dirs, workload, tables = csv_dirs
    compiled = cc.compile_query(spec.context)
    out_dir = tmp_path / "results"
    result = run_query_from_csv(compiled, dirs, output_dir=str(out_dir))
    hhi = result.outputs["hhi_result"].rows()[0][0]
    assert hhi == pytest.approx(workload.reference_hhi(tables), abs=1e-3)
    # The output was also written as CSV for the recipient.
    written = read_csv(out_dir / "hhi_result.csv")
    assert written.rows()[0][0] == pytest.approx(hhi, abs=1e-6)


def test_run_query_from_csv_without_output_dir(csv_dirs):
    spec, dirs, _, _ = csv_dirs
    compiled = cc.compile_query(spec.context)
    result = run_query_from_csv(compiled, dirs)
    assert "hhi_result" in result.outputs


def test_run_query_from_csv_reads_inputs_with_the_plans_schema(tmp_path):
    """A FLOAT column whose cells all look integral is read as FLOAT, the
    type the plan declares, not inferred as INT and then refused."""
    pa, pb = cc.Party("a.example"), cc.Party("b.example")
    with cc.QueryContext() as ctx:
        columns = [cc.Column("k", cc.INT), cc.Column("v", cc.FLOAT)]
        ra = ctx.new_table("ra", columns, at=pa)
        rb = ctx.new_table("rb", columns, at=pb)
        ctx.concat([ra, rb]).aggregate(group=["k"], aggs={"s": cc.SUM("v")}).collect("out", to=[pa])
    dirs = {}
    for party, name, body in (("a.example", "ra", "k,v\n1,2\n2,3\n"),
                              ("b.example", "rb", "k,v\n1,4\n")):
        (tmp_path / party).mkdir()
        (tmp_path / party / f"{name}.csv").write_text(body)
        dirs[party] = str(tmp_path / party)
    result = run_query_from_csv(cc.compile_query(ctx), dirs)
    assert sorted(result.outputs["out"].rows()) == [(1, 6.0), (2, 3.0)]
