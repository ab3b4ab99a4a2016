"""Differential tests: socket runtime (real per-party processes) vs. simulated.

For every paper example query, executing over ``runtime="sockets"`` — one OS
process per party, all cross-party traffic (including the secret-sharing
rounds) over real TCP connections — must produce byte-identical output
tables, identical MPC operator counts, and an identical MPC work/traffic
profile to the in-process simulated runtime.
"""

import numpy as np
import pytest

import repro as cc
from repro.core.config import CompilationConfig
from repro.core.dispatch import QueryRunner, SecurityError, run_compiled, run_query_from_csv
from repro.core.lang import QueryContext
from repro.data.csvio import write_csv
from repro.data.schema import ColumnDef, Schema
from repro.data.table import Table
from repro.model.prices import SparkCostModel, price
from repro.queries import (
    aspirin_count_query,
    comorbidity_query,
    credit_card_regulation_query,
    market_concentration_query,
)
from repro.runtime import service
from repro.runtime.service import SocketCoordinator, merge_payloads
from repro.workloads.credit import CreditWorkload
from repro.workloads.generators import uniform_key_value_table
from repro.workloads.healthlnk import HealthLNKWorkload
from repro.workloads.taxi import TaxiWorkload


def quickstart_query():
    """The quickstart example's three-party multi-aggregate query."""
    p1, p2, p3 = (
        cc.Party("alpha.example"), cc.Party("beta.example"), cc.Party("gamma.example"),
    )
    schema = [cc.Column("region", cc.INT), cc.Column("amount", cc.INT)]
    with QueryContext() as ctx:
        sales = [
            ctx.new_table(f"sales_{i}", schema, at=p) for i, p in enumerate((p1, p2, p3))
        ]
        paid = ctx.concat(sales).filter(cc.col("amount") > 0)
        per_region = paid.aggregate(
            group=["region"], aggs={"total": cc.SUM("amount"), "n": cc.COUNT()}
        )
        per_region.collect("totals_by_region", to=[p1])
    parties = [p.name for p in (p1, p2, p3)]
    rng = np.random.default_rng(0)
    table_schema = Schema([ColumnDef("region"), ColumnDef("amount")])
    inputs = {
        party: {
            f"sales_{i}": Table(
                table_schema, [rng.integers(0, 5, 40), rng.integers(-50, 500, 40)]
            )
        }
        for i, party in enumerate(parties)
    }
    return ctx, inputs, "totals_by_region"


def paper_query(name):
    """Build (context, inputs, output name) for one paper example query."""
    if name == "market_concentration":
        spec = market_concentration_query(rows_per_party=40)
        tables = TaxiWorkload(num_companies=3, zero_fare_fraction=0.05, seed=17).party_tables(3, 40)
        inputs = {p: {f"trips_{i}": tables[i]} for i, p in enumerate(spec.parties)}
    elif name == "credit_card_regulation":
        demo, agencies = CreditWorkload(num_zip_codes=12, seed=19).generate(
            num_people=60, rows_per_agency=30
        )
        spec = credit_card_regulation_query(rows_demographics=60, rows_per_agency=30)
        regulator, bank_a, bank_b = spec.parties
        inputs = {
            regulator: {"demographics": demo},
            bank_a: {"scores_0": agencies[0]},
            bank_b: {"scores_1": agencies[1]},
        }
    elif name == "aspirin_count":
        workload = HealthLNKWorkload(patient_overlap=0.1, seed=23)
        diagnoses, medications = workload.aspirin_count_inputs(40)
        spec = aspirin_count_query(rows_per_relation=40)
        h1, h2 = spec.parties
        inputs = {
            h1: {"diagnoses_0": diagnoses[0], "medications_0": medications[0]},
            h2: {"diagnoses_1": diagnoses[1], "medications_1": medications[1]},
        }
    elif name == "comorbidity":
        workload = HealthLNKWorkload(distinct_diagnosis_fraction=0.15, seed=29)
        diagnoses = workload.comorbidity_inputs(40)
        spec = comorbidity_query(rows_per_relation=40, top_k=5)
        h1, h2 = spec.parties
        inputs = {h1: {"diagnoses_0": diagnoses[0]}, h2: {"diagnoses_1": diagnoses[1]}}
    else:
        return quickstart_query()
    return spec.context, inputs, spec.output_relation


PAPER_QUERIES = [
    "market_concentration",
    "credit_card_regulation",
    "aspirin_count",
    "comorbidity",
    "quickstart",
]


class TestSocketRuntimeMatchesSimulated:
    @pytest.mark.parametrize("name", PAPER_QUERIES)
    def test_paper_query_byte_identical_across_runtimes(self, name):
        ctx, inputs, output = paper_query(name)
        compiled = cc.compile_query(ctx)
        parties = sorted(compiled.dag.parties() | set(inputs))

        simulated = QueryRunner(parties, inputs, compiled.config, seed=11).run(compiled)
        socketed = SocketCoordinator(parties, inputs, compiled.config, seed=11).run(compiled)

        assert socketed.runtime == "sockets" and simulated.runtime == "simulated"
        assert set(simulated.outputs) == set(socketed.outputs)
        for rel in simulated.outputs:
            # Byte-identical: same schema, same rows, same row *order*.
            assert simulated.outputs[rel] == socketed.outputs[rel]
        # Identical MPC operator counts (same compiled plan drives both) and
        # identical joint work/traffic profile (multiplications, comparisons,
        # messages, bytes, rounds).
        assert compiled.mpc_operator_count() == cc.compile_query(
            paper_query(name)[0]
        ).mpc_operator_count()
        assert simulated.mpc_profile == socketed.mpc_profile
        assert output in simulated.outputs

    def test_leakage_and_timing_merge_across_agents(self, monkeypatch):
        """Every agent returns counts, never seconds: its own party's tally
        and the MPC's.  The coordinator prices the merged tally once, into
        the in-process run's seconds."""
        ctx, inputs, _ = paper_query("credit_card_regulation")
        compiled = cc.compile_query(ctx)
        parties = sorted(compiled.dag.parties() | set(inputs))
        returned = []

        def merge(compiled, parties, payloads):
            returned.append(payloads)
            return merge_payloads(compiled, parties, payloads)

        monkeypatch.setattr(service, "merge_payloads", merge)
        simulated = QueryRunner(parties, inputs, compiled.config, seed=1).run(compiled)
        socketed = SocketCoordinator(parties, inputs, compiled.config, seed=1).run(compiled)
        (payloads,) = returned
        for party, payload in payloads.items():
            assert set(payload) == {
                "outputs", "tally", "leakage", "mpc_profile", "isolation", "wire_traffic", "proc",
            }, party
            assert set(payload["tally"]) == {f"local:{party}", "mpc"}, party
            assert all(counts.dtype == np.int64 for counts in payload["tally"].values()), party
        # The distributed run records the same disclosures (as a multiset).
        assert sorted(e.kind for e in simulated.leakage.events) == sorted(
            e.kind for e in socketed.leakage.events
        )
        assert len(simulated.leakage) == len(socketed.leakage)
        assert socketed.simulated_seconds == simulated.simulated_seconds
        assert socketed.backend_seconds == simulated.backend_seconds
        assert any(k.startswith("local:") for k in socketed.backend_seconds)
        assert any(k.startswith("mpc:") for k in socketed.backend_seconds)
        assert socketed.wall_seconds > 0

    def test_run_query_from_csv_sockets(self, tmp_path):
        ctx, inputs, output = paper_query("quickstart")
        compiled = cc.compile_query(ctx)
        dirs = {}
        for party, relations in inputs.items():
            party_dir = tmp_path / party
            party_dir.mkdir()
            for rel, table in relations.items():
                write_csv(table, party_dir / f"{rel}.csv")
            dirs[party] = str(party_dir)
        simulated = run_query_from_csv(compiled, dirs, seed=4)
        socketed = run_query_from_csv(compiled, dirs, seed=4, runtime="sockets")
        assert simulated.outputs[output] == socketed.outputs[output]

    def test_unknown_runtime_rejected(self):
        ctx, inputs, _ = paper_query("quickstart")
        with pytest.raises(ValueError, match="unknown runtime"):
            cc.run_query(ctx, inputs, runtime="carrier-pigeon")


class TestOnePlanOneCost:
    def test_a_plan_reports_one_cost_on_every_runtime(self):
        """A plan reports one cost — simulated seconds, per-engine seconds,
        MPC profile, and a tally that prices alike under Spark too — and one
        output on every runtime, whatever config the runtime object was
        built with: that config only compiles queries handed over
        uncompiled."""
        spec = market_concentration_query(rows_per_party=200)
        tables = TaxiWorkload(num_companies=3, zero_fare_fraction=0.05, seed=17).party_tables(3, 200)
        inputs = {p: {f"trips_{i}": tables[i]} for i, p in enumerate(spec.parties)}
        parties = sorted(inputs)
        compiled = cc.compile_query(spec.context)

        results = {
            "runner": QueryRunner(parties, inputs, seed=5).run(compiled),
            "runner built for another config": QueryRunner(
                parties, inputs, CompilationConfig(enable_push_down=False), seed=5
            ).run(compiled),
            "sockets": run_compiled(compiled, inputs, seed=5, runtime="sockets"),
        }
        with cc.QuerySession(parties, inputs, seed=5) as session:
            results["session"] = session.submit(compiled)
        reference = results.pop("runner")
        spark = price(compiled.dag, reference.tally, cleartext=SparkCostModel())
        assert spark.simulated_seconds != reference.simulated_seconds
        for name, result in results.items():
            assert result.simulated_seconds == reference.simulated_seconds, name
            assert result.backend_seconds == reference.backend_seconds, name
            assert result.mpc_profile == reference.mpc_profile, name
            assert result.outputs == reference.outputs, name
            assert price(compiled.dag, result.tally, cleartext=SparkCostModel()) == spark, name

    def test_a_runner_compiles_a_query_with_its_config(self):
        """``QueryRunner.run`` takes a query as ``submit`` does, compiled
        with the runner's config."""
        ctx, inputs, output = paper_query("quickstart")
        parties = sorted(inputs)
        config = CompilationConfig(enable_push_down=False)
        result = QueryRunner(parties, inputs, config, seed=2).run(ctx)
        compiled_first = QueryRunner(parties, inputs, seed=2).run(cc.compile_query(ctx, config))
        assert result.outputs == compiled_first.outputs
        assert result.mpc_profile == compiled_first.mpc_profile
        default = QueryRunner(parties, inputs, seed=2).run(ctx)
        assert default.mpc_profile != result.mpc_profile
        assert sorted(default.outputs[output].rows()) == sorted(result.outputs[output].rows())


class TestDistributedSecurityEnforcement:
    def test_tampered_plan_raises_security_error_across_processes(self):
        """Every agent checks authorisation; a tampered plan fails loudly."""
        pa, pb, pc = (
            cc.Party("a.example"), cc.Party("b.example"), cc.Party("c.example"),
        )
        with QueryContext() as ctx:
            tables = [
                ctx.new_table(f"t{i}", [cc.Column("k"), cc.Column("v")], at=p)
                for i, p in enumerate((pa, pb, pc))
            ]
            agg = ctx.concat(tables).aggregate(group=["k"], aggs={"total": cc.SUM("v")})
            agg.collect("out", to=[pa])
        compiled = cc.compile_query(ctx)
        for node in compiled.dag.topological():
            if node.is_mpc and node.op_name == "aggregate":
                node.is_mpc = False
                node.run_at = pb.name
        parties = [pa.name, pb.name, pc.name]
        inputs = {
            p: {f"t{i}": uniform_key_value_table(15, 4, key_column="k", value_column="v", seed=i)}
            for i, p in enumerate(parties)
        }
        with pytest.raises(SecurityError):
            SocketCoordinator(parties, inputs, compiled.config).run(compiled)

    def test_no_agent_processes_leak_after_failure(self):
        from repro.runtime.pool import active_agent_processes

        self.test_tampered_plan_raises_security_error_across_processes()
        assert active_agent_processes() == []


class TestRunQuerySocketsHelper:
    def test_helper_compiles_and_runs(self):
        ctx, inputs, output = paper_query("quickstart")
        result = cc.run_query(ctx, inputs, seed=6, runtime="sockets")
        reference = cc.run_query(paper_query("quickstart")[0], inputs, seed=6)
        assert result.outputs[output] == reference.outputs[output]

    def test_single_party_query_over_sockets(self):
        """A mesh of one: no MPC backend, no peers, still works."""
        pa = cc.Party("solo.example")
        with QueryContext() as ctx:
            t = ctx.new_table("t0", [cc.Column("k"), cc.Column("v")], at=pa)
            t.filter(cc.col("v") > 5).aggregate(
                group=["k"], aggs={"s": cc.SUM("v")}
            ).collect("out", to=[pa])
        schema = Schema([ColumnDef("k"), ColumnDef("v")])
        inputs = {pa.name: {"t0": Table.from_rows(schema, [(1, 10), (1, 3), (2, 8)])}}
        simulated = cc.run_query(ctx, inputs)
        socketed = cc.run_query(ctx, inputs, runtime="sockets")
        assert simulated.outputs["out"] == socketed.outputs["out"]
        assert socketed.mpc_profile == {}


class TestWireAccounting:
    def test_session_wire_totals_are_symmetric_across_peers(self):
        """Every byte one party counts as sent, its peer counts as received.

        The agents report cumulative per-peer mesh traffic with each query
        result; after sequential (non-overlapping) queries the mesh is
        quiescent at every completion, so the ledgers must mirror exactly:
        A->B bytes_sent == B's bytes_received from A, for every ordered pair.
        """
        ctx, inputs, _output = quickstart_query()
        compiled = cc.compile_query(ctx)
        session = cc.open_session(inputs, seed=11)
        try:
            for _ in range(2):
                session.submit(compiled, timeout=120)
            wire = session.stats["wire"]
            parties = sorted(inputs)
            assert sorted(wire) == parties
            total = 0
            for a in parties:
                for b in parties:
                    if a == b:
                        continue
                    sent = wire[a][b]["bytes_sent"]
                    assert sent == wire[b][a]["bytes_received"], (a, b, wire)
                    assert wire[a][b]["frames_sent"] == wire[b][a]["frames_received"]
                    total += sent
            assert total > 0, "an MPC query must move bytes between parties"
        finally:
            session.close()
