"""End-to-end tests for the paper's evaluation queries (§2.1, §7).

Each query is compiled with the full pipeline, executed across simulated
parties on synthetic workload data, and compared against a single-machine
cleartext reference computation.
"""

import numpy as np
import pytest

import repro as cc
from repro.core.config import CompilationConfig
from repro.core.operators import HybridAggregate, HybridJoin, PublicJoin
from repro.mpc.secretshare import SecretSharingEngine
from repro.queries import (
    aspirin_count_query,
    comorbidity_query,
    credit_card_regulation_query,
    market_concentration_query,
)
from repro.workloads.credit import CreditWorkload
from repro.workloads.healthlnk import HealthLNKWorkload
from repro.workloads.taxi import TaxiWorkload


class TestMarketConcentration:
    def setup_method(self):
        self.workload = TaxiWorkload(num_companies=3, zero_fare_fraction=0.05, seed=17)
        self.spec = market_concentration_query(rows_per_party=60)
        self.tables = self.workload.party_tables(3, 60)
        self.inputs = {
            party: {f"trips_{i}": self.tables[i]} for i, party in enumerate(self.spec.parties)
        }

    def test_hhi_matches_cleartext_reference(self):
        result = cc.run_query(self.spec.context, self.inputs)
        hhi = result.outputs["hhi_result"].rows()[0][0]
        assert hhi == pytest.approx(self.workload.reference_hhi(self.tables), abs=1e-3)

    def test_aggregation_is_split_into_local_partials(self):
        compiled = cc.compile_query(self.spec.context)
        local_aggs = [
            n
            for n in compiled.dag.topological()
            if n.op_name == "aggregate" and not n.is_mpc and not n.run_at
        ]
        assert len(local_aggs) == 3
        assert compiled.report.push_down_rewrites >= 2

    def test_no_hybrid_operators_needed(self):
        compiled = cc.compile_query(self.spec.context)
        assert compiled.report.hybrid_rewrites == []

    def test_result_identical_with_and_without_pushdown(self):
        optimized = cc.run_query(self.spec.context, self.inputs)
        spec2 = market_concentration_query(rows_per_party=60)
        baseline = cc.run_query(
            spec2.context, self.inputs, CompilationConfig(enable_push_down=False)
        )
        a = optimized.outputs["hhi_result"].rows()[0][0]
        b = baseline.outputs["hhi_result"].rows()[0][0]
        assert a == pytest.approx(b, abs=1e-3)


class TestCreditCardRegulation:
    def setup_method(self):
        self.workload = CreditWorkload(num_zip_codes=15, seed=19)
        demo, agencies = self.workload.generate(num_people=90, rows_per_agency=40)
        self.demo, self.agencies = demo, agencies
        self.spec = credit_card_regulation_query(rows_demographics=90, rows_per_agency=40)
        regulator, bank_a, bank_b = self.spec.parties
        self.inputs = {
            regulator: {"demographics": demo},
            bank_a: {"scores_0": agencies[0]},
            bank_b: {"scores_1": agencies[1]},
        }

    def test_hybrid_join_and_aggregation_inserted_with_regulator_as_stp(self):
        compiled = cc.compile_query(self.spec.context)
        hybrid_joins = [n for n in compiled.dag.topological() if isinstance(n, HybridJoin)]
        hybrid_aggs = [n for n in compiled.dag.topological() if isinstance(n, HybridAggregate)]
        assert hybrid_joins and hybrid_aggs
        assert {n.stp for n in hybrid_joins + hybrid_aggs} == {self.spec.info["stp"]}

    def test_average_scores_match_cleartext_reference(self):
        result = cc.run_query(self.spec.context, self.inputs)
        output = result.outputs["avg_scores"]
        reference = self.workload.reference_average_scores(self.demo, self.agencies)
        ref_map = {row[0]: row[-1] for row in reference.rows()}
        got_map = {}
        for row in output.rows():
            values = dict(zip(output.schema.names, row))
            got_map[values["zip"]] = values["avg_score"]
        assert set(got_map) == set(ref_map)
        for zip_code, avg in got_map.items():
            assert avg == pytest.approx(ref_map[zip_code], abs=1e-2)

    def test_ssn_never_revealed_to_the_other_bank(self):
        result = cc.run_query(self.spec.context, self.inputs)
        regulator, bank_a, bank_b = self.spec.parties
        for bank in (bank_a, bank_b):
            for event in result.leakage.column_reveals_to(bank):
                assert "ssn" not in event.columns

    def test_one_group_by_is_one_hybrid_aggregation(self, monkeypatch):
        """The two aggregates by zip are one node: the plan reveals the
        shuffled zip column to the STP once, takes one hand-back of its
        sorted order and group boundaries, and opens to the environment
        only for the first (ssn) join — no join re-aligns two results."""
        compiled = cc.compile_query(self.spec.context)
        kinds = [type(n).__name__ for n in compiled.dag.topological()]
        assert len(kinds) == 8
        assert kinds.count("HybridJoin") == 1 and kinds.count("HybridAggregate") == 1
        assert "Join" not in kinds and "Aggregate" not in kinds
        (agg,) = [n for n in compiled.dag.topological() if isinstance(n, HybridAggregate)]
        assert agg.outputs == (("sum", "score", "total"), ("count", None, "cnt"))

        stp = self.spec.info["stp"]
        reveals, layouts = [], []
        reveal, hand_back = SecretSharingEngine.reveal_to_many, SecretSharingEngine.hand_back

        def watched_reveal(engine, vecs, party):
            reveals.append((party, [len(vec) for vec in vecs]))
            return reveal(engine, vecs, party)

        def watched_hand_back(engine, party, payload, layout):
            layouts.append((party, list(layout)))
            return hand_back(engine, party, payload, layout)

        monkeypatch.setattr(SecretSharingEngine, "reveal_to_many", watched_reveal)
        monkeypatch.setattr(SecretSharingEngine, "hand_back", watched_hand_back)
        runner = cc.QueryRunner(self.spec.parties, self.inputs, seed=3)
        result = runner.run(compiled)
        tags = [tag for tag, _, _ in runner.mpc_backend.engine.network.schedule]

        (join_reveal, group_reveal, output_reveal) = reveals
        n = group_reveal[1][0]
        assert join_reveal == (stp, [90, 80]) and group_reveal == (stp, [n])
        assert output_reveal[1] == [result.outputs["avg_scores"].num_rows] * 4
        # The join's hand-back, then the aggregation's.
        (_, agg_layout) = [layout for party, layout in layouts if party == stp]
        assert agg_layout == [(np.int64, n), (bool, n - 1)]
        assert tags.count("hand-back") == 2
        assert tags.count("env-open") == 1
        assert tags.index("env-open") < tags.index("reveal-share", 1)

    def test_hybrid_operators_disabled_still_correct(self):
        spec = credit_card_regulation_query(rows_demographics=90, rows_per_agency=40)
        config = CompilationConfig(enable_hybrid_operators=False)
        result = cc.run_query(spec.context, self.inputs, config)
        reference = self.workload.reference_average_scores(self.demo, self.agencies)
        assert result.outputs["avg_scores"].num_rows == reference.num_rows


class TestAspirinCount:
    def setup_method(self):
        self.workload = HealthLNKWorkload(patient_overlap=0.1, seed=23)
        self.diagnoses, self.medications = self.workload.aspirin_count_inputs(50)
        self.spec = aspirin_count_query(rows_per_relation=50)
        h1, h2 = self.spec.parties
        self.inputs = {
            h1: {"diagnoses_0": self.diagnoses[0], "medications_0": self.medications[0]},
            h2: {"diagnoses_1": self.diagnoses[1], "medications_1": self.medications[1]},
        }

    def test_public_join_is_used(self):
        compiled = cc.compile_query(self.spec.context)
        assert any(isinstance(n, PublicJoin) for n in compiled.dag.topological())

    def test_count_matches_cleartext_reference(self):
        result = cc.run_query(self.spec.context, self.inputs)
        expected = self.workload.reference_aspirin_count(self.diagnoses, self.medications)
        assert result.outputs["aspirin_count"].rows()[0][0] == expected

    def test_smcql_comparison_config_still_correct(self):
        spec = aspirin_count_query(rows_per_relation=50)
        config = CompilationConfig(push_down_private_filters=False)
        result = cc.run_query(spec.context, self.inputs, config)
        expected = self.workload.reference_aspirin_count(self.diagnoses, self.medications)
        assert result.outputs["aspirin_count"].rows()[0][0] == expected

    def test_diagnosis_values_never_revealed_to_other_hospital(self):
        result = cc.run_query(self.spec.context, self.inputs)
        h1, h2 = self.spec.parties
        for event in result.leakage.column_reveals_to(h2):
            assert "diagnosis" not in event.columns
            assert "medication" not in event.columns


class TestComorbidity:
    def setup_method(self):
        self.workload = HealthLNKWorkload(distinct_diagnosis_fraction=0.15, seed=29)
        self.diagnoses = self.workload.comorbidity_inputs(60)
        self.spec = comorbidity_query(rows_per_relation=60, top_k=5)
        h1, h2 = self.spec.parties
        self.inputs = {
            h1: {"diagnoses_0": self.diagnoses[0]},
            h2: {"diagnoses_1": self.diagnoses[1]},
        }

    def test_top_k_matches_cleartext_reference(self):
        result = cc.run_query(self.spec.context, self.inputs)
        reference = self.workload.reference_comorbidity(self.diagnoses, top_k=5)
        got = sorted(result.outputs["comorbidity"].rows(), key=lambda r: (-r[1], r[0]))
        expected = sorted(reference.rows(), key=lambda r: (-r[1], r[0]))
        assert [count for _, count in got] == [count for _, count in expected]

    def test_aggregation_split_like_the_paper(self):
        compiled = cc.compile_query(self.spec.context)
        local_aggs = [
            n
            for n in compiled.dag.topological()
            if n.op_name == "aggregate" and not n.is_mpc
        ]
        secondary = [
            n
            for n in compiled.dag.topological()
            if n.op_name == "aggregate" and getattr(n, "is_secondary", False)
        ]
        assert len(local_aggs) >= 2
        assert secondary and all(n.is_mpc for n in secondary)

    def test_order_by_and_limit_stay_under_mpc(self):
        compiled = cc.compile_query(self.spec.context)
        sorts = [n for n in compiled.dag.topological() if n.op_name == "sort_by"]
        assert sorts and all(n.is_mpc for n in sorts)
