"""Tests for the reusable query builders in :mod:`repro.queries`."""

import pytest

import repro as cc
from repro.data.schema import PUBLIC
from repro.queries import (
    aspirin_count_query,
    comorbidity_query,
    credit_card_regulation_query,
    market_concentration_query,
)


class TestSpecMetadata:
    def test_market_spec_lists_one_input_per_party(self):
        spec = market_concentration_query(rows_per_party=10)
        assert len(spec.parties) == 3
        for i, party in enumerate(spec.parties):
            assert spec.input_relations[party] == [f"trips_{i}"]
        assert spec.output_relation == "hhi_result"

    def test_credit_spec_names_the_stp(self):
        spec = credit_card_regulation_query()
        assert spec.info["stp"] == spec.parties[0]
        assert spec.input_relations[spec.parties[0]] == ["demographics"]
        assert spec.input_relations[spec.parties[1]] == ["scores_0"]

    def test_aspirin_spec_has_two_relations_per_hospital(self):
        spec = aspirin_count_query()
        for i, hospital in enumerate(spec.parties):
            assert spec.input_relations[hospital] == [f"diagnoses_{i}", f"medications_{i}"]

    def test_comorbidity_spec_records_top_k(self):
        spec = comorbidity_query(top_k=7)
        assert spec.info["top_k"] == 7


class TestSpecAnnotations:
    def test_credit_query_trusts_only_the_regulator_with_ssn(self):
        spec = credit_card_regulation_query()
        dag = spec.context.build_dag()
        regulator = spec.parties[0]
        for create in dag.inputs():
            rel = create.out_rel
            if rel.name.startswith("scores"):
                assert regulator in rel.trust["ssn"]
                assert spec.parties[2] not in rel.trust["ssn"] or rel.owner == spec.parties[2]
                assert rel.trust["score"] == {rel.owner}

    def test_aspirin_query_patient_ids_are_public(self):
        spec = aspirin_count_query()
        dag = spec.context.build_dag()
        for create in dag.inputs():
            assert PUBLIC in create.out_rel.trust["patient_id"]
            private_col = "diagnosis" if "diagnoses" in create.out_rel.name else "medication"
            assert PUBLIC not in create.out_rel.trust[private_col]

    def test_market_query_has_no_trust_annotations(self):
        spec = market_concentration_query()
        dag = spec.context.build_dag()
        for create in dag.inputs():
            for column, trust in create.out_rel.trust.items():
                assert trust == {create.out_rel.owner}

    def test_row_hints_propagate_to_create_nodes(self):
        spec = market_concentration_query(rows_per_party=1234)
        dag = spec.context.build_dag()
        assert all(c.out_rel.estimated_rows == 1234 for c in dag.inputs())


class TestSpecCompilation:
    @pytest.mark.parametrize(
        "spec_factory",
        [
            lambda: market_concentration_query(rows_per_party=100),
            lambda: credit_card_regulation_query(rows_demographics=100, rows_per_agency=50),
            lambda: aspirin_count_query(rows_per_relation=100),
            lambda: comorbidity_query(rows_per_relation=100),
        ],
        ids=["market", "credit", "aspirin", "comorbidity"],
    )
    def test_every_spec_compiles_and_estimates(self, spec_factory):
        spec = spec_factory()
        compiled = cc.compile_query(spec.context)
        assert compiled.operator_count() > 0
        # Every query output is produced by some node of the shape run.
        estimate = cc.PlanEstimator().estimate(compiled)
        assert spec.output_relation in {ne.node.out_rel.name for ne in estimate.nodes}

    def test_custom_party_names_are_respected(self):
        spec = market_concentration_query(party_names=["x.one", "y.two", "z.three"])
        dag = spec.context.build_dag()
        assert dag.parties() == {"x.one", "y.two", "z.three"}
