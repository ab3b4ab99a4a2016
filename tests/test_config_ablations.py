"""Correctness under every optimization configuration.

Every rewrite Conclave applies must preserve query semantics; these tests
run the paper's queries end to end under all combinations of the
optimization flags and check that the revealed outputs never change.
"""

import itertools

import pytest

import repro as cc
from repro.core.config import CompilationConfig
from repro.queries import comorbidity_query, credit_card_regulation_query, market_concentration_query
from repro.runtime.wire import encode_payload
from repro.workloads.credit import CreditWorkload
from repro.workloads.healthlnk import HealthLNKWorkload
from repro.workloads.taxi import TaxiWorkload

FLAG_NAMES = (
    "enable_push_down",
    "enable_push_up",
    "enable_hybrid_operators",
    "enable_sort_elimination",
)
ALL_COMBINATIONS = [
    dict(zip(FLAG_NAMES, values))
    for values in itertools.product([True, False], repeat=len(FLAG_NAMES))
]


def _config(flags: dict) -> CompilationConfig:
    return CompilationConfig(**flags)


class TestMarketQueryUnderAllConfigs:
    workload = TaxiWorkload(num_companies=3, zero_fare_fraction=0.05, seed=41)
    tables = workload.party_tables(3, 40)
    reference = workload.reference_hhi(tables)

    @pytest.mark.parametrize("flags", ALL_COMBINATIONS, ids=lambda f: "".join("1" if v else "0" for v in f.values()))
    def test_hhi_invariant_under_optimizations(self, flags):
        spec = market_concentration_query(rows_per_party=40)
        inputs = {
            party: {f"trips_{i}": self.tables[i]} for i, party in enumerate(spec.parties)
        }
        result = cc.run_query(spec.context, inputs, _config(flags))
        hhi = result.outputs["hhi_result"].rows()[0][0]
        assert hhi == pytest.approx(self.reference, abs=1e-3)


class TestCreditQueryUnderKeyConfigs:
    workload = CreditWorkload(num_zip_codes=10, seed=43)
    demo, agencies = workload.generate(num_people=60, rows_per_agency=25)
    reference = workload.reference_average_scores(demo, agencies)

    @pytest.mark.parametrize(
        "flags",
        [
            {"enable_hybrid_operators": True},
            {"enable_hybrid_operators": False},
            {"enable_hybrid_operators": True, "enable_push_up": False},
            {"enable_hybrid_operators": False, "enable_push_down": False},
        ],
        ids=["hybrid", "no-hybrid", "hybrid-no-pushup", "pure-mpc"],
    )
    def test_average_scores_invariant(self, flags):
        spec = credit_card_regulation_query(rows_demographics=60, rows_per_agency=25)
        regulator, bank_a, bank_b = spec.parties
        inputs = {
            regulator: {"demographics": self.demo},
            bank_a: {"scores_0": self.agencies[0]},
            bank_b: {"scores_1": self.agencies[1]},
        }
        result = cc.run_query(spec.context, inputs, CompilationConfig(**flags))
        output = result.outputs["avg_scores"]
        ref_map = {row[0]: row[-1] for row in self.reference.rows()}
        got_map = {
            dict(zip(output.schema.names, row))["zip"]: dict(zip(output.schema.names, row))["avg_score"]
            for row in output.rows()
        }
        assert set(got_map) == set(ref_map)
        for zip_code in ref_map:
            assert got_map[zip_code] == pytest.approx(ref_map[zip_code], abs=1e-2)


class TestComorbidityUnderKeyConfigs:
    workload = HealthLNKWorkload(distinct_diagnosis_fraction=0.15, seed=47)
    diagnoses = workload.comorbidity_inputs(50)
    reference = workload.reference_comorbidity(diagnoses, top_k=5)

    @pytest.mark.parametrize(
        "flags",
        [
            {},
            {"enable_push_down": False},
            {"enable_sort_elimination": False},
            {"enable_push_down": False, "enable_sort_elimination": False},
        ],
        ids=["default", "no-pushdown", "no-sort-elim", "neither"],
    )
    def test_top_counts_invariant(self, flags):
        spec = comorbidity_query(rows_per_relation=50, top_k=5)
        h1, h2 = spec.parties
        inputs = {h1: {"diagnoses_0": self.diagnoses[0]}, h2: {"diagnoses_1": self.diagnoses[1]}}
        result = cc.run_query(spec.context, inputs, CompilationConfig(**flags))
        got_counts = sorted((row[1] for row in result.outputs["comorbidity"].rows()), reverse=True)
        expected_counts = sorted((row[1] for row in self.reference.rows()), reverse=True)
        assert got_counts == expected_counts


class TestCompilationReportAndExplain:
    def test_explain_mentions_rewrites_dag_and_partitioning(self):
        spec = credit_card_regulation_query(rows_demographics=100, rows_per_agency=50)
        compiled = cc.compile_query(spec.context)
        text = compiled.explain()
        assert "hybrid_join" in text
        assert "operator DAG" in text
        assert "sub-plan" in text

    def test_report_counts_are_consistent_with_dag(self):
        spec = market_concentration_query(rows_per_party=100)
        compiled = cc.compile_query(spec.context)
        local_aggs = [
            n
            for n in compiled.dag.topological()
            if n.op_name == "aggregate" and not n.is_mpc and not getattr(n, "is_secondary", False)
        ]
        assert compiled.report.push_down_rewrites >= 2
        assert len(local_aggs) == 3


class TestCompilingLeavesTheContextAlone:
    """The rewrite passes edit nodes in place — on a copy, never on the
    caller's context — so what a compile produces depends only on the query
    and the config it was given, not on earlier compiles."""

    QUERIES = [market_concentration_query, credit_card_regulation_query, comorbidity_query]
    ABLATIONS = [
        {"enable_push_down": False},
        {"enable_hybrid_operators": False},
        {"consent_to_cardinality_leakage": False},
    ]

    @staticmethod
    def _shape(compiled):
        return (
            compiled.operator_count(),
            compiled.mpc_operator_count(),
            compiled.report,
            encode_payload(compiled),
        )

    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.__name__)
    def test_same_context_compiled_twice_is_identical(self, query):
        context = query().context
        first, second = cc.compile_query(context), cc.compile_query(context)
        assert first.dag is not second.dag
        assert self._shape(first) == self._shape(second)
        assert first.report.push_down_rewrites + len(first.report.hybrid_rewrites) > 0

    @pytest.mark.parametrize("flags", ABLATIONS, ids=lambda f: next(iter(f)))
    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.__name__)
    def test_default_then_ablated_equals_ablated_on_fresh(self, query, flags):
        reused = query().context
        cc.compile_query(reused)
        assert self._shape(cc.compile_query(reused, _config(flags))) == self._shape(
            cc.compile_query(query().context, _config(flags))
        )

    def test_compiling_a_dag_leaves_it_unrewritten(self):
        dag = market_concentration_query().context.build_dag()
        before = [(n.node_id, n.op_name, n.out_rel.name) for n in dag.topological()]
        compiled = cc.compile_query(dag)
        assert compiled.report.push_down_rewrites > 0
        assert [(n.node_id, n.op_name, n.out_rel.name) for n in dag.topological()] == before
