"""The paper's evaluation queries, expressed against the public frontend.

Examples, tests and the benchmark harness all need the same four queries
(§2.1, §7): market concentration (HHI), credit-card regulation, aspirin
count, and comorbidity.  Each helper builds the query in a fresh
:class:`~repro.core.lang.QueryContext` and returns it together with the
party names and the names of the input/output relations, so callers only
have to supply data.

The queries are written against the expression API (``col()`` predicates,
``on=`` join keys, multi-aggregate ``aggregate`` calls); the lowering emits
exactly the operator DAG the pre-redesign builders produced, so compiled
plans — including the MPC operator counts and hybrid rewrites the paper's
figures depend on — are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.expr import col
from repro.core.lang import QueryContext
from repro.core.party import Party
from repro.core.types import COUNT, Column, INT, SUM


@dataclass
class QuerySpec:
    """A built query plus the metadata callers need to run it."""

    context: QueryContext
    parties: list[str]
    input_relations: dict[str, list[str]]
    output_relation: str
    #: Extra information specific to the query (e.g. the STP party).
    info: dict = field(default_factory=dict)


def market_concentration_query(
    party_names: list[str] | None = None, rows_per_party: int | None = None
) -> QuerySpec:
    """The HHI query of Listing 2 over three vehicle-for-hire companies.

    Each company contributes a (companyID, price) trip relation; the query
    filters zero-fare trips, sums revenue per company, derives market shares
    and outputs the Herfindahl-Hirschman index to the first party.
    """
    party_names = party_names or ["mpc.a.com", "mpc.b.com", "mpc.c.org"]
    parties = [Party(name) for name in party_names]
    schema = [Column("companyID", INT), Column("price", INT)]

    with QueryContext() as ctx:
        inputs = [
            ctx.new_table(f"trips_{i}", schema, at=p, estimated_rows=rows_per_party)
            for i, p in enumerate(parties)
        ]
        taxi_data = ctx.concat(inputs, name="taxi_data")
        nonzero = taxi_data.filter(col("price") > 0, name="paid_trips")
        rev = nonzero.project(["companyID", "price"]).aggregate(
            group=["companyID"], aggs={"local_rev": SUM("price")}, name="revenue"
        )
        market_size = rev.aggregate(aggs={"total_rev": SUM("local_rev")}, name="market_size")
        # Attach the (single-row) market size to every company row by joining
        # on a constant key.
        rev_keyed = rev.with_column("mkey", col("companyID") * 0, name="revenue_keyed")
        market_keyed = market_size.with_column("mkey", col("total_rev") * 0, name="market_keyed")
        share = rev_keyed.join(market_keyed, on="mkey", name="share_join").with_column(
            "m_share", col("local_rev") / col("total_rev"), name="market_share"
        )
        hhi = share.with_column(
            "ms_squared", col("m_share") * col("m_share"), name="share_squared"
        ).aggregate(aggs={"hhi": SUM("ms_squared")}, name="hhi_sum")
        hhi.collect("hhi_result", to=[parties[0]])

    return QuerySpec(
        context=ctx,
        parties=party_names,
        input_relations={name: [f"trips_{i}"] for i, name in enumerate(party_names)},
        output_relation="hhi_result",
    )


def credit_card_regulation_query(
    regulator: str = "mpc.ftc.gov",
    agencies: list[str] | None = None,
    rows_demographics: int | None = None,
    rows_per_agency: int | None = None,
) -> QuerySpec:
    """The credit-card regulation query of Listing 1.

    The regulator owns a (ssn, zip) demographics relation; each credit
    agency owns (ssn, score) rows and trusts the regulator — but not the
    other agencies — with the SSN column.  The query computes the average
    credit score per ZIP code for the regulator.
    """
    agencies = agencies or ["mpc.bank-a.com", "mpc.bank-b.cash"]
    p_reg = Party(regulator)
    p_agencies = [Party(a) for a in agencies]

    demo_schema = [Column("ssn", INT), Column("zip", INT)]
    bank_schema = [Column("ssn", INT, trust=[p_reg]), Column("score", INT)]

    with QueryContext() as ctx:
        demographics = ctx.new_table(
            "demographics", demo_schema, at=p_reg, estimated_rows=rows_demographics
        )
        scores = [
            ctx.new_table(f"scores_{i}", bank_schema, at=p, estimated_rows=rows_per_agency)
            for i, p in enumerate(p_agencies)
        ]
        all_scores = ctx.concat(scores, name="scores")
        joined = demographics.join(all_scores, on="ssn", name="joined")
        # One aggregate call, two aggregates: lowers to one Aggregate with
        # two outputs, which groups the joined rows by zip once.
        stats = joined.aggregate(
            group=["zip"], aggs={"total": SUM("score"), "cnt": COUNT()}, name="stats_by_zip"
        )
        avg = stats.with_column(
            "avg_score", col("total") / col("cnt"), name="avg_scores_rel"
        )
        avg.collect("avg_scores", to=[p_reg])

    inputs = {regulator: ["demographics"]}
    for i, name in enumerate(agencies):
        inputs[name] = [f"scores_{i}"]
    return QuerySpec(
        context=ctx,
        parties=[regulator, *agencies],
        input_relations=inputs,
        output_relation="avg_scores",
        info={"stp": regulator},
    )


def aspirin_count_query(
    hospitals: list[str] | None = None,
    analyst: str | None = None,
    rows_per_relation: int | None = None,
    heart_disease_code: int = 414,
    aspirin_code: int = 1191,
) -> QuerySpec:
    """SMCQL's aspirin-count query (§7.4, Figure 7a).

    Two hospitals hold diagnoses and medications keyed by a *public*
    anonymised patient id.  The query joins the two relations on patient id,
    keeps heart-disease diagnoses with aspirin prescriptions, and counts the
    distinct patients.  The public patient-id columns let Conclave use its
    public join; the diagnosis/medication columns stay private.
    """
    hospitals = hospitals or ["mpc.hospital-1.org", "mpc.hospital-2.org"]
    analyst = analyst or hospitals[0]
    p_hospitals = [Party(h) for h in hospitals]
    p_analyst = Party(analyst)

    diag_schema = [Column("patient_id", INT, public=True), Column("diagnosis", INT)]
    med_schema = [Column("patient_id", INT, public=True), Column("medication", INT)]

    with QueryContext() as ctx:
        diagnoses = [
            ctx.new_table(f"diagnoses_{i}", diag_schema, at=p, estimated_rows=rows_per_relation)
            for i, p in enumerate(p_hospitals)
        ]
        medications = [
            ctx.new_table(f"medications_{i}", med_schema, at=p, estimated_rows=rows_per_relation)
            for i, p in enumerate(p_hospitals)
        ]
        all_diag = ctx.concat(diagnoses, name="diagnoses")
        all_meds = ctx.concat(medications, name="medications")
        joined = all_diag.join(all_meds, on="patient_id", name="rx_join")
        # A compound predicate of simple comparisons lowers to a chain of
        # Filter operators — identical to the two separate filters the
        # pre-redesign query used.
        on_aspirin = joined.filter(
            (col("diagnosis") == heart_disease_code) & (col("medication") == aspirin_code),
            name="aspirin",
        )
        patients = on_aspirin.distinct(["patient_id"], name="distinct_patients")
        count = patients.aggregate(aggs={"aspirin_count": COUNT()}, name="aspirin_count_rel")
        count.collect("aspirin_count", to=[p_analyst])

    inputs = {h: [f"diagnoses_{i}", f"medications_{i}"] for i, h in enumerate(hospitals)}
    return QuerySpec(
        context=ctx,
        parties=hospitals,
        input_relations=inputs,
        output_relation="aspirin_count",
        info={"heart_disease_code": heart_disease_code, "aspirin_code": aspirin_code},
    )


def comorbidity_query(
    hospitals: list[str] | None = None,
    analyst: str | None = None,
    rows_per_relation: int | None = None,
    top_k: int = 10,
) -> QuerySpec:
    """SMCQL's comorbidity query (§7.4, Figure 7b).

    Two hospitals hold the diagnoses of their c. diff cohorts (private
    diagnosis codes).  The query counts diagnoses across both cohorts and
    returns the ``top_k`` most common ones to the analyst.
    """
    hospitals = hospitals or ["mpc.hospital-1.org", "mpc.hospital-2.org"]
    analyst = analyst or hospitals[0]
    p_hospitals = [Party(h) for h in hospitals]
    p_analyst = Party(analyst)

    diag_schema = [Column("patient_id", INT, public=True), Column("diagnosis", INT)]

    with QueryContext() as ctx:
        diagnoses = [
            ctx.new_table(f"diagnoses_{i}", diag_schema, at=p, estimated_rows=rows_per_relation)
            for i, p in enumerate(p_hospitals)
        ]
        all_diag = ctx.concat(diagnoses, name="diagnoses")
        counts = all_diag.aggregate(
            group=["diagnosis"], aggs={"cnt": COUNT()}, name="diag_counts"
        )
        top = counts.sort_by("cnt", ascending=False, name="ordered_counts").limit(
            top_k, name="top_diagnoses"
        )
        top.collect("comorbidity", to=[p_analyst])

    inputs = {h: [f"diagnoses_{i}"] for i, h in enumerate(hospitals)}
    return QuerySpec(
        context=ctx,
        parties=hospitals,
        input_relations=inputs,
        output_relation="comorbidity",
        info={"top_k": top_k},
    )
