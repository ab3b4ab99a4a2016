#!/usr/bin/env python
"""Comorbidity: most common diagnoses in a shared patient cohort (§7.4, Figure 7b).

Two hospitals hold the diagnoses of their c. diff patients and want the ten
most common co-occurring conditions across both cohorts.  The frontend call
is ``aggregate(group=["diagnosis"], aggs={"cnt": COUNT()})``; Conclave splits
the count aggregation into local per-hospital partial counts plus a small
MPC merge; the order-by and limit stay under MPC because diagnosis codes are
private.  The SMCQL baseline applies the same split but runs its MPC step on
an ObliVM-style garbled-circuit backend.

Run with::

    python examples/comorbidity.py [rows_per_hospital]
"""

import sys

import repro as cc
from repro.baselines.smcql import SMCQLBaseline
from repro.queries import comorbidity_query
from repro.workloads.healthlnk import HealthLNKWorkload


def main(rows_per_hospital: int = 400, top_k: int = 10):
    workload = HealthLNKWorkload(distinct_diagnosis_fraction=0.1, seed=29)
    diagnoses = workload.comorbidity_inputs(rows_per_hospital)

    # --- Conclave ---
    spec = comorbidity_query(rows_per_relation=rows_per_hospital, top_k=top_k)
    compiled = cc.compile_query(spec.context)
    print(compiled.report.summary())
    print()

    hospital_1, hospital_2 = spec.parties
    inputs = {
        hospital_1: {"diagnoses_0": diagnoses[0]},
        hospital_2: {"diagnoses_1": diagnoses[1]},
    }
    result = cc.QueryRunner(spec.parties, inputs).run(compiled)
    conclave_top = result.outputs["comorbidity"]

    # --- SMCQL baseline ---
    smcql = SMCQLBaseline()
    smcql_result = smcql.run_comorbidity(diagnoses, top_k=top_k)

    reference = workload.reference_comorbidity(diagnoses, top_k=top_k)
    print(f"{'rank':>4}  {'diagnosis':>9}  {'count':>6}   (cleartext reference)")
    for rank, (code, count) in enumerate(reference.rows(), start=1):
        print(f"{rank:>4}  {code:>9}  {count:>6}")
    print()
    # Ties at rank ``top_k`` may be broken either way (the MPC shuffles), so
    # a valid top-k has the reference's count at every rank and only
    # (diagnosis, count) pairs of the full count table.
    combined = diagnoses[0].concat(*diagnoses[1:])
    counts = dict(combined.aggregate(["diagnosis"], None, "count", "cnt").rows())
    ranked = sorted((count for _, count in conclave_top.rows()), reverse=True)
    valid = ranked == [count for _, count in reference.rows()] and all(
        counts.get(code) == count for code, count in conclave_top.rows()
    )
    print(f"Conclave top-{top_k} matches reference: {valid}")
    print(f"Conclave simulated runtime : {result.simulated_seconds:8.1f}s")
    print(f"SMCQL simulated runtime    : {smcql_result.simulated_seconds:8.1f}s")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 400)
