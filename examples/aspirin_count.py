#!/usr/bin/env python
"""Aspirin count: the SMCQL medical query, Conclave vs SMCQL (§7.4, Figure 7a).

Two hospitals count how many shared patients have a heart-disease diagnosis
and an aspirin prescription.  Patient identifiers are public (anonymised),
so Conclave joins the relations in the clear with its public join and only
the private diagnosis/medication filters run under MPC.  The two conditions
are one compound predicate in the frontend —
``(col("diagnosis") == 414) & (col("medication") == 1191)`` — which the
compiler lowers to the same chain of filter operators as before.  The SMCQL baseline
runs the join obliviously per patient-id slice on an ObliVM-style
garbled-circuit backend, which is what Figure 7a compares against.

Run with::

    python examples/aspirin_count.py [rows_per_relation]
"""

import sys

import repro as cc
from repro.baselines.smcql import SMCQLBaseline
from repro.queries import aspirin_count_query
from repro.workloads.healthlnk import HealthLNKWorkload


def main(rows_per_relation: int = 300):
    workload = HealthLNKWorkload(patient_overlap=0.02, seed=23)
    diagnoses, medications = workload.aspirin_count_inputs(rows_per_relation)

    # --- Conclave ---
    spec = aspirin_count_query(rows_per_relation=rows_per_relation)
    # Match SMCQL's security guarantee: don't push private-column filters out
    # of MPC (the configuration the paper uses for this comparison).
    config = cc.CompilationConfig(push_down_private_filters=False)
    compiled = cc.compile_query(spec.context, config)
    print(compiled.report.summary())
    print()

    hospital_1, hospital_2 = spec.parties
    inputs = {
        hospital_1: {"diagnoses_0": diagnoses[0], "medications_0": medications[0]},
        hospital_2: {"diagnoses_1": diagnoses[1], "medications_1": medications[1]},
    }
    result = cc.QueryRunner(spec.parties, inputs).run(compiled)
    conclave_count = result.outputs["aspirin_count"].rows()[0][0]

    # --- SMCQL baseline ---
    smcql = SMCQLBaseline()
    smcql_result = smcql.run_aspirin_count(diagnoses, medications)

    reference = workload.reference_aspirin_count(diagnoses, medications)
    print(f"patients with heart disease + aspirin (cleartext reference): {reference}")
    print(f"Conclave result : {conclave_count}  in {result.simulated_seconds:8.1f} simulated s")
    print(f"SMCQL result    : {smcql_result.value}  in {smcql_result.simulated_seconds:8.1f} simulated s "
          f"({smcql_result.mpc_slices} MPC slices)")
    print()
    speedup = smcql_result.simulated_seconds / max(result.simulated_seconds, 1e-9)
    print(f"Conclave speedup over SMCQL at this size: {speedup:.1f}x")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 300)
