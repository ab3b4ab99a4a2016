"""SMCQL-style baseline executor (§7.4, Figure 7).

SMCQL (Bater et al., VLDB 2017) is the system most similar to Conclave.  Its
optimizations differ in three ways that matter for the comparison:

* columns are annotated only as *public* or *private* (no per-party trust
  sets, hence no hybrid protocols);
* "slicing" partitions relations on a public key: slices whose key values
  only one party holds are processed locally, the rest run under MPC —
  one (small) MPC per slice;
* the MPC backend is ObliVM, a two-party garbled-circuit framework that is
  markedly slower than Sharemind on relational workloads.

This module implements the two SMCQL queries the paper benchmarks — aspirin
count and comorbidity — with exactly that execution strategy: real sliced
execution over :class:`~repro.data.table.Table` inputs, an
ObliVM-calibrated garbled-circuit cost model for the MPC slices, and
closed-form estimators for the large input sizes of Figure 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.data.table import Table
from repro.model.prices import (
    GATES_PER_ADDITION,
    GATES_PER_COMPARISON,
    GATES_PER_MUX,
    VALUE_BITS,
    ObliVMCostModel,
)
from repro.model.steps import bitonic_comparator_count
from repro.workloads.healthlnk import ASPIRIN_CODE, HEART_DISEASE_CODE


@dataclass(frozen=True)
class SMCQLCostParams:
    """Cost constants of SMCQL's execution engine."""

    #: Per-slice MPC session overhead (JVM circuit generation + OT setup).
    per_slice_overhead_seconds: float = 0.9
    #: Cleartext cost per record for locally-processed slices.
    per_local_record_seconds: float = 2.0e-6
    #: Fixed planner/driver overhead per query.
    startup_seconds: float = 5.0


@dataclass
class SMCQLResult:
    """Result and accounting of one SMCQL query execution."""

    value: object
    simulated_seconds: float
    mpc_slices: int
    local_slices: int
    mpc_gates: int


class SMCQLBaseline:
    """Sliced, ObliVM-backed executor for the paper's two SMCQL queries."""

    def __init__(
        self,
        cost_params: SMCQLCostParams | None = None,
        oblivm_model: ObliVMCostModel | None = None,
    ):
        self.cost = cost_params or SMCQLCostParams()
        self.oblivm = oblivm_model or ObliVMCostModel()

    # -- aspirin count -----------------------------------------------------------------------

    def run_aspirin_count(
        self, diagnoses: list[Table], medications: list[Table]
    ) -> SMCQLResult:
        """Execute the aspirin-count query with sliced ObliVM execution.

        The query joins diagnoses and medications on the public patient id,
        filters for heart-disease diagnoses and aspirin prescriptions (both
        private columns), and counts distinct patients.
        """
        if len(diagnoses) != 2 or len(medications) != 2:
            raise ValueError("SMCQL's backend supports exactly two parties")

        diag_by_party = [self._group_by_key(t, "patient_id") for t in diagnoses]
        med_by_party = [self._group_by_key(t, "patient_id") for t in medications]
        all_keys = set().union(*[set(g) for g in diag_by_party + med_by_party])

        matching_patients: set[int] = set()
        mpc_slices = 0
        local_slices = 0
        local_records = 0
        total_gates = 0

        for key in all_keys:
            holders = {
                p
                for p in (0, 1)
                if key in diag_by_party[p] or key in med_by_party[p]
            }
            diag_rows = [diag_by_party[p].get(key, []) for p in (0, 1)]
            med_rows = [med_by_party[p].get(key, []) for p in (0, 1)]
            d = [row for rows in diag_rows for row in rows]
            m = [row for rows in med_rows for row in rows]
            matched = self._aspirin_slice_matches(d, m)

            if len(holders) <= 1:
                local_slices += 1
                local_records += len(d) + len(m)
            else:
                mpc_slices += 1
                total_gates += self._aspirin_slice_gates(len(d), len(m))
            if matched:
                matching_patients.add(key)

        seconds = (
            self.cost.startup_seconds
            + local_records * self.cost.per_local_record_seconds
            + mpc_slices * self.cost.per_slice_overhead_seconds
            + self.oblivm.seconds(total_gates, 0)
        )
        return SMCQLResult(
            value=len(matching_patients),
            simulated_seconds=seconds,
            mpc_slices=mpc_slices,
            local_slices=local_slices,
            mpc_gates=total_gates,
        )

    def estimate_aspirin_count(
        self,
        rows_per_party: int,
        patient_overlap: float = 0.02,
        rows_per_patient: float = 1.0,
    ) -> float:
        """Closed-form runtime estimate for large aspirin-count inputs."""
        patients_per_party = max(1, int(rows_per_party / max(rows_per_patient, 1e-9)))
        shared_patients = int(patients_per_party * patient_overlap)
        local_records = 4 * rows_per_party - 4 * shared_patients * rows_per_patient
        slice_d = 2 * rows_per_patient
        slice_m = 2 * rows_per_patient
        gates = shared_patients * self._aspirin_slice_gates(int(slice_d), int(slice_m))
        return (
            self.cost.startup_seconds
            + max(0.0, local_records) * self.cost.per_local_record_seconds
            + shared_patients * self.cost.per_slice_overhead_seconds
            + self.oblivm.seconds(gates, 0)
        )

    def _aspirin_slice_gates(self, diag_rows: int, med_rows: int) -> int:
        """Garbled gates of one sliced filter+join+distinct circuit."""
        filter_gates = (diag_rows + med_rows) * GATES_PER_COMPARISON
        join_gates = diag_rows * med_rows * (GATES_PER_COMPARISON + 2 * GATES_PER_MUX)
        exists_gates = max(1, diag_rows * med_rows) * GATES_PER_ADDITION
        return filter_gates + join_gates + exists_gates

    @staticmethod
    def _aspirin_slice_matches(diag_rows: list[tuple], med_rows: list[tuple]) -> bool:
        has_heart = any(row[1] == HEART_DISEASE_CODE for row in diag_rows)
        has_aspirin = any(row[1] == ASPIRIN_CODE for row in med_rows)
        return has_heart and has_aspirin

    # -- comorbidity -------------------------------------------------------------------------

    def run_comorbidity(self, diagnoses: list[Table], top_k: int = 10) -> SMCQLResult:
        """Execute the comorbidity query (top-k diagnoses by frequency).

        Like Conclave, SMCQL splits the aggregation into local partial counts
        and an MPC merge; unlike Conclave, the merge plus the order-by run as
        one ObliVM garbled circuit.
        """
        if len(diagnoses) != 2:
            raise ValueError("SMCQL's backend supports exactly two parties")
        partials = [t.aggregate(["diagnosis"], None, "count", "cnt") for t in diagnoses]
        local_records = sum(t.num_rows for t in diagnoses)
        merged = partials[0].concat(partials[1])
        counts = merged.aggregate(["diagnosis"], "cnt", "sum", "cnt")
        result = counts.sort_by(["cnt"], ascending=False).limit(top_k)

        mpc_rows = merged.num_rows
        gates = self._comorbidity_gates(mpc_rows)
        seconds = (
            self.cost.startup_seconds
            + local_records * self.cost.per_local_record_seconds
            + self.cost.per_slice_overhead_seconds
            + self.oblivm.seconds(gates, mpc_rows * 2 * VALUE_BITS)
        )
        return SMCQLResult(
            value=result,
            simulated_seconds=seconds,
            mpc_slices=1,
            local_slices=2,
            mpc_gates=gates,
        )

    def estimate_comorbidity(self, rows_per_party: int, distinct_fraction: float = 0.1) -> float:
        """Closed-form runtime estimate for large comorbidity inputs."""
        mpc_rows = int(2 * rows_per_party * distinct_fraction)
        gates = self._comorbidity_gates(mpc_rows)
        return (
            self.cost.startup_seconds
            + 2 * rows_per_party * self.cost.per_local_record_seconds
            + self.cost.per_slice_overhead_seconds
            + self.oblivm.seconds(gates, mpc_rows * 2 * VALUE_BITS)
        )

    def _comorbidity_gates(self, mpc_rows: int) -> int:
        """Gates of the ObliVM merge aggregation plus the order-by circuit."""
        if mpc_rows <= 1:
            return GATES_PER_COMPARISON
        agg_sort = bitonic_comparator_count(mpc_rows) * (GATES_PER_COMPARISON + 2 * GATES_PER_MUX)
        agg_scan = (mpc_rows - 1) * (GATES_PER_COMPARISON + GATES_PER_ADDITION + GATES_PER_MUX)
        groups = max(2, int(mpc_rows / 2))
        order_by = bitonic_comparator_count(groups) * (GATES_PER_COMPARISON + 2 * GATES_PER_MUX)
        return agg_sort + agg_scan + order_by

    # -- helpers -------------------------------------------------------------------------------

    @staticmethod
    def _group_by_key(table: Table, key: str) -> dict[int, list[tuple]]:
        groups: dict[int, list[tuple]] = {}
        key_idx = table.schema.index_of(key)
        for row in table.rows():
            groups.setdefault(int(row[key_idx]), []).append(row)
        return groups
