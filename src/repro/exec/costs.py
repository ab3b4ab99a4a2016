"""The cleartext work tally and the two price lists that convert it.

The cleartext engine *counts* what it does in a :class:`CleartextWork`
and never prices it; ``CompilationConfig.cleartext_backend`` names the
system whose price list turns the counts into simulated seconds — the
sequential Python agent or the small Spark cluster of the paper's testbed
(§4.1, §7).  :class:`~repro.core.estimator.PlanEstimator` prices its
closed-form row counts through the same two ``seconds(work)`` functions,
so an estimated and an executed plan can only disagree about the tally,
never about the formula.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CleartextWork:
    """Counts of the cleartext work one party's engine performed."""

    #: Relations loaded into the engine (one job submission each).
    jobs: int = 0
    #: Operator passes (one stage each).
    stages: int = 0
    #: Records touched, summed over operator passes.
    records_processed: int = 0
    #: Records repartitioned by key for the wide operators (join, grouped
    #: aggregation, distinct, sort, merge).
    records_shuffled: int = 0


@dataclass(frozen=True)
class PythonCostModel:
    """Price list for single-core sequential processing."""

    #: Fixed interpreter/start-up overhead, paid once by any non-empty tally.
    startup_seconds: float = 0.1
    #: Seconds per record per operator pass on one core.
    per_record_seconds: float = 1.0e-6

    def seconds(self, work: CleartextWork) -> float:
        startup = self.startup_seconds if work.jobs or work.stages else 0.0
        return startup + work.records_processed * self.per_record_seconds


@dataclass(frozen=True)
class SparkCostModel:
    """Price list for the data-parallel cluster (three 2-vCPU workers per
    party in the paper's testbed)."""

    #: Total executor cores available to one job.
    total_cores: int = 6
    #: Fixed driver/job-submission overhead per job.
    job_overhead_seconds: float = 4.0
    #: Scheduling overhead per stage.
    stage_overhead_seconds: float = 1.0
    #: Task launch overhead; a stage runs one wave of one task per core.
    task_overhead_seconds: float = 0.05
    #: CPU seconds per record per operator pass (one core).
    per_record_seconds: float = 1.5e-6
    #: Extra seconds per record moved through a shuffle (serialise, network,
    #: deserialise).
    per_shuffle_record_seconds: float = 5.0e-6

    def seconds(self, work: CleartextWork) -> float:
        compute = work.records_processed * self.per_record_seconds
        shuffle = work.records_shuffled * self.per_shuffle_record_seconds
        return (
            (compute + shuffle) / max(1, self.total_cores)
            + work.jobs * self.job_overhead_seconds
            + work.stages * (self.stage_overhead_seconds + self.task_overhead_seconds)
        )


#: The price list each ``CompilationConfig.cleartext_backend`` value names.
CLEARTEXT_COST_MODELS = {"python": PythonCostModel, "spark": SparkCostModel}
