"""Reproduction of *Conclave: secure multi-party computation on big data*
(Volgushev et al., EuroSys 2019).

The top-level package re-exports the analyst-facing API so queries read like
the paper's listings.  Queries are written against the expression frontend:
predicates and derived columns are ordinary Python expressions over
:func:`col` and :func:`lit`, joins take multi-column keys via ``on=``, and
group-bys compute any number of aggregates in one call::

    import repro as cc

    with cc.QueryContext() as q:
        pA, pB = cc.Party("mpc.ftc.gov"), cc.Party("mpc.a.com")
        demo = cc.new_table("demographics", [cc.Column("ssn"), cc.Column("zip")], at=pA)
        scores = cc.new_table("scores", [cc.Column("ssn"), cc.Column("score")], at=pB)
        good = scores.filter((cc.col("score") > 600) & (cc.col("score") < 850))
        stats = demo.join(good, on="ssn").aggregate(
            group=["zip"], aggs={"total": cc.SUM("score"), "cnt": cc.COUNT()}
        )
        avg = stats.with_column("avg_score", cc.col("total") / cc.col("cnt"))
        avg.collect("avg_scores", to=[pA])

    compiled = cc.compile_query(q)
    runner = cc.QueryRunner(parties, inputs)
    print(runner.run(compiled).outputs["avg_scores"])

The compiler lowers every expression into its fixed relational operator
vocabulary before the optimisation passes run, so the cleartext/MPC/hybrid
split (push-down, push-up, hybrid operators, sort elimination) is untouched
by how a query was phrased.

Sub-packages:

* :mod:`repro.core` — the query compiler, frontier/hybrid rewrites, code
  generation and multi-party dispatch (the paper's contribution).
* :mod:`repro.data` — schemas, tables and CSV I/O.
* :mod:`repro.mpc` — the secret-sharing (Sharemind-style) MPC substrate,
  built from scratch.
* :mod:`repro.exec` — the columnar cleartext engine.
* :mod:`repro.model` — the cost model: the counters both engines fill in,
  the one formula of every analytic protocol step, the price lists of the
  systems the paper compares, and the plan estimator that runs a plan on
  row counts.
* :mod:`repro.runtime` — the distributed party-agent runtime: the TCP mesh
  that carries each MPC round between per-party OS processes (the
  in-process simulation carries it in memory), the session/agent execution
  split, and the persistent query service.  Pass ``runtime="sockets"`` to
  :func:`run_query` for a per-query agent mesh, or hold a standing one open
  across queries::

      with cc.open_session(inputs) as session:
          for plan in plans:
              result = session.submit(plan)
* :mod:`repro.hybrid` — the hybrid MPC–cleartext protocols (§5.3).
* :mod:`repro.workloads` — synthetic workload generators for every
  experiment in the paper.
* :mod:`repro.baselines` — the SMCQL-style comparison system (§7.4).
"""

from repro.core import (
    AggFunc,
    AggSpec,
    COMPOSITE_KEY_BASE,
    COUNT,
    Column,
    Expr,
    col,
    lit,
    CompilationConfig,
    CompiledQuery,
    RestartPolicy,
    FLOAT,
    INT,
    MAX,
    MEAN,
    MIN,
    Party,
    QueryContext,
    QueryResult,
    QueryRunner,
    RelationHandle,
    SUM,
    SecurityError,
    compile_query,
    concat,
    new_table,
    run_query,
)
from repro.data import ColumnDef, ColumnType, Schema, Table, read_csv, write_csv
from repro.model.estimator import EstimatedOOM, EstimatorParams, PlanEstimator
from repro.runtime import (
    AgentFailure,
    FaultPlan,
    GatewayMetrics,
    KillFault,
    LinkFault,
    QueryRejected,
    QuerySession,
    SessionClosed,
    SocketCoordinator,
    open_session,
)

__version__ = "1.1.0"

__all__ = [
    "AggFunc",
    "AggSpec",
    "COMPOSITE_KEY_BASE",
    "COUNT",
    "Column",
    "Expr",
    "col",
    "lit",
    "CompilationConfig",
    "CompiledQuery",
    "RestartPolicy",
    "EstimatedOOM",
    "EstimatorParams",
    "FLOAT",
    "INT",
    "MAX",
    "MEAN",
    "MIN",
    "Party",
    "PlanEstimator",
    "QueryContext",
    "QueryResult",
    "QueryRunner",
    "RelationHandle",
    "SUM",
    "SecurityError",
    "compile_query",
    "concat",
    "new_table",
    "run_query",
    "ColumnDef",
    "ColumnType",
    "Schema",
    "Table",
    "read_csv",
    "write_csv",
    "AgentFailure",
    "FaultPlan",
    "GatewayMetrics",
    "KillFault",
    "LinkFault",
    "QueryRejected",
    "QuerySession",
    "SessionClosed",
    "SocketCoordinator",
    "open_session",
    "__version__",
]
