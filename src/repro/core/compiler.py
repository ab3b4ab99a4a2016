"""The Conclave query compiler: the six-stage pipeline of §5.

``compile_query`` takes the operator DAG produced by the frontend and a
:class:`~repro.core.config.CompilationConfig` and runs:

1. input/output annotation propagation (ownership, §5.1);
2. MPC-frontier push-down and push-up (§5.2);
3. trust-set propagation (§5.1);
4. hybrid-operator insertion (§5.3);
5. oblivious-operation reduction (sort elimination, §5.4);
6. final placement: the annotated DAG *is* the plan (§6).

The result is a :class:`CompiledQuery`, which the
:class:`~repro.core.dispatch.QueryRunner` executes and the plan
cost estimator (:mod:`repro.model.estimator`) prices for large inputs.
What is fingerprinted, shipped, cached at the agents and executed is the
DAG itself: where Conclave's stage 6 emits one job per backend, here the
executor runs the annotated operators directly.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field

from repro.core.config import CompilationConfig
from repro.core.dag import Dag
from repro.core.frontier import push_down, push_up
from repro.core.hybrid_rewrite import apply_hybrid_operators
from repro.core.lang import QueryContext
from repro.core.propagation import mark_mpc_frontier, propagate_ownership, propagate_trust
from repro.core.sort_opt import eliminate_redundant_sorts, push_up_sorts, sort_filters_first


@dataclass
class CompilationReport:
    """What the rewrite passes did to the query."""

    push_down_rewrites: int = 0
    push_up_rewrites: int = 0
    hybrid_rewrites: list[str] = field(default_factory=list)
    sorts_eliminated: int = 0
    sorts_pushed_up: int = 0

    def summary(self) -> str:
        lines = [
            f"push-down rewrites applied : {self.push_down_rewrites}",
            f"push-up rewrites applied   : {self.push_up_rewrites}",
            f"oblivious sorts eliminated : {self.sorts_eliminated}",
            f"sorts pushed through concat: {self.sorts_pushed_up}",
        ]
        if self.hybrid_rewrites:
            lines.append("hybrid operators inserted  :")
            lines.extend(f"  - {r}" for r in self.hybrid_rewrites)
        else:
            lines.append("hybrid operators inserted  : none")
        return "\n".join(lines)


@dataclass
class CompiledQuery:
    """The output of the compiler: the annotated DAG that runs."""

    dag: Dag
    config: CompilationConfig
    report: CompilationReport

    def mpc_operator_count(self) -> int:
        """Number of operators that still execute under MPC."""
        return sum(1 for n in self.dag.topological() if n.is_mpc)

    def operator_count(self) -> int:
        return len(self.dag.topological())

    def explain(self) -> str:
        """Human-readable compilation summary: the rewrites, the DAG, and one
        shape run of the plan at its tables' ``estimated_rows`` — per-node
        locus, rows and seconds (under the default price lists;
        :class:`~repro.model.estimator.PlanEstimator` takes others), the
        rounds of each network, and the disclosures the run predicts.
        Derives nothing it keeps: the plan and its ``plan_fingerprint`` are
        unchanged."""
        # The estimator imports this module.
        from repro.model.estimator import PlanEstimator

        parts = [
            "== Conclave compilation ==",
            self.report.summary(),
            "",
            "== operator DAG ==",
            self.dag.render(),
            "",
            "== estimate (shape run at estimated_rows) ==",
        ]
        estimate = PlanEstimator().estimate(self)
        rounds = [
            f"{network}: {len(schedule)} rounds  "
            + ", ".join(f"{tag} x{n}" for tag, n in Counter(tag for tag, _, _ in schedule).items())
            for network, schedule in estimate.schedule.items()
        ]
        parts += [
            estimate.breakdown(),
            "",
            "== rounds per network ==",
            *rounds,
            "",
            "== predicted leakage ==",
            estimate.leakage.summary(),
        ]
        return "\n".join(parts)


def compile_query(query: Dag | QueryContext, config: CompilationConfig | None = None) -> CompiledQuery:
    """Run the full six-stage compilation pipeline.

    ``query`` is left untouched: the rewrite passes edit operator nodes in
    place, so they run on a private copy of the DAG and compiling a context
    never changes what a later compile of it produces.
    """
    config = config or CompilationConfig()
    dag = copy.deepcopy(query.build_dag() if isinstance(query, QueryContext) else query)
    dag.validate()
    report = CompilationReport()

    # An MPC filter shuffles its rows as it compacts them: filtering before
    # the sort it follows keeps the sorted order.
    sort_filters_first(dag)

    # Stage 1: propagate input locations / ownership and the initial frontier.
    propagate_ownership(dag)
    mark_mpc_frontier(dag)
    propagate_trust(dag)

    # Stage 2: move the MPC frontier (push-down, then push-up).
    if config.enable_push_down:
        report.push_down_rewrites = push_down(dag, config)
    if config.enable_push_up:
        report.push_up_rewrites = push_up(dag, config)

    # Stage 3: propagate trust annotations through the (rewritten) DAG.
    propagate_trust(dag)

    # Stage 4: insert hybrid operators where trust annotations allow.
    if config.enable_hybrid_operators:
        report.hybrid_rewrites = apply_hybrid_operators(dag, config)

    # Stage 5: reduce oblivious operations.
    if config.enable_sort_pushup:
        report.sorts_pushed_up = push_up_sorts(dag)
    if config.enable_sort_elimination:
        report.sorts_eliminated = eliminate_redundant_sorts(dag)

    # Stage 6: final placement of every operator.
    propagate_ownership(dag)
    mark_mpc_frontier(dag)
    propagate_trust(dag)
    dag.validate()
    # Node ids come from a process-wide counter.  Renumbering by topological
    # position keeps that order (ids only break its ties) and makes the plan
    # — and the codec bytes ``plan_fingerprint`` hashes — a function of the
    # query and the config alone.
    for position, node in enumerate(dag.topological()):
        node.node_id = position
    return CompiledQuery(dag=dag, config=config, report=report)


def run_query(
    query: Dag | QueryContext,
    inputs,
    config: CompilationConfig | None = None,
    seed: int = 0,
    runtime: str = "simulated",
    timeout: float = 60.0,
):
    """Compile and execute a query in one call.

    ``inputs`` maps party name -> {relation name -> Table}.  Returns the
    :class:`~repro.core.dispatch.QueryResult`.  The plan is compiled with
    ``config`` and runs with it on either runtime.

    ``runtime`` selects the execution substrate: ``"simulated"`` runs every
    party inside this process over the in-process transport (the default);
    ``"sockets"`` spawns one OS process per party and moves all cross-party
    traffic — including the secret-sharing rounds of the MPC operators —
    over real TCP connections, the agents living for this one query.  Both
    produce byte-identical outputs and identical MPC operator counts.
    ``timeout`` (sockets only) bounds every blocking socket operation; raise
    it for long-running queries.  To amortise spawn + mesh setup over a
    stream of queries, hold a standing session instead::

        with cc.open_session(inputs) as session:
            result = session.submit(query)
    """
    from repro.core.dispatch import run_compiled

    return run_compiled(
        compile_query(query, config), inputs, seed=seed, runtime=runtime, timeout=timeout
    )
