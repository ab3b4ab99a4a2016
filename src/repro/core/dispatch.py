"""Multi-party execution of a compiled query.

The in-process :class:`QueryRunner` plays the role of *all* the per-party
Conclave agents at once (§4.1): it instantiates one cleartext backend per
party and one MPC backend for the joint steps, executes the compiled DAG
node by node in topological order, and moves relations across the MPC
boundary exactly where the plan says — secret-sharing local relations into
MPC, revealing MPC relations only to parties the plan authorises, and
routing hybrid operators through the selectively-trusted party.

The node-execution logic itself lives in
:class:`repro.runtime.executor.PlanExecutor`, which is shared with the
distributed runtime (:mod:`repro.runtime.service` /
:mod:`repro.runtime.agent`) where each party really is a separate OS
process.  Pass ``runtime="sockets"`` to :func:`run_query_from_csv` (or to
:func:`repro.core.compiler.run_query`) to execute over real per-party
processes instead of the in-process simulation.

Alongside the actual results, both runtimes produce:

* a tally of every engine's work, priced by :func:`repro.model.prices.price`
  into a simulated wall-clock time with a completion-time recurrence so that
  independent local work at different parties overlaps (as it would on real,
  separate clusters), and
* one :class:`~repro.hybrid.stp.LeakageReport` listing every value or
  cardinality that left the cryptographic envelope — the same list, in the
  same order, on every runtime: each agent of a distributed run writes the
  identical report (see :meth:`PlanExecutor._fetch
  <repro.runtime.executor.PlanExecutor._fetch>`), so there is nothing to
  merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.compiler import CompiledQuery, compile_query
from repro.core.config import CompilationConfig
from repro.data.table import Table
from repro.hybrid.stp import LeakageReport
from repro.model.prices import price
from repro.runtime.executor import PlanExecutor, SecurityError

__all__ = [
    "QueryResult",
    "QueryRunner",
    "SecurityError",
    "run_compiled",
    "run_query_from_csv",
]


@dataclass
class QueryResult:
    """Outputs and accounting of one query execution: its seconds are its
    ``tally`` priced by :func:`~repro.model.prices.price` under the default
    (paper-testbed) price lists, and ``price`` prices it under any other."""

    outputs: dict[str, Table]
    simulated_seconds: float
    wall_seconds: float
    leakage: LeakageReport
    backend_seconds: dict[str, float] = field(default_factory=dict)
    #: JSON-friendly counters of the joint MPC work (operation counts and
    #: network traffic); empty for single-party queries.
    mpc_profile: dict = field(default_factory=dict)
    #: Which runtime executed the query: ``"simulated"`` (in-process),
    #: ``"sockets"`` (one OS process per party, spawned for this query) or
    #: ``"service"`` (a standing :class:`~repro.runtime.service.QuerySession`).
    runtime: str = "simulated"
    #: Per-party isolation audit (which share slices / cleartext inputs each
    #: agent process held); every session result carries it (``"sockets"``
    #: and ``"service"``), an in-process run leaves it empty.
    isolation: dict = field(default_factory=dict)
    #: The whole run's counts per engine per node (:mod:`repro.model.counters`).
    tally: dict = field(default_factory=dict)

    @classmethod
    def priced(cls, dag, tally, **fields) -> "QueryResult":
        """The result of a run of ``dag`` whose work is ``tally``."""
        seconds = price(dag, tally)
        return cls(
            simulated_seconds=seconds.simulated_seconds,
            backend_seconds=seconds.backend_seconds, tally=tally, **fields,
        )

    def output(self, name: str) -> Table:
        if name not in self.outputs:
            raise KeyError(f"no output named {name!r}; have {sorted(self.outputs)}")
        return self.outputs[name]


def run_query_from_csv(
    compiled,
    input_dirs: dict[str, str],
    output_dir: str | None = None,
    seed: int = 0,
    runtime: str = "simulated",
    timeout: float = 60.0,
) -> QueryResult:
    """Execute a compiled query whose inputs live in per-party CSV directories.

    Each input the plan declares is read from ``<owner's dir>/<relation>.csv``
    with the schema the plan declares (header included).  Outputs are
    returned as tables and, when ``output_dir`` is given, also written there
    as ``<relation>.csv`` (one file per query output).  ``runtime="sockets"``
    runs each party as a separate OS process, with ``timeout`` bounding
    every blocking socket operation.
    """
    from pathlib import Path

    from repro.data.csvio import read_csv, write_csv

    inputs: dict[str, dict[str, Table]] = {party: {} for party in input_dirs}
    for rel in (node.out_rel for node in compiled.dag.roots):
        path = Path(input_dirs[rel.owner]) / f"{rel.name}.csv"
        inputs[rel.owner][rel.name] = read_csv(path, rel.schema)
    result = run_compiled(compiled, inputs, seed=seed, runtime=runtime, timeout=timeout)
    if output_dir is not None:
        for name, table in result.outputs.items():
            write_csv(table, Path(output_dir) / f"{name}.csv")
    return result


def run_compiled(
    compiled,
    inputs: dict[str, dict[str, Table]],
    *,
    seed: int = 0,
    runtime: str = "simulated",
    timeout: float = 60.0,
) -> QueryResult:
    """Execute a compiled query on the chosen runtime — the one place the
    ``simulated | sockets`` choice is made (the runtimes are described at
    :func:`repro.core.compiler.run_query`).  The plan runs with the
    configuration it was compiled with, on either runtime.
    """
    parties = sorted(compiled.dag.parties() | set(inputs))
    if runtime == "simulated":
        return QueryRunner(parties, inputs, seed=seed).run(compiled)
    if runtime == "sockets":
        from repro.runtime.service import SocketCoordinator

        return SocketCoordinator(parties, inputs, seed=seed, timeout=timeout).run(compiled)
    raise ValueError(f"unknown runtime {runtime!r}; use 'simulated' or 'sockets'")


class QueryRunner(PlanExecutor):
    """Executes queries over in-memory party inputs, in one process.

    ``config`` is what a query handed over uncompiled compiles with; a
    compiled plan runs with the configuration it was compiled with.
    """

    def __init__(self, parties, inputs, config: CompilationConfig | None = None, seed: int = 0):
        super().__init__(parties, inputs, seed)
        self.config = config or CompilationConfig()

    def run(self, query) -> QueryResult:
        """Execute a :class:`~repro.core.compiler.CompiledQuery`, or compile
        anything :func:`~repro.core.compiler.compile_query` accepts with the
        runner's ``config`` and execute that."""
        compiled = query if isinstance(query, CompiledQuery) else compile_query(query, self.config)
        outcome = self.execute(compiled)
        return QueryResult.priced(
            compiled.dag,
            outcome.tally,
            outputs=outcome.outputs,
            wall_seconds=outcome.wall_seconds,
            leakage=outcome.leakage,
            mpc_profile=outcome.mpc_profile,
            runtime="simulated",
        )
