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

* a simulated wall-clock time, computed from the backends' cost models with
  a completion-time recurrence so that independent local work at different
  parties overlaps (as it would on real, separate clusters), and
* one :class:`~repro.hybrid.stp.LeakageReport` listing every value or
  cardinality that left the cryptographic envelope — the same list, in the
  same order, on every runtime: each agent of a distributed run writes the
  identical report (see :meth:`PlanExecutor._fetch
  <repro.runtime.executor.PlanExecutor._fetch>`), so there is nothing to
  merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import CompilationConfig
from repro.data.table import Table
from repro.hybrid.stp import LeakageReport
from repro.model.prices import completion_seconds
from repro.runtime.executor import PlanExecutor, SecurityError

__all__ = [
    "QueryResult",
    "QueryRunner",
    "SecurityError",
    "load_party_inputs",
    "run_compiled",
    "run_query_from_csv",
]


@dataclass
class QueryResult:
    """Outputs and accounting of one query execution."""

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
    #: agent process held); populated by the sockets runtime, empty otherwise.
    isolation: dict = field(default_factory=dict)

    def output(self, name: str) -> Table:
        if name not in self.outputs:
            raise KeyError(f"no output named {name!r}; have {sorted(self.outputs)}")
        return self.outputs[name]


def load_party_inputs(input_dirs: dict[str, str]) -> dict[str, dict[str, Table]]:
    """Load each party's input relations from its CSV directory.

    ``input_dirs`` maps party name to a directory containing one
    ``<relation>.csv`` file per input relation the party owns — the same
    layout the per-party Conclave agents use in the original prototype.
    """
    from pathlib import Path

    from repro.data.csvio import read_csv

    inputs: dict[str, dict[str, Table]] = {}
    for party, directory in input_dirs.items():
        path = Path(directory)
        if not path.is_dir():
            raise FileNotFoundError(f"input directory for party {party!r} not found: {path}")
        inputs[party] = {
            csv_file.stem: read_csv(csv_file) for csv_file in sorted(path.glob("*.csv"))
        }
    return inputs


def run_query_from_csv(
    compiled,
    input_dirs: dict[str, str],
    output_dir: str | None = None,
    config: CompilationConfig | None = None,
    seed: int = 0,
    runtime: str = "simulated",
    timeout: float = 60.0,
) -> QueryResult:
    """Execute a compiled query whose inputs live in per-party CSV directories.

    Outputs are returned as tables and, when ``output_dir`` is given, also
    written there as ``<relation>.csv`` (one file per query output).
    ``runtime="sockets"`` runs each party as a separate OS process, with
    ``timeout`` bounding every blocking socket operation.
    """
    from pathlib import Path

    from repro.data.csvio import write_csv

    result = run_compiled(
        compiled, load_party_inputs(input_dirs), config or compiled.config,
        seed=seed, runtime=runtime, timeout=timeout,
    )
    if output_dir is not None:
        for name, table in result.outputs.items():
            write_csv(table, Path(output_dir) / f"{name}.csv")
    return result


def run_compiled(
    compiled,
    inputs: dict[str, dict[str, Table]],
    config: CompilationConfig,
    *,
    seed: int = 0,
    runtime: str = "simulated",
    timeout: float = 60.0,
) -> QueryResult:
    """Execute a compiled query on the chosen runtime — the one place the
    ``simulated | sockets`` choice is made (the runtimes are described at
    :func:`repro.core.compiler.run_query`).
    """
    parties = sorted(compiled.dag.parties() | set(inputs))
    if runtime == "simulated":
        return QueryRunner(parties, inputs, config, seed=seed).run(compiled)
    if runtime == "sockets":
        from repro.runtime.service import SocketCoordinator

        return SocketCoordinator(parties, inputs, config, seed=seed, timeout=timeout).run(compiled)
    raise ValueError(f"unknown runtime {runtime!r}; use 'simulated' or 'sockets'")


class QueryRunner(PlanExecutor):
    """Executes compiled queries over in-memory party inputs, in one process."""

    def run(self, compiled) -> QueryResult:
        """Execute a :class:`~repro.core.compiler.CompiledQuery`."""
        outcome = self.execute(compiled)
        return QueryResult(
            outputs=outcome.outputs,
            simulated_seconds=completion_seconds(compiled.dag, outcome.node_durations),
            wall_seconds=outcome.wall_seconds,
            leakage=outcome.leakage,
            backend_seconds=outcome.backend_seconds,
            mpc_profile=outcome.mpc_profile,
            runtime="simulated",
        )
